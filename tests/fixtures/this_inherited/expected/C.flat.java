class C {
    int x = 3;

    int g() {
        this.x = f();
        return this.x + get();
    }

    int f() {
        return this.x$A + 1;
    }

    void set(int v) {
        this.x$A = v;
    }

    int x$A = 1;

    int get() {
        return this.x$A;
    }
}
