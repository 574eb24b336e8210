class B {
    int f() {
        return this.x + 1;
    }

    void set(int v) {
        this.x = v;
    }

    int x = 1;

    int get() {
        return this.x;
    }
}
