class B extends A {
    int f() {
        return this.x + 1;
    }

    void set(int v) {
        this.x = v;
    }
}
