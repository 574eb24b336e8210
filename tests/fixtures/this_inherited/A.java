class A {
    int x = 1;

    int get() {
        return this.x;
    }
}
