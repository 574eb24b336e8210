class C extends B {
    int x = 3;

    int g() {
        this.x = f();
        return this.x + get();
    }
}
