class C extends B {
    int c;

    C() {
        c = 1;
    }
}
