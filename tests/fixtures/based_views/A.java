class A {
    int a;

    int ga() {
        return a;
    }
}
