class B extends A {
    int f(int x) {
        return 2;
    }
}
