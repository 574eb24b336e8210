class A {
    int f(long x) {
        return 1;
    }

    int g() {
        return f(1);
    }
}
