class B {
    int f(int x) {
        return 2;
    }

    int f(long x) {
        return 1;
    }

    int g() {
        return f(1);
    }
}
