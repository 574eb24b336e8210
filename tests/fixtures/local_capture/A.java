class A {
    int x = 1;

    int run() {
        int x$A = 5;
        return x;
    }
}
