class B {
    int x = 2;

    int x$A = 1;

    int run() {
        int x$A = 5;
        return this.x$A;
    }
}
