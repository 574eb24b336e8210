class D {
    static int s = 1;

    int run() {
        int s = 5;
        return this.s;
    }
}
