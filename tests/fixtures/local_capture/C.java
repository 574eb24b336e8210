class C {
    static int s = 1;

    int run() {
        int s = 5;
        return C.s;
    }
}
