class Q {
    int q() {
        return p + ga();
    }

    int p;

    int a;

    int ga() {
        return a;
    }
}
