class R2 {
    int s() {
        return q() + a;
    }

    int q() {
        return p + ga();
    }

    int p;

    int a;

    int ga() {
        return a;
    }
}
