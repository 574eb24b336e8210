class D {
    int d() {
        return v;
    }

    public int v = 3;

    int c() {
        return v + v$B;
    }

    public int v$B$1 = 2;

    int b() {
        return v$B$1;
    }

    public int v$B = 1;

    int a() {
        return v$B;
    }
}
