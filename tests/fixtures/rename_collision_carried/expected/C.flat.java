class C {
    public int v = 3;

    int c() {
        return v + v$B$A;
    }

    public int v$B = 2;

    int b() {
        return v$B;
    }

    public int v$B$A = 1;

    int a() {
        return v$B$A;
    }
}
