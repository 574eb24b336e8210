class B {
    public int v = 2;

    int b() {
        return v;
    }

    public int v$B = 1;

    int a() {
        return v$B;
    }
}
