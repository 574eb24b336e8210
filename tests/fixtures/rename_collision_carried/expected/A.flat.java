class A {
    public int v$B = 1;

    int a() {
        return v$B;
    }
}
