class C extends B {
    public int v = 3;

    int c() {
        return v + v$B;
    }
}
