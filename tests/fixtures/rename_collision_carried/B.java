class B extends A {
    public int v = 2;

    int b() {
        return v;
    }
}
