class A {
    public int x = 1;

    public int y = 2;

    public int f(A o) {
        return o.x + y;
    }

    public int g() {
        return x;
    }
}
