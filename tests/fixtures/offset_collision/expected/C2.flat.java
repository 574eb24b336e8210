class C2 {
    public int b;

    public int h() {
        return b;
    }

    public int a;

    public int g() {
        return a;
    }
}
