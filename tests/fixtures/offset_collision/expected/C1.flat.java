class C1 {
    public int a;

    public int b;

    public int h() {
        return b;
    }

    public int a$C3;

    public int g() {
        return a$C3;
    }
}
