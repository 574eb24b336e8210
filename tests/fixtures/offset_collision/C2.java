class C2 extends C3 {
    public int b;
    public int h() { return b; }
}
