class B extends A {
    public int h() {
        return y;
    }
}
