class C1 extends C2 {
    public int a;
}
