class C3            {
    public int a;
    public int g() { return a; }
}
