class S {
    private int y = 2;

    int get() {
        return y;
    }

    public int y$R = 1;
}
