class T {
    private int y = 2;

    public int y$R = 1;
}
