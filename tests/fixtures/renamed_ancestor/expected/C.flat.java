class C {
    int run() {
        return y$R;
    }

    int shadowed() {
        int y$R = 5;
        return this.y$R + y$R;
    }

    private int y = 2;

    int get() {
        return y;
    }

    public int y$R = 1;
}
