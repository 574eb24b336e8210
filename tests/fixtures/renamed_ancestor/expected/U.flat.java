class U {
    int run() {
        return y$R;
    }

    int sup() {
        return y$R;
    }

    public int y$R = 1;
}
