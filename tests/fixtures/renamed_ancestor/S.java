class S extends R {
    private int y = 2;

    int get() {
        return y;
    }
}
