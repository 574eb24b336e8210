class C extends S {
    int run() {
        return y;
    }

    int shadowed() {
        int y$R = 5;
        return y + y$R;
    }
}
