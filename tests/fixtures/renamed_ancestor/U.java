class U extends T {
    int run() {
        return y;
    }

    int sup() {
        return super.y;
    }
}
