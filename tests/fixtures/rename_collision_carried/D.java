class D extends C {
    int d() {
        return v;
    }
}
