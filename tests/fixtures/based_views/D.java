class D extends C {
    int d;

    int sum() {
        return a + b + c + d;
    }
}
