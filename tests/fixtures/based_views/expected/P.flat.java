class P {
    int p;

    int a;

    int ga() {
        return a;
    }
}
