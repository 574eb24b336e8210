class Q extends P {
    int q() {
        return p + ga();
    }
}
