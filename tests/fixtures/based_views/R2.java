class R2 extends Q {
    int s() {
        return q() + a;
    }
}
