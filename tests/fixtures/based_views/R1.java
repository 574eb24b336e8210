class R1 extends Q {
    int r;
}
