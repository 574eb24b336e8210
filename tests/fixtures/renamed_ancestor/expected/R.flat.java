class R {
    public int y = 1;
}
