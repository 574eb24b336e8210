class T extends R {
    private int y = 2;
}
