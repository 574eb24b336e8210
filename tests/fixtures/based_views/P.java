class P extends A {
    int p;
}
