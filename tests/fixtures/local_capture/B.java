class B extends A {
    int x = 2;
}
