class B extends A {
    int b;

    int peek(B other) {
        return other.b;
    }
}
