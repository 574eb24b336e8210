class B {
    int b;

    int peek(B other) {
        return other.b;
    }

    int a;

    int ga() {
        return a;
    }
}
