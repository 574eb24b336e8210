class D {
    int d;

    int sum() {
        return a + b + c + d;
    }

    int c = 1;

    int b;

    int peek(B other) {
        return other.b;
    }

    int a;

    int ga() {
        return a;
    }
}
