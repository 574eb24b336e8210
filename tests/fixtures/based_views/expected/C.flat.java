class C {
    int c;

    C() {
        c = 1;
    }

    int b;

    int peek(B other) {
        return other.b;
    }

    int a;

    int ga() {
        return a;
    }
}
