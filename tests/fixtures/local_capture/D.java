class D extends C {
}
