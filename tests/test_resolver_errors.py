"""The exact errors of the resolver's member lookups, and what a lookup records.

Each case is a set of sources that fails in name, field, call or
constructor resolution; the test pins the exception type and its full text,
file, line and column included. `test_receiver_bookkeeping` pins the sites,
`class_refs`, `receiver_types` and `uses_this` of one body that reaches
members through every kind of receiver.
"""

from __future__ import annotations

import pytest

from flatjava import AmbiguousCall, UnresolvedName

from conftest import model_from_sources

CASES = {
    # bare names
    "bare_read": (
        ("class A { int f() { return ghost; } }",),
        UnresolvedName, "<mem0>:1:28: cannot resolve name 'ghost'",
    ),
    "bare_write": (
        ("class A { void f() { ghost = 1; } }",),
        UnresolvedName, "<mem0>:1:22: cannot resolve name 'ghost'",
    ),
    # field accesses through `this` and `super`
    "this_missing": (
        ("class A { void f() { this.y = 1; } }",),
        UnresolvedName, "<mem0>:1:27: class A has no attribute 'y'",
    ),
    "this_private_inherited": (
        ("class A { private int x; }", "class B extends A { int f() { return this.x; } }"),
        UnresolvedName, "<mem1>:1:43: class B has no attribute 'x'",
    ),
    "super_field_in_root_class": (
        ("class A { int x; void f() { super.x = 1; } }",),
        UnresolvedName, "<mem0>:1:35: no visible attribute 'x' in superclasses of A",
    ),
    "super_private_field": (
        ("class A { private int x; }", "class B extends A { void f() { super.x = 1; } }"),
        UnresolvedName, "<mem1>:1:38: no visible attribute 'x' in superclasses of B",
    ),
    "super_missing_field": (
        ("class A { }", "class B extends A { int f() { return super.y; } }"),
        UnresolvedName, "<mem1>:1:44: no visible attribute 'y' in superclasses of B",
    ),
    # a qualifier that names nothing
    "unresolved_qualifier_field": (
        ("class A { int f() { return q.x; } }",),
        UnresolvedName, "<mem0>:1:28: cannot resolve name 'q'",
    ),
    "unresolved_qualifier_call": (
        ("class A { int f() { return q.g(); } }",),
        UnresolvedName, "<mem0>:1:28: cannot resolve name 'q'",
    ),
    # static field accesses
    "static_missing": (
        ("class C { }", "class A { int f() { return C.y; } }"),
        UnresolvedName, "<mem1>:1:30: class C has no accessible attribute 'y'",
    ),
    "static_private": (
        ("class C { private static int y; }", "class A { int f() { return C.y; } }"),
        UnresolvedName, "<mem1>:1:30: class C has no accessible attribute 'y'",
    ),
    "static_not_static": (
        ("class C { public int y; }", "class A { void f() { C.y = 1; } }"),
        UnresolvedName, "<mem1>:1:24: attribute C.y is not static",
    ),
    "static_not_static_own_class": (
        ("class A { int x; void f() { A.x = 1; } }",),
        UnresolvedName, "<mem0>:1:31: attribute A.x is not static",
    ),
    "static_not_static_in_initializer": (
        ("class C { public int y; }", "class A { int x = C.y; }"),
        UnresolvedName, "<mem1>:1:21: attribute C.y is not static",
    ),
    # field accesses on a typed receiver
    "typed_missing": (
        ("class C { }", "class A { C c; int f() { return c.y; } }"),
        UnresolvedName, "<mem1>:1:35: class C has no accessible attribute 'y'",
    ),
    "typed_nearest_declaration_private": (
        (
            "class C { public int y; }", "class D extends C { private int y; }",
            "class A { D d; int f() { return d.y; } }",
        ),
        UnresolvedName, "<mem2>:1:35: class D has no accessible attribute 'y'",
    ),
    "typed_chain_missing": (
        ("class C { public C next; }", "class A { C c; int f() { return c.next.next.z; } }"),
        UnresolvedName, "<mem1>:1:45: class C has no accessible attribute 'z'",
    ),
    "typed_private_in_other_class": (
        ("class A { private int x; }", "class B { void f(A a) { a.x = 1; } }"),
        UnresolvedName, "<mem1>:1:27: class A has no accessible attribute 'x'",
    ),
    # calls
    "call_bare_missing": (
        ("class A { void f() { g(); } }",),
        UnresolvedName, "<mem0>:1:22: cannot resolve method 'g'",
    ),
    "call_this_missing": (
        ("class A { void f() { this.g(); } }",),
        UnresolvedName, "<mem0>:1:27: cannot resolve method 'g'",
    ),
    "call_super_in_root_class": (
        ("class A { void g() { } void f() { super.g(); } }",),
        UnresolvedName, "<mem0>:1:35: 'super' used in a class with no superclass",
    ),
    "call_super_private": (
        ("class A { private void g() { } }", "class B extends A { void f() { super.g(); } }"),
        UnresolvedName, "<mem1>:1:38: cannot resolve method 'g'",
    ),
    "call_static_not_static": (
        ("class C { public void g() { } }", "class A { void f() { C.g(); } }"),
        UnresolvedName, "<mem1>:1:24: method C.g() is not static",
    ),
    "call_static_missing": (
        ("class C { }", "class A { void f() { C.g(); } }"),
        UnresolvedName, "<mem1>:1:24: cannot resolve method 'g'",
    ),
    "call_typed_private": (
        ("class C { private void g() { } }", "class A { void f(C c) { c.g(); } }"),
        UnresolvedName, "<mem1>:1:27: cannot resolve method 'g'",
    ),
    # a call's arguments are resolved before its receiver
    "call_arguments_before_qualifier": (
        ("class A { void f() { q.g(ghost); } }",),
        UnresolvedName, "<mem0>:1:26: cannot resolve name 'ghost'",
    ),
    "call_arguments_before_super": (
        ("class A { void f() { super.g(ghost); } }",),
        UnresolvedName, "<mem0>:1:30: cannot resolve name 'ghost'",
    ),
    # overloads
    "overload_arity": (
        ("class A { void g(int a) { } void f() { g(1, 2); } }",),
        AmbiguousCall, "<mem0>:1:40: no overload of 'g' takes 2 argument(s)",
    ),
    "overload_null": (
        ("class C { }", "class A { void g(String s) { } void g(C c) { } void f() { g(null); } }"),
        AmbiguousCall, "<mem1>:1:59: call 'g' with argument types (null) matches 2 overloads",
    ),
    "overload_no_exact_match": (
        ("class A { void g(int a) { } void g(long a) { } void f() { g(true); } }",),
        AmbiguousCall, "<mem0>:1:59: call 'g' with argument types (boolean) matches 2 overloads",
    ),
    "overload_unknown_argument_type": (
        ("class A { void g(int a) { } void g(long a) { } void f(String s) { g(s.x); } }",),
        AmbiguousCall, "<mem0>:1:67: call 'g' with argument types (?) matches 2 overloads",
    ),
    # a receiver of primitive type has no members
    "primitive_super_field": (
        ("class A { int x; }", "class B extends A { int f() { return super.x.y; } }"),
        UnresolvedName, "<mem1>:1:38: int cannot be dereferenced",
    ),
    "primitive_call_result": (
        ("class A { int f() { return 1; } int g() { return this.f().x; } }",),
        UnresolvedName, "<mem0>:1:50: int cannot be dereferenced",
    ),
    "primitive_call_on_field": (
        ("class A { long x; int g() { return x.h(); } }",),
        UnresolvedName, "<mem0>:1:36: long cannot be dereferenced",
    ),
    "primitive_parenthesized": (
        ("class A { int g(boolean b) { return (b && b).x; } }",),
        UnresolvedName, "<mem0>:1:37: boolean cannot be dereferenced",
    ),
    "primitive_write_target": (
        ("class A { int g(double d) { d.x = 1; return 0; } }",),
        UnresolvedName, "<mem0>:1:29: double cannot be dereferenced",
    ),
    # a void call has no value to dereference
    "void_call_field": (
        ("class A { void v() { } int g() { return v().x; } }",),
        UnresolvedName, "<mem0>:1:41: void cannot be dereferenced",
    ),
    "void_call_call": (
        ("class A { void v() { } int g() { return v().f(); } }",),
        UnresolvedName, "<mem0>:1:41: void cannot be dereferenced",
    ),
    # constructors
    "new_no_ctors_with_args": (
        ("class C { }", "class A { void f() { new C(1); } }"),
        UnresolvedName, "<mem1>:1:22: class C has no constructor taking 1 argument(s)",
    ),
    "new_arity": (
        ("class C { C() { } }", "class A { void f() { new C(1, 2); } }"),
        UnresolvedName, "<mem1>:1:22: class C has no constructor taking 2 argument(s)",
    ),
    "new_null": (
        (
            "class D { }", "class C { C(String s) { } C(D d) { } }",
            "class A { void f() { new C(null); } }",
        ),
        AmbiguousCall, "<mem2>:1:22: constructor call new C(null) matches 2 overloads",
    ),
    "new_no_exact_match": (
        ("class C { C(int a) { } C(long a) { } }", "class A { void f() { new C(true); } }"),
        AmbiguousCall, "<mem1>:1:22: constructor call new C(boolean) matches 2 overloads",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lookup_error_text(case):
    sources, error, text = CASES[case]
    with pytest.raises(error) as excinfo:
        model_from_sources(*sources)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == text


def test_unmodeled_class_and_array_receivers_stay_external():
    model = model_from_sources(
        "class A { int[] a; String s; int g() { return a.length + s.length(); } }"
    )
    (g,) = [m.resolution for m in model.classes["A"].members if m.resolution.sites]
    assert [(s.kind, s.to_member, s.basis) for s in g.sites.values()] == [
        ("read", "a", "bare"), ("read", "s", "bare"),
    ]
    assert not g.receiver_types


def test_receiver_bookkeeping():
    model = model_from_sources(
        "class C { public static int s; public int v; "
        "public static int h() { return 1; } public int k() { return 2; } }",
        "class A extends C { private static int p() { return 3; } C c; "
        "A self() { return this; } "
        "int f() { return C.s + A.s + c.v + c.k() + C.h() + A.p() + super.v + super.k() "
        "+ this.v + self().v + p() + this.k(); } }",
    )
    body = {m.name: m.resolution for m in model.classes["A"].members}
    assert body["self"].uses_this and not body["self"].sites
    f = body["f"]
    assert not f.uses_this
    assert f.class_refs == {"A", "C"}
    assert f.receiver_types == {"A", "C"}
    assert [(s.kind, s.to_class, s.to_member, s.basis) for s in f.sites.values()] == [
        ("read", "C", "s", "class"),
        ("read", "C", "s", "class"),
        ("read", None, "c", "bare"),
        ("read", "C", "v", "receiver"),
        ("read", None, "c", "bare"),
        ("call", "C", "k()", "receiver"),
        ("call", "C", "h()", "class"),
        ("call", "A", "p()", "class"),
        ("read", "C", "v", "super"),
        ("call", "C", "k()", "super"),
        ("read", "C", "v", "this"),
        ("call", None, "self()", "bare"),
        ("read", "C", "v", "receiver"),
        ("call", None, "p()", "bare"),
        ("call", "C", "k()", "this"),
    ]
