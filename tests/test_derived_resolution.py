"""The flattener derives each flattened class's resolution; it must equal a
full resolution of the flattened declaration.

`resolve_class` on the flattened declaration, in the model with the class
replaced by it, is the reference. Every derived resolution must have the
same multiset of edge keys, the same receiver and `new` types, and an entry
with the same key for every reference node the reference resolves. Where
the reference raises, flattening must raise the same error type and
message.

A pulled body that kept a stale name would still agree with a resolution of
itself, so on the fixtures and generated hierarchies each pulled body's
references to the superclass must also target, in the flattened class, the
members they were renamed to, except a call reported as `rebound-call`,
which targets the member the report names. The bodies of `CHANGING` are
exempt: there a reference means something else once the body sits in the
subclass.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from flatjava import FlatJavaError, emit, flattener
from flatjava.errors import REBOUND_CALL
from flatjava.model import class_info_from_decl
from flatjava.resolver import resolve_class

from conftest import CORPUS, load_model, model_from_sources
from genclasses import random_hierarchy_sources
from hiergen import CONFIGS, build_sources
from whole_view import Whole


def _outcome(fn):
    try:
        return fn(), None
    except FlatJavaError as err:
        return None, (type(err), err.message)


def check_flatten(model, graph, monkeypatch, follows_renames: bool = True) -> int:
    """Flatten, comparing each derived resolution with the reference; returns classes checked."""
    derive = flattener._resolve_changed
    checked = []

    def compared(model, cls, flat, *carried):
        # The view's members are settled before any body is resolved again.
        _, error = _outcome(lambda: derive(model, cls, flat, *carried))
        view = Whole(flat)
        info = class_info_from_decl(view.decl, cls.package, cls.path)
        reference, expected_error = _outcome(
            lambda: resolve_class(model.with_class(info), info)
        )
        assert error == expected_error, cls.name
        checked.append(cls.name)
        if error is not None:
            raise error[0](error[1])
        assert_same_resolution(view.resolution, reference, cls.name)

    monkeypatch.setattr(flattener, "_resolve_changed", compared)
    try:
        flattened = flattener.flatten_model(model, graph)
    except FlatJavaError:
        return len(checked)
    if follows_renames:
        for name, flat in flattened.items():
            superclass = model.classes[name].superclass
            if superclass is not None:
                assert_follows_renames(flat, flattened[superclass])
    return len(checked)


def _resolution_of(view, member):
    """The resolution of `member`, found by its position in the whole `view`."""
    return view.resolution.members[view.members.index(member)]


def assert_follows_renames(flat, fsuper) -> None:
    """Each pulled body's bare, `this.` and static references to fsuper's
    members target, in `flat`, the members those became, or the members
    that a `rebound-call` report of the body names."""
    view, sup = Whole(flat), Whole(fsuper)
    pulled = list(zip(
        [fate for fate in view.fates if fate.pulls], [m for m in view.members if m.pulled]
    ))
    final = {(fate.member.kind, fate.member.signature): m.signature for fate, m in pulled}
    for fate, member in pulled:
        if getattr(member.decl, "init", None) is not getattr(fate.member.decl, "init", None):
            continue  # a folded constructor assignment replaced the initializer
        source = _resolution_of(sup, fate.member).sites.values()
        carried = _resolution_of(view, member).sites.values()
        expected = Counter(
            (e.kind, final[("method" if e.kind == "call" else "attribute", e.to_member)])
            for e in source
            if (e.to_class or fsuper.name) == fsuper.name and e.basis in ("bare", "this", "class")
        )
        actual = Counter(
            (e.kind, e.to_member)
            for e in carried
            if (e.to_class or flat.name) == flat.name and e.basis in ("bare", "this")
        )
        body = f"{member.owner}.{member.declared_signature}"
        for d in flat.diagnostics:
            if d.code != REBOUND_CALL:
                continue
            old, where, new = re.fullmatch(
                r"the call to (\S+) in (\S+) binds to (\S+) in the flattened class", d.message
            ).groups()
            if where == body:
                expected[("call", old)] -= 1
                expected[("call", new)] += 1
        expected += Counter()  # drop the counts that fell to zero
        assert actual == expected, (flat.name, member.signature)


def assert_same_resolution(derived, reference, name) -> None:
    assert Counter(e.key() for e in derived.edges) == Counter(
        e.key() for e in reference.edges
    ), name
    assert derived.receiver_types == reference.receiver_types, name
    assert derived.new_types == reference.new_types, name
    assert derived.sites.keys() == reference.sites.keys(), name
    for node, edge in reference.sites.items():
        assert derived.sites[node].key() == edge.key(), (name, edge)


@pytest.mark.parametrize("name", CORPUS)
def test_derived_resolution_on_fixtures(name, monkeypatch):
    model, graph = load_model(name)
    check_flatten(model, graph, monkeypatch)


@pytest.mark.parametrize("seed", range(60))
def test_derived_resolution_on_generated_hierarchies(seed, monkeypatch):
    sources = random_hierarchy_sources(random.Random(40_000 + seed))
    assert check_flatten(*model_from_sources(*sources), monkeypatch) >= 1


def test_derived_resolution_on_decision_table(monkeypatch):
    for config in CONFIGS:
        assert check_flatten(*model_from_sources(*build_sources(*config)), monkeypatch) == 1


# Bodies whose resolution changes once they sit in the flattened class, each
# of which the flattener must rewrite or resolve again rather than carry over.
CHANGING = {
    "overload_added_ambiguous": (
        "class A { int m(String s) { return 1; } int run() { return m(null); } }",
        "class B extends A { int m(Foo s) { return 2; } }",
    ),
    "overload_added_resolvable": (
        "class A { int m(String s) { return 1; } int run() { return m(\"a\"); } }",
        "class B extends A { int m(int s) { return 2; } }",
    ),
    "private_overload_pulled_into_own_call": (
        "class A { private int m(int s) { return 1; } public int run() { return m(1); } }",
        "class B extends A { int m(String s) { return 2; } int go() { return m(null); } }",
    ),
    "receiver_typed_by_superclass": (
        "class R { public int x; }",
        "class A extends R { int y; int run(A o) { return o.x + o.y; } }",
        "class B extends A { int x; }",
    ),
    "private_through_superclass_receiver": (
        "class A { private int p; public int run(A o) { return o.p; } }",
        "class B extends A { }",
    ),
    "this_as_argument": (
        "class A { int f(A a) { return 1; } int f(B b) { return 2; } int run() { return f(this); } }",
        "class B extends A { }",
    ),
    "this_as_constructor_argument": (
        "class T { T(A a) { } T(B b) { } }",
        "class A { void run() { T t = new T(this); } }",
        "class B extends A { }",
    ),
    "this_as_receiver": (
        "class A { int x; int run() { return (this).x; } }",
        "class B extends A { int x; }",
    ),
    "static_qualifier_of_subclass": (
        "class A { public static int s; int run() { return B.s; } }",
        "class B extends A { }",
    ),
    "static_qualifier_obscured_by_attribute": (
        "class T { static int s; }",
        "class A { int run() { return T.s; } }",
        "class B extends A { int T; }",
    ),
    "own_body_reads_shadowed_ancestor": (
        "class R { public int y = 1; }",
        "class S extends R { private int y = 2; int get() { return y; } }",
        "class C extends S { int run() { return y; } }",
    ),
    "own_body_reads_renamed_ancestor": (
        "class R { public int y = 1; }",
        "class S extends R { private int y = 2; }",
        "class C extends S { int run() { return y; } }",
    ),
    "own_body_calls_renamed_ancestor": (
        "class R { public int m() { return 1; } }",
        "class S extends R { private int m() { return 2; } int k() { return m(); } }",
        "class C extends S { int run() { return m() + this.m(); } }",
    ),
    "own_call_to_private_overload": (
        "class R { public int m(int a) { return 1; } }",
        "class S extends R { private int m(long a) { return 2; } public int k() { return m(1L); } }",
        "class C extends S { int run() { return m(1); } }",
    ),
    "own_static_self_qualifier": (
        "class A { public static int s; }",
        "class B extends A { int run() { return B.s; } }",
    ),
    "super_call_into_overloads": (
        "class A { public int m(int a) { return 1; } }",
        "class B extends A { int m(String s) { return 3; } int run(int a) { return super.m(a); } }",
    ),
}


# Own bodies that read an inherited member which reaches the flattened class
# under another name: the reference follows it there.
REWRITTEN = {
    "own_body_reads_shadowed_ancestor": ("C", "return y$R;", [("y", "y$R", "R")]),
    "own_body_reads_renamed_ancestor": ("C", "return y$R;", [("y", "y$R", "R")]),
    "own_body_calls_renamed_ancestor": (
        "C", "return m$R() + this.m$R();", [("m", "m$R", "R"), ("m", "m$R", "R")],
    ),
}


# The bodies of `CHANGING` whose calls bind to another member in the
# flattened class: (old target, new target) of each, reported as `rebound-call`.
REBOUND = {
    "this_as_argument": [("f(A)", "f(B)")],
    "this_as_constructor_argument": [("T.<init>(A)", "T.<init>(B)")],
}


@pytest.mark.parametrize("name", sorted(CHANGING))
def test_derived_resolution_where_bodies_change(name, monkeypatch):
    model, graph = model_from_sources(*CHANGING[name])
    assert check_flatten(model, graph, monkeypatch, follows_renames=False) >= 1
    flattened, error = _outcome(lambda: flattener.flatten_model(model, graph))
    if error is None:
        rebound = [d.message for flat in flattened.values() for d in flat.diagnostics
                   if d.code == REBOUND_CALL]
        assert rebound == [
            f"the call to {old} in A.run() binds to {new} in the flattened class"
            for old, new in REBOUND.get(name, [])
        ]
    if name in REWRITTEN:
        class_name, line, rewrites = REWRITTEN[name]
        flat = flattener.flatten_model(model, graph)[class_name]
        assert line in emit(flat)
        assert [(r.old, r.new, r.target_owner) for r in flat.rewrites] == rewrites


def shared_resolutions(flat, fsuper) -> int:
    """Check that each pulled member whose body nothing at this level
    changes keeps fsuper's resolution object; returns how many do.

    A body changes when it references a member renamed here or a static
    member qualified by the superclass, or when it is resolved again: it
    uses `this` as a value, has a receiver type or static qualifier, or
    calls a name the flattened class overloads.
    """
    view, sup = Whole(flat), Whole(fsuper)
    renamed = {
        f.member.name if f.member.kind == "attribute" else f.member.signature
        for f in view.fates if f.new_name
    }
    names = Counter(m.name for m in view.members if m.kind == "method")
    pulled = zip([f for f in view.fates if f.pulls], [m for m in view.members if m.pulled])
    shared = 0
    for fate, member in pulled:
        source = _resolution_of(sup, fate.member)
        if getattr(member.decl, "init", None) is not getattr(fate.member.decl, "init", None):
            continue  # a folded constructor assignment replaced the initializer
        if source.uses_this or source.receiver_types or source.class_refs:
            continue
        if any(
            s.to_member in renamed
            or s.kind == "call" and names[s.to_member[:s.to_member.index("(")]] > 1
            for s in source.sites.values()
        ):
            continue
        assert _resolution_of(view, member) is source, (flat.name, member.name)
        shared += 1
    return shared


def check_sharing(model, flattened) -> int:
    return sum(
        shared_resolutions(flat, flattened[model.classes[name].superclass])
        for name, flat in flattened.items()
        if model.classes[name].superclass is not None
    )


@pytest.mark.parametrize("name", CORPUS)
def test_untouched_pulled_members_share_resolution_on_fixtures(name):
    model, graph = load_model(name)
    try:
        flattened = flattener.flatten_model(model, graph)
    except FlatJavaError:
        return
    check_sharing(model, flattened)


def test_untouched_pulled_members_share_resolution_on_a_chain():
    sources = ["class C0 { public int a = 1; public int f() { return a; } public int g() { return a; } }"]
    for i in range(1, 6):
        sources.append(
            f"class C{i} extends C{i - 1} {{ public int g() {{ return {i}; }} "
            f"public int h{i}() {{ return f() + g(); }} }}"
        )
    model, graph = model_from_sources(*sources)
    flattened = flattener.flatten_model(model, graph)
    # f, a and every h below the direct superclass come down unchanged.
    assert check_sharing(model, flattened) >= 5 * 3
