"""Resolver tests: scoping, super/static/receiver resolution, edge sets."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from flatjava import (
    AmbiguousCall,
    UnresolvedName,
    build_model,
    classify_members,
    flattener,
    parse_source,
    resolver,
    tree,
)
from flatjava.parser import MAX_NESTING
from flatjava.resolver import INIT_FIELDS

from conftest import CORPUS, graph_from_sources, load_graph, model_from_sources
from expected_edges import EXPECTED_EDGES
from test_cli import NESTED
from test_flattener import _call_from_depth

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def edges_of(graph, class_name):
    return sorted(e.key() for e in graph.edges_from(class_name))


@pytest.mark.parametrize("name", CORPUS)
def test_edge_sets_match_hand_committed_expectations(name):
    assert name in EXPECTED_EDGES, f"no committed edges for fixture {name}"
    _, graph = load_graph(name)
    for class_name, expected in EXPECTED_EDGES[name].items():
        assert edges_of(graph, class_name) == sorted(expected), class_name


def test_local_shadows_field():
    _, graph = graph_from_sources(
        "class A { public int x; void g() { int x; x = 2; } }"
    )
    assert graph.edges_from("A") == []


def test_param_shadows_field():
    _, graph = graph_from_sources("class A { int x; void g(int x) { x = 2; } }")
    assert graph.edges_from("A") == []


def test_block_scope_ends():
    _, graph = graph_from_sources(
        "class A { int x; void g(boolean c) { if (c) { int x; x = 1; } x = 2; } }"
    )
    keys = [e.key() for e in graph.edges_from("A")]
    assert keys == [("A", "g(boolean)", "write", "A", "x", "bare")]


def test_unresolved_bare_name():
    with pytest.raises(UnresolvedName):
        model_from_sources("class A { void f() { ghost = 1; } }")


def test_unresolved_call():
    with pytest.raises(UnresolvedName):
        model_from_sources("class A { void f() { ghost(); } }")


def test_super_in_root_class_rejected():
    with pytest.raises(UnresolvedName):
        model_from_sources("class A { int x; void f() { super.x = 1; } }")


def test_super_skips_private_members():
    with pytest.raises(UnresolvedName):
        model_from_sources(
            "class A { private int x; }",
            "class B extends A { void f() { super.x = 1; } }",
        )


def test_super_resolves_to_nearest_visible():
    _, graph = graph_from_sources(
        "class C { public int x; }",
        "class A extends C { public int x; }",
        "class B extends A { void f() { super.x = 1; } }",
    )
    keys = [e.key() for e in graph.edges_from("B")]
    assert keys == [("B", "f()", "write", "A", "x", "super")]


def test_inherited_bare_access_nearest_wins():
    _, graph = graph_from_sources(
        "class C { public int x; }",
        "class A extends C { public int x; }",
        "class B extends A { void f() { x = 1; } }",
    )
    keys = [e.key() for e in graph.edges_from("B")]
    assert keys == [("B", "f()", "write", "A", "x", "bare")]


def test_private_receiver_access_rejected_across_classes():
    with pytest.raises(UnresolvedName):
        model_from_sources(
            "class A { private int x; }",
            "class B { void f(A a) { a.x = 1; } }",
        )


def test_private_receiver_access_allowed_same_class():
    _, graph = graph_from_sources("class A { private int x; void f(A other) { other.x = 1; } }")
    keys = [e.key() for e in graph.edges_from("A")]
    assert keys == [("A", "f(A)", "write", "A", "x", "receiver")]


def test_static_access_via_subclass_name_walks_chain():
    _, graph = graph_from_sources(
        "class A { static int count; }",
        "class B extends A { void f() { B.count = 1; } }",
    )
    keys = [e.key() for e in graph.edges_from("B")]
    assert keys == [("B", "f()", "write", "A", "count", "class")]


def test_instance_member_via_class_name_rejected():
    with pytest.raises(UnresolvedName):
        model_from_sources("class A { int x; void f() { A.x = 1; } }")


def test_receiver_chain_typing():
    _, graph = graph_from_sources(
        "class B2 { public int end; }",
        "class A2 { public B2 link; }",
        "class C2 { void m(A2 a) { int k = a.link.end; } }",
    )
    keys = sorted(e.key() for e in graph.edges_from("C2"))
    assert keys == [
        ("C2", "m(A2)", "read", "A2", "link", "receiver"),
        ("C2", "m(A2)", "read", "B2", "end", "receiver"),
    ]


def test_external_receiver_type_is_silent():
    _, graph = graph_from_sources('class A { void f(String s) { s.length(); } }')
    assert graph.edges_from("A") == []


def test_overload_picked_by_exact_type():
    _, graph = graph_from_sources(
        "class A { void f(int a) { } void f(String s) { } void g() { f(1); f(\"x\"); } }"
    )
    calls = sorted(e.to_member for e in graph.edges_from("A") if e.kind == "call")
    assert calls == ["f(String)", "f(int)"]


def test_null_matches_reference_overload():
    _, graph = graph_from_sources(
        "class A { void f(int a) { } void f(String s) { } void g() { f(null); } }"
    )
    calls = [e.to_member for e in graph.edges_from("A") if e.kind == "call"]
    assert calls == ["f(String)"]


def test_known_name_wrong_arity_is_ambiguous_not_unresolved():
    with pytest.raises(AmbiguousCall):
        model_from_sources("class A { void f(int a) { } void g() { f(); } }")


def test_ambiguous_call_with_unknown_arg_type():
    with pytest.raises(AmbiguousCall):
        model_from_sources(
            "class A { void f(int a) { } void f(boolean b) { }"
            " void g(String s) { f(s.size()); } }"
        )


def test_overload_across_chain_merges_candidates():
    _, graph = graph_from_sources(
        "class A { void f(String s) { } }",
        "class B extends A { void f(int a) { } void g() { f(\"x\"); } }",
    )
    calls = [e.key() for e in graph.edges_from("B") if e.kind == "call"]
    assert calls == [("B", "g()", "call", "A", "f(String)", "bare")]


def test_new_with_declared_ctor_produces_call_edge():
    _, graph = graph_from_sources(
        "class A { A(int v) { } }",
        "class B { void f() { A a = new A(3); } }",
    )
    keys = [e.key() for e in graph.edges_from("B")]
    assert keys == [("B", "f()", "call", "A", "<init>(int)", "receiver")]


def test_new_arity_mismatch_rejected():
    with pytest.raises(UnresolvedName):
        model_from_sources("class A { }", "class B { void f() { A a = new A(1); } }")


def test_new_overload_ranked_by_exact_type():
    _, graph = graph_from_sources(
        "class A { A(int v) { } A(String s) { } }",
        "class B { void f() { A a = new A(\"x\"); } }",
    )
    keys = [e.key() for e in graph.edges_from("B")]
    assert keys == [("B", "f()", "call", "A", "<init>(String)", "receiver")]


def test_new_ambiguous_with_unknown_arg():
    with pytest.raises(AmbiguousCall):
        model_from_sources(
            "class A { A(int v) { } A(boolean b) { } }",
            "class B { void f(String s) { A a = new A(s.thing()); } }",
        )


def test_new_external_type_allowed():
    model, graph = graph_from_sources("class B { void f() { Object o = new Object(); } }")
    assert graph.edges_from("B") == []
    assert "Object" in model.classes["B"].members[0].resolution.new_types


def test_field_initializers_attributed_to_pseudo_method():
    _, graph = graph_from_sources("class A { private int x = 3; public int y = x + 1; }")
    (edge,) = graph.edges_from("A")
    assert edge.from_member == INIT_FIELDS
    assert edge.initializer_of == "y"
    assert edge.key() == ("A", INIT_FIELDS, "read", "A", "x", "bare")


def test_this_in_field_initializer():
    _, graph = graph_from_sources("class A { int x; int y = this.x; }")
    (edge,) = graph.edges_from("A")
    assert edge.key() == ("A", INIT_FIELDS, "read", "A", "x", "this")


def test_access_graph_query_helpers():
    _, graph = graph_from_sources(
        "class A { int x; void f() { x = 1; } void g() { x = 2; } }"
    )
    writes = [e for e in graph.edges_from("A") if e.kind == "write" and e.to_member == "x"]
    assert {e.from_member for e in writes} == {"f()", "g()"}
    assert [e.kind for e in graph.edges_from("A") if e.from_member == "f()"] == ["write"]
    assert len(graph.edges) == 2


def test_lex_error_through_parse_source_carries_path():
    from flatjava import LexError, parse_source

    with pytest.raises(LexError) as excinfo:
        parse_source("class A { /* never closed", "Broken.java")
    assert excinfo.value.path == "Broken.java"


def test_edge_spans_slice_the_accessed_name():
    from conftest import fixture_sources
    from flatjava import build_model, classify_members, compute_access_graph, parse_source

    sources = fixture_sources("deep_mixed")
    units = [parse_source(text, name) for name, text in sources.items()]
    model = classify_members(build_model(units))
    graph = compute_access_graph(model)
    for edge in graph.edges:
        text = sources[edge.from_class]
        sliced = edge.span.slice(text)
        expected_name = edge.to_member.split("(")[0].replace("<init>", edge.to_class)
        assert sliced == expected_name, (edge.key(), sliced)


def test_edges_resolve_to_existing_members_on_corpus():
    for name in CORPUS:
        model, graph = load_graph(name)
        for edge in graph.edges:
            target = model.classes[edge.to_class]
            assert (
                edge.to_member in target.attributes
                or edge.to_member in target.methods
                or any(c.signature == edge.to_member for c in target.ctors)
            )


def _count_copies(monkeypatch) -> Counter:
    """Count, by name, the calls to `tree`'s copying helpers made while a
    class or a member is resolved, and under "resolves" the resolutions."""
    counts, resolving = Counter(), []

    def copying(name, helper):
        def counted(*args, **kwargs):
            counts[name] += bool(resolving)
            return helper(*args, **kwargs)
        return counted

    def entry(resolve):
        def resolved(*args):
            counts["resolves"] += 1
            resolving.append(resolve)
            try:
                return resolve(*args)
            finally:
                resolving.pop()
        return resolved

    for name in ("rebuilt", "mapped", "replace", "map_children"):
        monkeypatch.setattr(tree, name, copying(name, getattr(tree, name)))
    for module in (resolver, flattener):
        for name in ("resolve_class", "resolve_member"):
            monkeypatch.setattr(module, name, entry(getattr(module, name)))
    return counts


def _assert_resolving_copies_nothing(monkeypatch, resolve) -> None:
    counts = _count_copies(monkeypatch)
    flattener.flatten_model(resolve())
    assert counts.pop("resolves") > 0
    assert +counts == Counter()


# `overload_rebound` and `based_views` resolve members again in a flattened
# class (`flattener._resolve_changed`), through `resolve_member`.
@pytest.mark.parametrize("name", CORPUS)
def test_resolving_copies_nothing_on_fixtures(name, monkeypatch):
    _assert_resolving_copies_nothing(monkeypatch, lambda: load_graph(name)[0])


def test_resolving_copies_nothing_on_a_wide_fan(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import workloads

    sources = workloads.build("wide_fan", 11).sources.values()
    _assert_resolving_copies_nothing(monkeypatch, lambda: model_from_sources(*sources))


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_resolving_at_the_nesting_limit_from_deep_in_the_stack(shape):
    # The resolver spends at most 3 frames per level of nesting, so the
    # deepest body the parser accepts resolves under Python's default
    # recursion limit with 400 frames of callers.
    sources = {"A.java": NESTED[shape][1](MAX_NESTING), "B.java": "class B extends A { }"}
    model = classify_members(build_model([parse_source(t, p) for p, t in sources.items()]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        graph = _call_from_depth(400, lambda: resolver.compute_access_graph(model))
    finally:
        sys.setrecursionlimit(limit)
    assert graph.edges == resolver.compute_access_graph(model).edges
