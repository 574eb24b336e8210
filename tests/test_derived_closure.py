"""Oracle tests for the linear classification, the carried closure and the carried fates.

`classify_members` finds illegal overrides through an index of same-named
ancestors and builds the override pairings only when they are read;
`pulled_closure` starts from the part of the fixed point that the
superclass's view carries down; and a member the superclass's view pulled
keeps the fate that view carries down unless the subclass touches it; and a
body is walked only when a reference in it changes, and then only along the
paths to those references. All must agree exactly with the from-scratch
versions in `from_scratch.py`: the same pairings in the same order with the
same members, the same diagnostics, the same pulled and accessed sets for
every class, the same fates, the same members and the same plan, and for
each own or pulled body the same node (the very same object where it is
unchanged), the same carried sites at the same places in it, and the same
rewrites in the same order.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

from flatjava import (
    FlatJavaError,
    build_model,
    compute_access_graph,
    emit,
    flattener,
    parse_source,
    tree,
)
from flatjava.errors import ILLEGAL_OVERRIDE_FINAL, ILLEGAL_OVERRIDE_STATIC
from flatjava.model import classify_members
from flatjava.report import plan_json

from conftest import CORPUS, load_units
from from_scratch import (
    by_position,
    classify,
    flatten_against_super,
    pulled_closure,
    rewrite_body,
)
from genclasses import random_hierarchy_sources, random_overloading_hierarchy
from hiergen import CONFIGS, build_sources

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def _outcome(fn):
    try:
        return fn(), None
    except FlatJavaError as err:
        return None, (type(err), err.message)


def _view(flat) -> tuple:
    """What a flattened class is: its fates, members, text and diagnostics."""
    return (
        [(f.member.kind, f.member.signature, f.decision, f.rule, f.new_name) for f in flat.fates],
        [(m.kind, m.name, m.signature, m.declared_signature, m.owner, m.visibility, m.pulled)
         for m in flat.members],
        emit(flat),
        flat.diagnostics,
    )


def _directive(r) -> tuple:
    return r.span, r.old, r.new, r.target_owner


def check(units, monkeypatch) -> list:
    """Classify and flatten `units` against the references; returns the
    flattened views whose closure was derived from a carried part."""
    model = build_model(units)
    overrides, diagnostics = classify(model)
    classify_members(model)
    assert [(id(r.sub), id(r.sup), r.kind, r.legality) for r in model.overrides] == [
        (id(r.sub), id(r.sup), r.kind, r.legality) for r in overrides
    ]
    assert model.overrides is model.overrides  # built once, on first read
    assert model.diagnostics == diagnostics

    graph = compute_access_graph(model)
    derive = flattener.pulled_closure
    carried = []

    def compared(fsuper):
        closure = derive(fsuper)
        assert closure == pulled_closure(fsuper), fsuper.name
        if fsuper.carried is not None:
            carried.append(fsuper)
        return closure

    monkeypatch.setattr(flattener, "pulled_closure", compared)
    rewrite = flattener._Carrier.rewrite

    def walked_too(rewriter, decl, sites):
        first = len(rewriter.rewrites)
        out, carried = rewrite(rewriter, decl, sites)
        walked, walked_carried, walked_rewrites = rewrite_body(rewriter, decl, sites)
        assert (out is decl) == (walked is decl) and out == walked
        assert by_position(out, carried) == by_position(walked, walked_carried)
        assert [_directive(r) for r in rewriter.rewrites[first:]] == list(
            map(_directive, walked_rewrites))
        return out, carried

    monkeypatch.setattr(flattener._Carrier, "rewrite", walked_too)
    flattened, error = _outcome(lambda: flattener.flatten_model(model, graph))
    monkeypatch.setattr(flattener, "_flatten_against_super", flatten_against_super)
    reference, reference_error = _outcome(lambda: flattener.flatten_model(model, graph))
    assert error == reference_error
    if error is None:
        for name, flat in flattened.items():
            assert _view(flat) == _view(reference[name]), name
        assert plan_json(flattened) == plan_json(reference)
    return carried


def _units(*sources: str):
    return [parse_source(src, f"<mem{i}>") for i, src in enumerate(sources)]


@pytest.mark.parametrize("name", CORPUS)
def test_closure_and_classification_on_fixtures(name, monkeypatch):
    check(load_units(name), monkeypatch)


@pytest.mark.parametrize("seed", range(100))
def test_closure_and_classification_on_generated_hierarchies(seed, monkeypatch):
    sources = random_hierarchy_sources(random.Random(70_000 + seed), depth=3)
    # H2's fixed point starts from what H1's view carries down.
    assert [flat.name for flat in check(_units(*sources), monkeypatch)] == ["H1"]


FORESTS = range(200)


@pytest.mark.parametrize("seed", FORESTS)
def test_closure_and_classification_on_overloading_forests(seed, monkeypatch):
    check(_units(*random_overloading_hierarchy(random.Random(seed))), monkeypatch)


def test_overloading_forests_pair_illegally_across_levels():
    # (code, whether the superclass member is above the direct superclass)
    pairings = Counter()
    for seed in FORESTS:
        model = build_model(_units(*random_overloading_hierarchy(random.Random(seed))))
        classify_members(model)
        illegal = [r for r in model.overrides if not r.legal]
        assert [d.code for d in model.diagnostics] == [
            ILLEGAL_OVERRIDE_FINAL if r.legality == "illegal-final" else ILLEGAL_OVERRIDE_STATIC
            for r in illegal
        ]
        pairings.update(
            (r.legality, r.sup.owner != model.classes[r.sub.owner].superclass) for r in illegal
        )
    for legality in ("illegal-final", "illegal-static-mismatch"):
        assert pairings[legality, False] >= 20 and pairings[legality, True] >= 5, pairings


def test_closure_and_classification_on_decision_table(monkeypatch):
    for config in CONFIGS:
        check(_units(*build_sources(*config)), monkeypatch)


def test_a_chain_carries_renamed_members(monkeypatch):
    sources = ["class C0 { private int a = 1; public int v = 0; public int f() { return a + v; } }"]
    for i in range(1, 6):
        sources.append(
            f"class C{i} extends C{i - 1} {{ private int a = 1; public int v = {i}; "
            f"public int f() {{ return a + v + super.f(); }} }}"
        )
    carried = check(_units(*sources), monkeypatch)
    # Every view below C0 carries the part that its superclass's view pulled.
    assert [flat.name for flat in carried] == ["C1", "C2", "C3", "C4"]
    assert ("attribute", "a$C0") in {(m.kind, m.signature) for m in carried[-1].members if m.pulled}
    assert "a$C0" in carried[-1].carried


def test_carried_renames_chain_down(monkeypatch):
    # C renames A's x, which B carries down, to x$A$1: Z's x$A, which B
    # carries too, keeps its name. D declares x$A: it must meet Z's member
    # under the name C's view carries for it.
    sources = [
        "class Z { public int x$A = 1; int z() { return x$A; } }",
        "class A extends Z { public int x = 2; }",
        "class B extends A { }",
        "class C extends B { public int x = 3; }",
        "class D extends C { public int x$A = 4; }",
    ]
    assert [flat.name for flat in check(_units(*sources), monkeypatch)] == ["A", "B", "C"]
    model = classify_members(build_model(_units(*sources)))
    flattened = flattener.flatten_model(model, compute_access_graph(model))
    assert [m.name for m in flattened["C"].members] == ["x", "x$A$1", "x$A", "z"]
    assert [m.name for m in flattened["D"].members] == ["x$A", "x", "x$A$1", "x$A$Z", "z"]


def test_folded_constructor_replaces_a_carried_initializer(monkeypatch):
    # P carries G's a down to C, and C folds P's constructor into a's initializer.
    sources = [
        "class G { public int a = 0; public int g() { return a; } }",
        "class P extends G { P() { a = 1; } }",
        "class C extends P { }",
    ]
    assert [flat.name for flat in check(_units(*sources), monkeypatch)] == ["P"]
    model = classify_members(build_model(_units(*sources)))
    flat = flattener.flatten_model(model, compute_access_graph(model))["C"]
    assert "public int a = 1;" in emit(flat)


# Views whose pulled bodies reach other members than they reached in the
# superclass's view: they carry nothing, and the next class walks the view.
NOT_CARRIED = {
    # The folded constructor replaces `a`'s initializer, the only reader of h.
    "folded_initializer": (
        "class G { public int a = h; private int h = 2; G() { a = 1; } }",
        "class P extends G { }",
        "class C extends P { }",
    ),
    # run() is resolved again in P, where m(1) now calls P's m(int).
    "call_resolved_again": (
        "class G { private int m(long a) { return 2; } public int run() { return m(1); } }",
        "class P extends G { int m(int a) { return 1; } }",
        "class C extends P { }",
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_CARRIED))
def test_views_whose_pulled_bodies_change_carry_nothing(name, monkeypatch):
    units = _units(*NOT_CARRIED[name])
    assert check(units, monkeypatch) == []
    model = classify_members(build_model(units))
    flat = flattener.flatten_model(model, compute_access_graph(model))["P"]
    assert flat.carried is None
    # A carried part would be wrong: C does not pull all that P pulled.
    pulled_into_p = {(m.kind, m.signature) for m in flat.members if m.pulled}
    assert not pulled_into_p <= pulled_closure(flat)[0]


def test_rule_table_work_grows_linearly_with_depth(monkeypatch):
    # On a chain, a member pulled unchanged keeps its fate all the way down:
    # the rule table decides each superclass's own members, and the members
    # it carries down only at a level that touches one of them.
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import workloads

    decided = []
    for rule_table in ("_method_fate", "_attribute_fate"):
        decide = getattr(flattener, rule_table)
        monkeypatch.setattr(flattener, rule_table,
                            lambda *args, decide=decide: decided.append(args[1]) or decide(*args))
    counts = []
    for depth in (10, 40):
        decided.clear()
        workload = workloads.deep_chain(depth)
        model = classify_members(build_model(_units(*workload.sources.values())))
        flattener.flatten_model(model, compute_access_graph(model))
        counts.append(len(decided))
    # 6,240 inherited slots against 360 when every slot is decided: 17.3.
    assert counts[1] <= 5 * counts[0], counts


def _record_descents(monkeypatch, descended: list) -> None:
    """Append (rewriter, node) for each statement and expression node that a
    body rewrite descends into."""
    walk_stmt = tree.BodyWalker.stmt

    def stmt(walker, node):
        if isinstance(walker, flattener._Carrier):
            descended.append((walker, node))
        return walk_stmt(walker, node)

    map_children = tree.map_children
    monkeypatch.setattr(tree.BodyWalker, "stmt", stmt)
    monkeypatch.setattr(tree, "map_children",
                        lambda e, fn: descended.append((fn.__self__, e)) or map_children(e, fn))
    for rewriter in (flattener._SubBodyRewriter, flattener._PulledBodyRewriter):
        reference = rewriter.reference
        monkeypatch.setattr(rewriter, "reference", lambda self, e, site, reference=reference:
                            descended.append((self, e)) or reference(self, e, site))


def test_rewrite_descends_only_along_paths_to_changed_references(monkeypatch):
    # B renames A's a, so f's references to it change, and g's super.f()
    # collapses. Written without spaces, `int x=1;` ends where `a=2;` starts.
    sources = {
        flattener._PulledBodyRewriter:
            "class A { public int a = 1; int f() { int x=1;a=2;if(x>0){x=a;}return x; } }",
        flattener._SubBodyRewriter:
            "class B extends A { public int a = 3; int g() { int y=1;super.f();return y; } }",
    }
    model = classify_members(build_model(_units(*sources.values())))
    graph = compute_access_graph(model)
    descended = []
    _record_descents(monkeypatch, descended)
    flat = flattener.flatten_model(model, graph)["B"]
    assert [sources[type(w)][n.span.start:n.span.end] for w, n in descended] == [
        "super.f();", "super.f()", "a=2;", "a", "if(x>0){x=a;}", "x=a;", "a",
    ]
    assert "int f() {\n        int x = 1;\n        a$A = 2;" in emit(flat)


def _expressions(node) -> int:
    """The expression nodes in a member."""
    count = 0
    todo = [node]
    while todo:
        item = todo.pop()
        if isinstance(item, tree.Node):
            count += isinstance(item, tree.Expr)
            todo.extend(getattr(item, name) for name in item.__match_args__)
        elif isinstance(item, list):
            todo.extend(item)
    return count


def test_rewrites_descend_into_few_expressions_of_the_bodies_they_change(monkeypatch):
    # A wide fan's statement-heavy bodies each change in a few references
    # to a renamed member or through `super.`: the walk follows the paths
    # to those and leaves the rest of each body as it is.
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import workloads

    model = classify_members(build_model(_units(*workloads.wide_fan(11).sources.values())))
    graph = compute_access_graph(model)
    descended, counts = [], []
    _record_descents(monkeypatch, descended)
    rewrite = flattener._Carrier.rewrite

    def counted(rewriter, decl, sites):
        first = len(descended)
        out, carried = rewrite(rewriter, decl, sites)
        if out is not decl:
            walked = {id(n) for _, n in descended[first:] if isinstance(n, tree.Expr)}
            counts.append((len(walked), _expressions(decl)))
        return out, carried

    monkeypatch.setattr(flattener._Carrier, "rewrite", counted)
    flattener.flatten_model(model, graph)
    walked, expressions = map(sum, zip(*counts))
    # 71 bodies change; the walk descends into 1,175 of their 10,894
    # expression nodes, where a walk of every node takes 10,681.
    assert len(counts) >= 40
    assert walked * 4 <= expressions, (walked, expressions)
