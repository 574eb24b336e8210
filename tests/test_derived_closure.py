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
rewrites in the same order. A view that ends with its superclass view's
pulled part (`base`) reuses that view's text, plan entries and metrics of
the part; on chains where a middle level breaks that reuse, every view's
text, plan and metrics must still agree with the from-scratch ones. A view
keeps only what it built, and looks fsuper's pulled part up in an index kept
down the chain: a level that adds a name changing a body of that part must
resolve the body again as from scratch, and `compare`'s rule counts, kept
per level, must equal the rules of the from-scratch fates.
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
    emitter,
    flattener,
    metrics,
    parse_source,
    report,
    resolver,
    tree,
)
from flatjava.errors import ILLEGAL_OVERRIDE_FINAL, ILLEGAL_OVERRIDE_STATIC, REBOUND_CALL
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
from test_metrics import _check_parts
from whole_view import Whole

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def _outcome(fn):
    try:
        return fn(), None
    except FlatJavaError as err:
        return None, (type(err), err.message)


def _view(flat) -> tuple:
    """What a flattened class is: its fates, members, text and diagnostics."""
    view = Whole(flat)
    return (
        [(f.member.kind, f.member.signature, f.decision, f.rule, f.new_name) for f in view.fates],
        [(m.kind, m.name, m.signature, m.declared_signature, m.owner, m.visibility, m.pulled)
         for m in view.members],
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
        closure = pulled, accessed = derive(fsuper)
        # Where fsuper carries its pulled part down, that part is the rest of
        # the fixed point: its members and the attributes their bodies access.
        view = Whole(fsuper)
        fixed_point = pulled | view.repulled.keys(), accessed | (view.carried or set())
        assert fixed_point == pulled_closure(fsuper), fsuper.name
        if view.carried is not None:
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
    last = Whole(carried[-1])
    assert ("attribute", "a$C0") in {(m.kind, m.signature) for m in last.members if m.pulled}
    assert "a$C0" in last.carried


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
    assert [m.name for m in Whole(flattened["C"]).members] == ["x", "x$A$1", "x$A", "z"]
    assert [m.name for m in Whole(flattened["D"]).members] == ["x$A", "x", "x$A$1", "x$A$Z", "z"]


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
    assert Whole(flat).carried is None
    # A carried part would be wrong: C does not pull all that P pulled.
    pulled_into_p = {(m.kind, m.signature) for m in Whole(flat).members if m.pulled}
    assert not pulled_into_p <= pulled_closure(flat)[0]


def _assert_work_grows_linearly(monkeypatch, work: Counter, run) -> list[dict]:
    """Count `work` while `run(model, graph)` runs on `deep_chain(10)` and on
    `deep_chain(40)`; each count may grow at most 5x. Returns the counts.

    A chain's views hold 16 times as many inherited slots at depth 40 as at
    depth 10, so work done per slot grows about 16x, and work per member a
    level adds 4x.
    """
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import workloads

    counts = []
    for depth in (10, 40):
        work.clear()
        model = classify_members(build_model(_units(*workloads.deep_chain(depth).sources.values())))
        run(model, compute_access_graph(model))
        counts.append(dict(work))
    assert counts[0].keys() == counts[1].keys(), counts
    for key, count in counts[1].items():
        assert count <= 5 * counts[0][key], (key, counts)
    return counts


def test_rule_table_work_grows_linearly_with_depth(monkeypatch):
    # On a chain, a member pulled unchanged keeps its fate all the way down:
    # the rule table decides each superclass's own members, and the members
    # it carries down only at a level that touches one of them.
    work = Counter()
    for rule_table in ("_method_fate", "_attribute_fate"):
        decide = getattr(flattener, rule_table)
        monkeypatch.setattr(flattener, rule_table, lambda *args, decide=decide:
                            work.update(["decided"]) or decide(*args))
    # 6,240 inherited slots against 360 when every slot is decided: 17.3.
    _assert_work_grows_linearly(monkeypatch, work, flattener.flatten_model)


def test_emit_plan_and_metrics_work_grows_linearly_with_depth(monkeypatch):
    # Each view lays out the text, the plan entries and the measures of what
    # it pulled at its level once, and reuses its base's for the rest.
    work = Counter()
    chunk, entries, uses = emitter._chunk, report._entries, metrics._uses

    def lines(*args):
        text = chunk(*args)
        work["member lines"] += text.count("\n")
        return text

    def fate_entries(fates):
        fates = list(fates)
        work["fate entries"] += len(fates)
        return entries(fates)

    def run(model, graph):
        flattened = flattener.flatten_model(model, graph)
        for flat in flattened.values():
            emit(flat)
            emit(flat, provenance=True)
        plan_json(flattened)
        metrics.compare(model, graph, flattened)

    monkeypatch.setattr(emitter, "_chunk", lines)
    monkeypatch.setattr(report, "_entries", fate_entries)
    monkeypatch.setattr(metrics, "_uses", lambda *a: work.update(["uses"]) or uses(*a))
    # 4.2x, 4.5x and 4.1x; laid out for every member of every view, each
    # would grow about 15x.
    _assert_work_grows_linearly(monkeypatch, work, run)


def _root_calling_chain(depth: int) -> list[str]:
    """A chain whose every own body calls the root's method and its parent's own."""
    sources = ["class C0 { public int m() { return 0; } public int f0() { return 1; } }"]
    for i in range(1, depth):
        sources.append(f"class C{i} extends C{i - 1} {{ public int f{i}() "
                       f"{{ return m() + f{i - 1}(); }} }}")
    return sources


def test_own_references_find_fates_without_walking_the_carried_part(monkeypatch):
    # A reference from an own body finds the fate of the member it reaches
    # by where that member was declared: the fates fsuper carries down in its
    # part index, its own by a walk of fsuper's own members. Walking the
    # carried part in member order, as far as the root's method, consumes 46
    # fates at depth 10 and 781 at depth 40; the index takes 10 and 40.
    consumed = Counter()
    own_move = flattener._own_move

    def counted(cls, fates, *rest):
        def each():
            for fate in fates:
                consumed["fates"] += 1
                yield fate
        return own_move(cls, each(), *rest)

    monkeypatch.setattr(flattener, "_own_move", counted)
    counts = []
    for depth in (10, 40):
        consumed.clear()
        model = classify_members(build_model(_units(*_root_calling_chain(depth))))
        flattener.flatten_model(model, compute_access_graph(model))
        counts.append(consumed["fates"])
    assert 0 < counts[1] <= 5 * counts[0], counts


def test_each_level_tests_names_and_rules_it_adds(monkeypatch):
    # A level tests the resolutions of what it built, reserves the names of
    # what it names, starts its fixed point from the superclass's own
    # members, and `compare` counts the rules of the fates it decided: the
    # superclass view's pulled part is looked up in an index kept down the
    # chain, and its rules are counted once per level.
    work = Counter()
    closure, resolve_changed, rules = (
        flattener.pulled_closure, flattener._resolve_changed, metrics._rules)

    class Reserved(flattener._Reserved):
        def __init__(self, *args):
            super().__init__(*args)
            work["reserved names"] += len(self)

        def add(self, name):
            work["reserved names"] += not set.__contains__(self, name)
            super().add(name)

    def tested(model, cls, flat, *rest):
        resolve_changed(model, cls, flat, *rest)
        work["resolutions tested"] += len(flat.head_resolutions)

    def counted(fates, counted):
        work["rules counted"] += len(fates)
        return rules(fates, counted)

    monkeypatch.setattr(flattener, "_Reserved", Reserved)
    monkeypatch.setattr(flattener, "_resolve_changed", tested)
    monkeypatch.setattr(flattener, "pulled_closure", lambda fsuper: work.update(
        ["closure keys"] * len(closure(fsuper)[0])) or closure(fsuper))
    monkeypatch.setattr(metrics, "_rules", counted)
    # 72 -> 312 closure keys, 144 -> 624 reserved names and resolutions
    # tested, 136 -> 616 rules counted: 4.3x to 4.5x. Counted per slot, the
    # closure keys and the rules grow 17.3x (360 -> 6,240), and the names and
    # the resolutions 15.2x (432 -> 6,552).
    _assert_work_grows_linearly(monkeypatch, work, lambda model, graph: metrics.compare(
        model, graph, flattener.flatten_model(model, graph)))


# Chains where a middle level cannot end with its superclass view's pulled
# part as it is, and the names of the views that do.
REUSE_BREAKS = {
    # D redeclares A's f, which C's pulled part carries.
    "redeclared_carried_signature": ((
        "class A { public int a = 1; public int f() { return a; } }",
        "class B extends A { public int b = 2; public int g() { return b; } }",
        "class C extends B { public int c = 3; }",
        "class D extends C { public int f() { return 4; } }",
        "class E extends D { public int e = 5; }",
    ), ["C", "E"]),
    # Q folds P's constructor into the initializer of G's a.
    "folded_constructor": ((
        "class G { public int a = 0; public int g() { return a; } }",
        "class H extends G { public int h = 1; }",
        "class P extends H { P() { a = 1; } }",
        "class Q extends P { public int q = 2; }",
        "class R extends Q { }",
    ), ["P"]),
    # P carries nothing, so C walks P's view, and D reuses C's pulled part.
    **{name: ((*sources, "class D extends C { public int d = 4; }"), ["D"])
       for name, sources in NOT_CARRIED.items()},
    # D's m(int) overloads A's m(long), so A's run(), in C's pulled part, is
    # resolved again in D.
    "tail_resolved_again": ((
        "class A { public int m(long x) { return 1; } public int run() { return m(1); } }",
        "class B extends A { public int b = 0; }",
        "class C extends B { public int c = 0; }",
        "class D extends C { public int m(int x) { return 2; } }",
        "class E extends D { }",
    ), ["C"]),
}


@pytest.mark.parametrize("name", sorted(REUSE_BREAKS))
def test_reuse_breaks_where_the_pulled_part_changes(name, monkeypatch):
    sources, reusing = REUSE_BREAKS[name]
    model = classify_members(build_model(_units(*sources)))
    flattened = flattener.flatten_model(model, compute_access_graph(model))
    assert [n for n, flat in flattened.items() if flat.base] == reusing
    for flat in flattened.values():
        if flat.base:
            assert Whole(flat).members[flat.fresh:] == Whole(flat.base).members[flat.base.own:]
    check(_units(*sources), monkeypatch)
    _check_parts(list(sources))


DEEP_SEEDS = range(40)


@pytest.mark.parametrize("seed", DEEP_SEEDS)
def test_reuse_on_generated_deep_chains(seed, monkeypatch):
    sources = random_hierarchy_sources(random.Random(60_000 + seed), depth=4 + seed % 2)
    check(_units(*sources), monkeypatch)
    _check_parts(sources)


def test_generated_deep_chains_reuse_a_part_twice():
    # A view whose base has a base reuses that base's pulled part twice.
    twice = 0
    for seed in DEEP_SEEDS:
        sources = random_hierarchy_sources(random.Random(60_000 + seed), depth=4 + seed % 2)
        model = classify_members(build_model(_units(*sources)))
        flattened = flattener.flatten_model(model, compute_access_graph(model))
        twice += any(flat.base and flat.base.base for flat in flattened.values())
    assert twice >= 30, twice


def _tail_chain(kind: str, level: int) -> list[str]:
    """A chain L1 <- ... <- L5 whose class at `level` changes how a body of
    L1, in the pulled part it inherits, resolves: it adds an overload of
    the method the body calls, or an attribute named like the class the
    body qualifies statically."""
    added = {"overload": "public int m(int x) { return 2; }", "attribute": "public R T;"}[kind]
    sources = [
        "class R { public int s = 2; }",
        "class T { public static int s = 1; }",
        "class L1 { public int m(long x) { return 1; } public int run() { return m(1) + T.s; } }",
    ]
    for i in range(2, 6):
        member = added if i == level else f"public int f{i} = {i};"
        sources.append(f"class L{i} extends L{i - 1} {{ {member} }}")
    return sources


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize("kind", ["overload", "attribute"])
def test_a_level_that_changes_a_tail_body_resolves_it_again(kind, level, monkeypatch):
    # L1's run() comes to each view from L3 down in its base's pulled part,
    # which was tested one level up; the level that adds a name it reads
    # anew must take the part and resolve run() again, as from scratch.
    sources = _tail_chain(kind, level)
    model = classify_members(build_model(_units(*sources)))
    flattened = flattener.flatten_model(model, compute_access_graph(model))
    # The view below it walks its superclass's whole view, and the one below
    # that reuses its part again, unless run() still calls an overloaded name.
    assert [n for n, flat in flattened.items() if flat.base] == [
        f"L{i}" for i in range(3, 6) if i < level or i == level + 2 and kind == "attribute"]
    rebound = [d.message for d in flattened[f"L{level}"].diagnostics if d.code == REBOUND_CALL]
    assert rebound == ["the call to m(long) in L1.run() binds to m(int) in the flattened class"
                       ] * (kind == "overload")
    run = Whole(flattened[f"L{level}"]).resolution.members[-1]
    assert (run.receiver_types == {"R"}) == (kind == "attribute")
    for end in range(4, len(sources) + 1):
        check(_units(*sources[:end]), monkeypatch)
        _check_parts(sources[:end])


def test_a_body_pulled_from_a_root_keeps_its_resolution(monkeypatch):
    # f(A o) reads o.x through a receiver of its own class. Below the root
    # A, whose view is A as written, its sites hold until a class at or
    # below the receiver's type is flattened, which never happens here: it
    # is resolved once, with A, and every view below B keeps a base.
    fixture = Path(__file__).resolve().parent / "fixtures" / "receiver_own_class"
    sources = [(fixture / f"{name}.java").read_text(encoding="utf-8") for name in "AB"]
    sources += ["class C extends B { public int c = 3; }",
                "class D extends C { public int d = 4; }"]
    resolved = Counter()
    resolve = resolver._Walker.resolve
    monkeypatch.setattr(resolver._Walker, "resolve", lambda walker, member, path: resolved.update(
        [f"{member.owner}.{member.declared_signature}"]) or resolve(walker, member, path))
    model = classify_members(build_model(_units(*sources)))
    flattened = flattener.flatten_model(model, compute_access_graph(model))
    assert resolved["A.f(A)"] == 1
    assert [n for n, flat in flattened.items() if flat.base] == ["C", "D"]
    f = Whole(flattened["A"]).resolution.members[2]
    views = [Whole(flat) for flat in flattened.values()]
    assert all(view.resolution.members[view.members.index(member)] is f
               for view in views for member in view.members if member.name == "f")
    check(_units(*sources), monkeypatch)
    _check_parts(sources)


def _rules_match_from_scratch(units, monkeypatch) -> None:
    """`compare`'s rule counts for every view equal the rules of the fates
    that a flattening deciding every member from scratch gives."""
    model = classify_members(build_model(units))
    graph = compute_access_graph(model)
    flattened, error = _outcome(lambda: flattener.flatten_model(model, graph))
    if error is not None:
        return
    rows = metrics.compare(model, graph, flattened)
    with monkeypatch.context() as patched:
        patched.setattr(flattener, "_flatten_against_super", flatten_against_super)
        reference = flattener.flatten_model(model, graph)
    assert {row.class_name: row.rule_counts for row in rows} == {
        name: Counter(f.rule for f in Whole(reference[name]).fates)
        for name in model.order if not model.classes[name].synthetic
    }


@pytest.mark.parametrize("name", CORPUS)
def test_rule_counts_on_fixtures(name, monkeypatch):
    _rules_match_from_scratch(load_units(name), monkeypatch)


def test_rule_counts_on_chains(monkeypatch):
    for seed in DEEP_SEEDS:
        sources = random_hierarchy_sources(random.Random(60_000 + seed), depth=4 + seed % 2)
        _rules_match_from_scratch(_units(*sources), monkeypatch)
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import workloads

    _rules_match_from_scratch(_units(*workloads.deep_chain(12).sources.values()), monkeypatch)


# Two views end with the pulled part of one view, C's: each takes that part
# from C and adds its own level, D2 with C's c renamed.
SIBLINGS = (
    "class A { public int a = 1; private int h = 2; public int f() { return a + h; } }",
    "class B extends A { public int b = 2; public int g() { return b + f(); } }",
    "class C extends B { public int c = 3; public int k() { return c + g() + a; } }",
    "class D1 extends C { public A d = null; public int m() { return b + a; } }",
    "class D2 extends C { public int c = 9; public int e = 5; "
    "public int n() { return e + b + c; } }",
    "class E1 extends D1 { public int x = 6; public A p() { return d; } }",
    "class E2 extends D2 { public int y = 7; public int q() { return e + y + a; } }",
)


def test_sibling_views_share_a_pulled_part(monkeypatch):
    model = classify_members(build_model(_units(*SIBLINGS)))
    graph = compute_access_graph(model)
    flattened = flattener.flatten_model(model, graph)
    assert {n: flat.base.name for n, flat in flattened.items() if flat.base} == {
        "C": "B", "D1": "C", "D2": "C", "E1": "D1", "E2": "D2"}
    # Measured again, bottom-up, after every part was built: the same records.
    records = {row.class_name: row.flattened.as_dict()
               for row in metrics.compare(model, graph, flattened)}
    for name in reversed(model.order):
        assert metrics.measure_flattened(model, flattened[name]).as_dict() == records[name]
    _rules_match_from_scratch(_units(*SIBLINGS), monkeypatch)
    _check_parts(list(SIBLINGS))
    check(_units(*SIBLINGS), monkeypatch)


def _record_descents(monkeypatch, descended: list) -> None:
    """Append (member, node) for each statement and expression node that a
    body rewrite descends into, with the member whose body holds it."""
    walking = []  # the member being rewritten
    walk_member = tree.BodyWalker.member
    walk_stmt = tree.BodyWalker.stmt

    def member(walker, decl):
        walking[:] = [decl]
        return walk_member(walker, decl)

    def stmt(walker, node):
        if isinstance(walker, flattener._Carrier):
            descended.append((walking[0], node))
        return walk_stmt(walker, node)

    map_children = tree.map_children
    reference = flattener._Carrier.reference
    monkeypatch.setattr(flattener._Carrier, "member", member)
    monkeypatch.setattr(tree.BodyWalker, "stmt", stmt)
    monkeypatch.setattr(tree, "map_children",
                        lambda e, fn: descended.append((walking[0], e)) or map_children(e, fn))
    monkeypatch.setattr(flattener._Carrier, "reference", lambda self, e, *moved:
                        descended.append((walking[0], e)) or reference(self, e, *moved))


def test_rewrite_descends_only_along_paths_to_changed_references(monkeypatch):
    # B renames A's a, so f's references to it change, and g's super.f()
    # collapses. Written without spaces, `int x=1;` ends where `a=2;` starts.
    sources = {
        "f": "class A { public int a = 1; int f() { int x=1;a=2;if(x>0){x=a;}return x; } }",
        "g": "class B extends A { public int a = 3; int g() { int y=1;super.f();return y; } }",
    }
    model = classify_members(build_model(_units(*sources.values())))
    graph = compute_access_graph(model)
    descended = []
    _record_descents(monkeypatch, descended)
    flat = flattener.flatten_model(model, graph)["B"]
    assert [sources[m.name][n.span.start:n.span.end] for m, n in descended] == [
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
