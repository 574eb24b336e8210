"""Oracle tests for the linear classification and the carried closure.

`classify_members` finds illegal overrides through an index of same-named
ancestors and builds the override and overload pairings only when they are
read; `pulled_closure` starts from the part of the fixed point that the
superclass's view carries down. Both must agree exactly with the
from-scratch versions in `from_scratch.py`: the same pairings in the same
order with the same members, the same diagnostics, the same pulled and
accessed sets for every class, and so the same fates.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from flatjava import FlatJavaError, build_model, compute_access_graph, flattener, parse_source
from flatjava.errors import ILLEGAL_OVERRIDE_FINAL, ILLEGAL_OVERRIDE_STATIC
from flatjava.model import classify_members

from conftest import CORPUS, load_units
from from_scratch import classify, pulled_closure
from genclasses import random_hierarchy_sources, random_overloading_hierarchy
from hiergen import CONFIGS, build_sources


def _outcome(fn):
    try:
        return fn(), None
    except FlatJavaError as err:
        return None, (type(err), err.message)


def _fates(flattened) -> dict:
    return {
        name: [(f.member.kind, f.member.signature, f.decision, f.rule, f.new_name)
               for f in flat.fates]
        for name, flat in flattened.items()
    }


def check(units, monkeypatch) -> list:
    """Classify and flatten `units` against the references; returns the
    flattened views whose closure was derived from a carried part."""
    model = build_model(units)
    overrides, overloads, diagnostics = classify(model)
    classify_members(model)
    assert [(id(r.sub), id(r.sup), r.kind, r.legality) for r in model.overrides] == [
        (id(r.sub), id(r.sup), r.kind, r.legality) for r in overrides
    ]
    assert [(id(sub), id(sup)) for sub, sup in model.overloads] == [
        (id(sub), id(sup)) for sub, sup in overloads
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
    flattened, error = _outcome(lambda: flattener.flatten_model(model, graph))
    monkeypatch.setattr(flattener, "pulled_closure", pulled_closure)
    reference, reference_error = _outcome(lambda: flattener.flatten_model(model, graph))
    assert error == reference_error
    if error is None:
        assert _fates(flattened) == _fates(reference)
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
    assert ("attribute", "a$C0") in carried[-1].carried[0]
    assert "a$C0" in carried[-1].carried[1]


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
