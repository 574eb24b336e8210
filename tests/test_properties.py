"""Randomized structural laws over generated hierarchies.

These generalize the fixture corpus: for seeded random 2-3 level chains the
flattener must terminate, emit self-contained output, preserve the visible
surface, stay monotone, and be idempotent and deterministic.
"""

from __future__ import annotations

import random

import pytest

from flatjava import build_model, classify_members, compare, emit, flatten_model, parse_source
from flatjava.resolver import resolve_class

from conftest import model_from_sources
from genclasses import random_hierarchy_sources
from test_flattener import flattened_surface, original_surface
from whole_view import Whole


def build_hierarchy(seed):
    rng = random.Random(seed)
    sources = random_hierarchy_sources(rng)
    return model_from_sources(*sources)


@pytest.mark.parametrize("seed", range(60))
def test_generated_hierarchy_laws(seed):
    model, graph = build_hierarchy(40_000 + seed)
    inputs = [emit(model.classes[c].decl) for c in model.order]
    flattened = flatten_model(model, graph)

    # Flattening shares subtrees with its inputs but never mutates them.
    assert [emit(model.classes[c].decl) for c in model.order] == inputs

    # Closure: emitted output re-parses and re-resolves standalone.
    units = [parse_source(emit(flattened[c]), f"{c}.flat.java") for c in model.order]
    flat_model = classify_members(build_model(units))
    for class_name in flat_model.order:
        resolve_class(flat_model, flat_model.classes[class_name])

    # Monotonicity with exact pulled-member deltas.
    for row in compare(model, graph, flattened):
        fates = Whole(flattened[row.class_name]).fates
        pulled_attrs = sum(1 for f in fates if f.member.kind == "attribute" and f.pulls)
        pulled_methods = sum(1 for f in fates if f.member.kind == "method" and f.pulls)
        assert row.deltas["noa"] == pulled_attrs
        assert row.deltas["nom"] == pulled_methods
        assert row.deltas["sloc"] >= 0

    # Visible-surface preservation.
    for class_name in model.order:
        assert flattened_surface(flattened[class_name]) == original_surface(
            model, class_name
        )

    # Idempotence of every flattened class.
    for class_name in model.order:
        emitted = emit(flattened[class_name])
        remodel, regraph = model_from_sources(emitted)
        reflat = flatten_model(remodel, regraph)[class_name]
        assert emit(reflat) == emitted

    # Determinism.
    again = flatten_model(model, graph)
    for class_name in model.order:
        assert emit(again[class_name]) == emit(flattened[class_name])


@pytest.mark.parametrize("seed", range(60, 80))
def test_generated_hierarchy_no_dangling_renames(seed):
    # Every rename recorded in the plan appears as a declared member, and no
    # flattened class declares duplicate names or signatures.
    model, graph = build_hierarchy(40_000 + seed)
    flattened = flatten_model(model, graph)
    for flat in map(Whole, flattened.values()):
        attr_names = [m.name for m in flat.members if m.kind == "attribute"]
        methods = [m for m in flat.members if m.kind == "method"]
        method_sigs = [m.signature for m in methods]
        assert len(attr_names) == len(set(attr_names)), flat.name
        assert len(method_sigs) == len(set(method_sigs)), flat.name
        declared = set(attr_names) | {m.name for m in methods}
        for fate in flat.fates:
            if fate.new_name is not None and fate.pulls:
                assert fate.new_name in declared, (flat.name, fate.new_name)
