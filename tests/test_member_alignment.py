"""The parallel member lists stay aligned.

A member's declaration, its record and its resolution are found by their
position in lists that run in declaration order: a class's `members` and
its declaration's members, a flattened view's `head_members` and
`head_resolutions`, and the same lists assembled whole along the view's
bases, with the declaration's members and the resolution's `decls`. This
checks that they line up on the fixtures, on generated hierarchies and on
the decision-table configurations, and that a view reuses the model's
records wherever nothing changed a member.
"""

from __future__ import annotations

import random

import pytest

from flatjava import flatten_model

from conftest import CORPUS, load_model, model_from_sources
from genclasses import random_hierarchy_sources, random_overloading_hierarchy
from hiergen import CONFIGS, build_sources
from whole_view import Whole


def assert_aligned(model, flattened) -> None:
    for name, info in model.classes.items():
        assert len(info.members) == len(info.decl.members), name
        for i, member in enumerate(info.members):
            assert member.decl is info.decl.members[i], (name, i)

        flat = flattened[name]
        assert len(flat.head_resolutions) == len(flat.head_members), name
        flat = Whole(flat)
        resolution = flat.resolution
        assert len(flat.decl.members) == len(resolution.decls) == len(flat.members), name
        assert len(resolution.members) == len(flat.members), name
        for i, member in enumerate(flat.members):
            assert member.decl is flat.decl.members[i] is resolution.decls[i], (name, i)

        own = flat.members[:len(info.members)]
        assert all(m.owner == name and not m.pulled for m in own), name
        if info.superclass is None:
            # A root view's members are the model's records.
            assert len(flat.members) == len(info.members), name
            assert all(m is r for m, r in zip(flat.members, info.members)), name
        for member, record in zip(own, info.members):
            # An own member that no rewrite touched is the model's record.
            assert member is record or member.decl is not record.decl, (name, record.name)


def _check_sources(*sources: str) -> None:
    model, graph = model_from_sources(*sources)
    assert_aligned(model, flatten_model(model, graph))


@pytest.mark.parametrize("name", CORPUS)
def test_aligned_on_fixtures(name):
    model, graph = load_model(name)
    assert_aligned(model, flatten_model(model, graph))


@pytest.mark.parametrize("seed", range(50))
def test_aligned_on_generated_hierarchies(seed):
    rng = random.Random(50_000 + seed)
    _check_sources(*random_hierarchy_sources(rng, depth=3, owner_names=seed % 2 == 1))
    _check_sources(*random_overloading_hierarchy(rng))


def test_aligned_on_decision_table():
    for config in CONFIGS:
        _check_sources(*build_sources(*config))
