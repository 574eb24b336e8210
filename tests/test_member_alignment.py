"""Every member record carries its own resolution.

A class (`ClassInfo.members`) and a flattened view (`head_members`, and
the same list assembled whole along the view's bases) hold one
`MemberInfo` per member, and each record carries the `MemberResolution`
of its own declaration: the site of every reference is keyed by the
identity of a node inside that record's `decl`. This checks that on the
fixtures, on generated hierarchies and on the decision-table
configurations; that a class's records line up with its declaration's
members; and that a view reuses the model's record wherever neither the
declaration nor the resolution of a member changed.
"""

from __future__ import annotations

import random

import pytest

from flatjava import flatten_model, tree
from flatjava.resolver import MemberResolution

from conftest import CORPUS, load_model, model_from_sources
from genclasses import random_hierarchy_sources, random_overloading_hierarchy
from hiergen import CONFIGS, build_sources
from whole_view import Whole


def _node_ids(decl) -> set[int]:
    """The identity of every node inside `decl`."""
    ids, todo = set(), [decl]
    while todo:
        item = todo.pop()
        if isinstance(item, tree.Node):
            ids.add(id(item))
            todo.extend(getattr(item, name) for name in item.__match_args__)
        elif isinstance(item, list):
            todo.extend(item)
    return ids


def assert_resolved(name: str, members) -> None:
    """Each record's resolution resolves the record's own declaration."""
    for member in members:
        where = (name, member.owner, member.name)
        assert isinstance(member.resolution, MemberResolution), where
        assert member.resolution.sites.keys() <= _node_ids(member.decl), where


def assert_aligned(model, flattened) -> None:
    for name, info in model.classes.items():
        assert len(info.members) == len(info.decl.members), name
        for i, member in enumerate(info.members):
            assert member.decl is info.decl.members[i], (name, i)
        assert_resolved(name, info.members)

        flat = Whole(flattened[name])
        assert_resolved(name, flat.members)
        own = flat.members[:len(info.members)]
        assert all(m.owner == name and not m.pulled for m in own), name
        if info.superclass is None:
            # A root view's members are the model's records.
            assert len(flat.members) == len(info.members), name
            assert all(m is r for m, r in zip(flat.members, info.members)), name
        for member, record in zip(own, info.members):
            # An own member whose declaration and resolution are both
            # unchanged is the model's record.
            assert member is record or member.decl is not record.decl or (
                member.resolution is not record.resolution), (name, record.name)


def _check_sources(*sources: str) -> None:
    model = model_from_sources(*sources)
    assert_aligned(model, flatten_model(model))


@pytest.mark.parametrize("name", CORPUS)
def test_aligned_on_fixtures(name):
    model = load_model(name)
    assert_aligned(model, flatten_model(model))


@pytest.mark.parametrize("seed", range(50))
def test_aligned_on_generated_hierarchies(seed):
    rng = random.Random(50_000 + seed)
    _check_sources(*random_hierarchy_sources(rng, depth=3, owner_names=seed % 2 == 1))
    _check_sources(*random_overloading_hierarchy(rng))


def test_aligned_on_decision_table():
    for config in CONFIGS:
        _check_sources(*build_sources(*config))
