"""Report serialization: the indented JSON writer and the plan writer match
`json.dumps`."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from flatjava import FlatJavaError, flatten_model
from flatjava.flattener import FlattenedClass, MemberFate, RewriteDirective
from flatjava.model import MemberInfo
from flatjava.metrics import compare
from flatjava.report import compare_document, dump_json, plan_document, plan_json

from conftest import CORPUS, flatten_fixture, model_from_sources
from genclasses import random_hierarchy_sources
from hiergen import CONFIGS, build_sources
from whole_view import Whole

_strings = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from('"\\/\x00\x07\x1f\x7f\n\r\t é€\U0001f600')
    ),
    max_size=12,
)
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), _strings)
_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.dictionaries(_strings, children, max_size=5)
    ),
    max_leaves=20,
)


@settings(max_examples=200)
@given(_documents)
def test_dump_json_matches_json_dumps(document):
    assert dump_json(document) == json.dumps(document, indent=2) + "\n"


def test_dump_json_tuples_are_arrays():
    assert dump_json({"span": (1, 2)}) == json.dumps({"span": (1, 2)}, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, object()])
def test_dump_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        dump_json({"value": value})


@pytest.mark.parametrize("name", CORPUS)
def test_plan_and_compare_documents_match_json_dumps(name):
    model, flattened = flatten_fixture(name)
    for document in (plan_document(flattened), compare_document(compare(model, flattened))):
        assert dump_json(document) == json.dumps(document, indent=2) + "\n"


def assert_plan_matches(flattened) -> None:
    assert plan_json(flattened) == json.dumps(plan_document(flattened), indent=2) + "\n"


def test_plan_json_of_no_classes():
    assert_plan_matches({})


@pytest.mark.parametrize("name", CORPUS)
def test_plan_json_matches_json_dumps_on_fixtures(name):
    assert_plan_matches(flatten_fixture(name)[1])


def test_plan_json_matches_json_dumps_on_generated_hierarchies():
    written = 0
    for seed in range(100):
        try:
            flattened = flatten_model(model_from_sources(*random_hierarchy_sources(random.Random(seed))))
        except FlatJavaError:
            continue
        assert_plan_matches(flattened)
        written += 1
    assert written >= 50


def test_plan_json_matches_json_dumps_on_decision_table():
    for config in CONFIGS:
        flattened = flatten_model(model_from_sources(*build_sources(*config)))
        assert any(not Whole(f).fates for f in flattened.values())  # the root
        assert_plan_matches(flattened)


def test_plan_json_matches_json_dumps_on_a_deep_chain():
    # Each class overrides v, a and f(); w, h, g() and k() are pulled down
    # unchanged through every level below C0, so their fates repeat.
    sources = [
        "class C0 { private int a = 0; public int v = 0; public int w = 0; private int h = 0; "
        "public int f() { return a + v; } public int g() { return h + k(); } "
        "private int k() { return w; } }"
    ]
    for i in range(1, 12):
        sources.append(
            f"class C{i} extends C{i - 1} {{ private int a = {i}; public int v = {i}; "
            f"public int f() {{ return a + v + super.f(); }} }}"
        )
    flattened = flatten_model(model_from_sources(*sources))
    assert {f.rule for f in Whole(flattened["C11"]).fates} == {"R1", "R2", "R4a", "R5", "R6", "R7"}
    assert_plan_matches(flattened)
    assert_plan_matches(flattened)  # again, from what the first plan left behind


def _flat_class(name, fates, rewrites) -> FlattenedClass:
    return FlattenedClass(name, None, "package", [], fates, rewrites)


@settings(max_examples=100)
@given(st.lists(st.tuples(_strings, _strings, st.one_of(st.none(), _strings),
                          st.integers(0, 10**6), st.integers(0, 10**6)), max_size=4),
       st.booleans(), st.booleans())
def test_plan_json_escapes_like_json_dumps(entries, with_fates, with_rewrites):
    fates = [
        MemberFate(MemberInfo(b, a, "method", "public", False, False, a, None, a, True),
                   "PullDown", "R5", new)
        for a, b, new, _, _ in entries
    ] if with_fates else []
    rewrites = [
        RewriteDirective((start, end), a, b, new or "")
        for a, b, new, start, end in entries
    ] if with_rewrites else []
    assert_plan_matches({"A": _flat_class("A", [], []), "B\u00e9\"": _flat_class("B", fates, rewrites)})
