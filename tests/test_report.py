"""Report serialization: the indented JSON writer matches `json.dumps`."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from flatjava.metrics import compare
from flatjava.report import compare_document, dump_json, plan_document

from conftest import CORPUS, flatten_fixture

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
    model, graph, flattened = flatten_fixture(name)
    for document in (plan_document(flattened), compare_document(compare(model, graph, flattened))):
        assert dump_json(document) == json.dumps(document, indent=2) + "\n"
