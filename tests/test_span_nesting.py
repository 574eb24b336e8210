"""Spans nest: every node's span encloses its children's spans and its name span.

A flattened view's body rewrites descend only into the statements and
expressions whose span holds the offset of a reference that changes, so a
reference outside its parent's span would be left as it was. This checks
the nesting on every tree the parser builds from the fixtures, generated
hierarchies, decision-table configurations and benchmark workloads, and on
every member body and initializer of their flattened views, rewritten
nodes included. A view's class declaration and a folded initializer join
nodes from several files, so a view is checked from each member's body or
initializer down.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from flatjava import FlatJavaError, flatten_model, parse_source, tree

from conftest import FIXTURES_DIR, model_from_sources
from genclasses import random_class_source, random_hierarchy_sources, random_overloading_hierarchy
from hiergen import CONFIGS, build_sources
from whole_view import Whole

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def _within(inner, outer) -> bool:
    return outer.start <= inner.start and inner.end <= outer.end


def assert_nested(root: tree.Node) -> int:
    """Check the nesting under `root`; returns the number of nodes checked."""
    checked = 0
    todo = [root]
    while todo:
        node = todo.pop()
        checked += 1
        name_span = getattr(node, "name_span", None)
        assert name_span is None or _within(name_span, node.span), node
        for name in node.__match_args__:
            value = getattr(node, name)
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, tree.Node):
                    assert _within(child.span, node.span), (node, child)
                    todo.append(child)
    return checked


def check_sources(sources: list[str]) -> None:
    """Parsed trees, then every member body of each flattened view."""
    for source in sources:
        assert assert_nested(parse_source(source)) > 1
    try:
        model, graph = model_from_sources(*sources)
        flattened = flatten_model(model, graph)
    except FlatJavaError:
        return
    for flat in flattened.values():
        for decl in Whole(flat).decl.members:
            body = decl.init if isinstance(decl, tree.FieldDecl) else decl.body
            if body is not None:
                assert_nested(body)


FIXTURE_FILES = sorted(p.relative_to(FIXTURES_DIR).as_posix()
                       for p in FIXTURES_DIR.rglob("*.java") if "expected" not in p.parts)


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_spans_nest_in_parsed_fixtures(name):
    try:
        unit = parse_source((FIXTURES_DIR / name).read_text(encoding="utf-8"))
    except FlatJavaError:
        return  # a fixture of input the parser refuses
    assert assert_nested(unit) > 1


@pytest.mark.parametrize("directory", sorted({name.rsplit("/", 1)[0] for name in FIXTURE_FILES}))
def test_spans_nest_in_flattened_fixtures(directory):
    files = sorted((FIXTURES_DIR / directory).glob("*.java"))
    sources = [p.read_text(encoding="utf-8") for p in files]
    try:
        [parse_source(s) for s in sources]
    except FlatJavaError:
        return
    check_sources(sources)


def test_spans_nest_in_flattened_expected_outputs():
    # The goldens are flattened views written out: they parse to nested trees too.
    for path in sorted(FIXTURES_DIR.glob("*/expected/*.java")):
        assert assert_nested(parse_source(path.read_text(encoding="utf-8"))) > 1


@pytest.mark.parametrize("seed", range(60))
def test_spans_nest_in_generated_hierarchies(seed):
    rng = random.Random(90_000 + seed)
    check_sources(random_hierarchy_sources(rng, depth=3, owner_names=seed % 2 == 1))
    check_sources(random_overloading_hierarchy(rng))
    check_sources([random_class_source(rng, "R")])


def test_spans_nest_on_decision_table():
    for config in CONFIGS:
        check_sources(list(build_sources(*config)))


@pytest.mark.parametrize("workload", ["deep_chain", "wide_fan", "fat_classes"])
def test_spans_nest_in_benchmark_workloads(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import workloads

    check_sources(list(workloads.build(workload, 11, scale=0.25).sources.values()))
