"""The benchmark's tracer patches flatjava's module globals by name.

`benchmark/tracing.py` wraps functions such as `parser.tokenize`,
`metrics.resolve_class`, `metrics.emit` and `flattener.copy` from outside
`src/`, and counts the nodes of each parsed tree through their `vars()`.
Renaming or deleting one of them, calling one by another route, or giving
tree nodes `__slots__` breaks `--trace 1` runs; these tests notice it in the
tier-1 suite.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from click.testing import CliRunner

from flatjava import parse_source, tree
from flatjava.cli import main

from conftest import FIXTURES_DIR

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def _sources(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(FIXTURES_DIR / "deep_mixed", src)
    shutil.rmtree(src / "expected")
    return src


def test_compare_under_tracer_records_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    from tracing import Tracer

    src = _sources(tmp_path)
    tracer = Tracer()
    with tracer.installed():
        result = CliRunner().invoke(main, ["compare", str(src), "--format", "json"])
        assert result.exit_code == 0, result.output
        tracer.command = "flatten"
        result = CliRunner().invoke(main, ["flatten", str(src), "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
    names = {span["name"] for span in tracer.spans if span["command"] != "flatten"}
    for name in ("tokenize", "resolve_class", "measure_flattened"):
        assert name in names, f"no {name} span: {sorted(names)}"
    # `compare` writes no Java: only `flatten` emits.
    emits = [span for span in tracer.spans if span["name"] == "emit"]
    assert emits and all(span["command"] == "flatten" for span in emits)


def _nodes(node) -> int:
    """Nodes in a tree, found through every node's `vars()`."""
    total = 0
    todo = [node]
    while todo:
        item = todo.pop()
        if isinstance(item, tree.Node):
            total += 1
            todo.extend(vars(item).values())
        elif isinstance(item, list):
            todo.extend(item)
    return total


def test_metrics_under_tracer_lexes_and_parses_each_file_once(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    from tracing import Tracer

    src = _sources(tmp_path)
    files = sorted(src.glob("*.java"))
    tracer = Tracer()
    with tracer.installed():
        result = CliRunner().invoke(
            main, ["metrics", str(src), "--view", "original", "--format", "json"]
        )
    assert result.exit_code == 0, result.output
    parses = [s for s in tracer.spans if s["name"] == "parse_source"]
    lexes = [s for s in tracer.spans if s["name"] == "tokenize"]
    assert len(parses) == len(lexes) == len(files)
    # Each file's tokenize runs inside its parse_source, and both count work.
    assert sorted(s["parent"] for s in lexes) == sorted(s["id"] for s in parses)
    assert all(s["count"] > 0 for s in parses + lexes)
    expected = sorted(_nodes(parse_source(p.read_text(encoding="utf-8"), str(p))) for p in files)
    assert sorted(s["count"] for s in parses) == expected
