"""The benchmark's tracer patches flatjava's module globals by name.

`benchmark/tracing.py` wraps functions such as `parser.tokenize`,
`metrics.resolve_class`, `metrics.emit` and `flattener.copy` from outside
`src/`. Renaming or deleting one of them breaks `--trace 1` runs; this test
notices it in the tier-1 suite.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from click.testing import CliRunner

from flatjava.cli import main

from conftest import FIXTURES_DIR

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def test_compare_under_tracer_records_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    from tracing import Tracer

    src = tmp_path / "src"
    shutil.copytree(FIXTURES_DIR / "deep_mixed", src)
    shutil.rmtree(src / "expected")
    tracer = Tracer()
    with tracer.installed():
        result = CliRunner().invoke(main, ["compare", str(src), "--format", "json"])
    assert result.exit_code == 0, result.output
    names = {span["name"] for span in tracer.spans}
    for name in ("tokenize", "resolve_class", "emit", "measure_flattened"):
        assert name in names, f"no {name} span: {sorted(names)}"
