"""The benchmark's independent value checker, run on small workloads.

`benchmark/check.py` checks every flattened class with its own mini-Java
evaluator (`benchmark/jmini.py`, which never imports flatjava) against the
bindings the workload generator recorded: method values, pulled member
names, SLOC, LCOM and the plan. The goldens and hierarchy laws missed the
offset-collision fault that this checker caught, so tier-1 runs it on every
workload at a quarter of its benchmark scale.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from flatjava.cli import main

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"

WORKLOADS = ("deep_chain", "wide_fan", "fat_classes")


@pytest.mark.parametrize("seed", (11, 777))
@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_checker_finds_no_problem(name, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import workloads
    from check import check_outputs

    workload = workloads.build(name, seed, scale=0.25)
    src, out = tmp_path / "src", tmp_path / "out"
    workload.write(src)
    runner = CliRunner()
    outputs = {}
    for args in (
        ["flatten", str(src), "--out", str(out)],
        ["compare", str(src), "--format", "json"],
        ["metrics", str(src), "--view", "original", "--format", "json"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args[0], result.output)
        outputs[args[0]] = result.stdout
    plan = json.loads((out / "flatten.plan.json").read_text(encoding="utf-8"))
    per_class, problems = check_outputs(
        workloads.expectations(workload), out,
        json.loads(outputs["compare"]), json.loads(outputs["metrics"]), plan,
    )
    assert problems == []
    assert {n: p for n, p in per_class.items() if p} == {}
    assert len(per_class) == len(workload.classes)
