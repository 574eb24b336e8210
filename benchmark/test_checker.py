"""Tests of the benchmark's own output checker.

    python3 -m pytest benchmark/test_checker.py -q

The checker must pass flatjava's output where the offset-collision fault
cannot occur (chains of at most three classes, whose root has a different
layout from its subclasses), and must flag a body corrupted by hand.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from check import check_class  # noqa: E402
from commands import Commands  # noqa: E402
from jmini import _arith, lcom, parse_class, render_class, use_sets, wrap32  # noqa: E402
from run import Bench  # noqa: E402


@pytest.fixture(scope="module")
def commands():
    return Commands()


def run_once(commands, workload, tmp_path):
    expected = workloads.expectations(workload)
    workload.write(tmp_path / "src")
    bench = Bench(commands, expected, tmp_path)
    bench.round()
    return bench


SMALL = [
    workloads.deep_chain(depth=2),
    workloads.deep_chain(depth=3),
    workloads.wide_fan(seed=5, hierarchies=2, subclasses=2),
    workloads.fat_classes(seed=5, hierarchies=1, subclasses=2, fields=30, methods=40),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: f"{w.name}-{len(w.classes)}")
def test_fault_free_workloads_pass(commands, workload, tmp_path):
    bench = run_once(commands, workload, tmp_path)
    assert not bench.problems
    assert {n: p for n, p in bench.class_problems.items() if p} == {}
    assert bench.attempted == len(workload.classes)
    assert bench.failed == 0


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: f"{w.name}-{len(w.classes)}")
def test_rendering_parses_back_to_the_same_text(workload):
    for text in workload.sources.values():
        assert render_class(parse_class(text)) == text


def _flat_c02(commands, tmp_path):
    workload = workloads.deep_chain(depth=3)
    bench = run_once(commands, workload, tmp_path)
    text = (tmp_path / "out" / "C02.flat.java").read_text()
    exp = bench.expected["C02"]
    row = next(r for r in bench.reference_docs[0]["classes"] if r["name"] == "C02")
    plan = next(c for c in bench.reference_docs[2]["classes"] if c["name"] == "C02")
    assert check_class("C02", text, exp, row["flattened"], plan) == []
    return text, exp, row["flattened"], plan


@pytest.mark.parametrize(
    "old, new",
    [
        ("return v$C01;", "return v;"),  # the getter reads the subclass's field
        ("q0$C01 + p0$C01", "q0$C01 - p0$C01"),  # an operator changed
        ("return q1$C00 + p1$C00;", "return q1$C00 + p1$C01;"),  # a misbound read
    ],
)
def test_hand_corrupted_body_is_flagged(commands, tmp_path, old, new):
    text, exp, row, plan = _flat_c02(commands, tmp_path)
    assert old in text
    problems = check_class("C02", text.replace(old, new, 1), exp, row, plan)
    assert any("method values differ" in p for p in problems)


def test_unknown_name_is_flagged(commands, tmp_path):
    text, exp, row, plan = _flat_c02(commands, tmp_path)
    problems = check_class("C02", text.replace("return v$C01;", "return w;"), exp, row, plan)
    assert any("declares no field 'w'" in p for p in problems)


def test_dropped_member_is_flagged(commands, tmp_path):
    text, exp, row, plan = _flat_c02(commands, tmp_path)
    lines = text.splitlines(keepends=True)
    dropped = "".join(line for line in lines if "int p1$C01 =" not in line)
    problems = check_class("C02", dropped, exp, row, plan)
    assert any("NOA/NOM" in p for p in problems)


def test_java_int_arithmetic():
    assert wrap32(2**31) == -(2**31)
    assert _arith("*", 65536, 65536) == 0
    assert _arith("-", -(2**31), 1) == 2**31 - 1


def test_use_sets_respect_shadowing_and_lcom_by_brute_force():
    cls = parse_class(
        "class A {\n"
        "    int f = 1;\n"
        "    int g = 2;\n"
        "    int a() {\n        int f = 3;\n        return f + g;\n    }\n"
        "    int b(int g) {\n        return this.g + g;\n    }\n"
        "    int c() {\n        return f;\n    }\n"
        "}\n"
    )
    sets = use_sets(cls)
    assert sets == [{"g"}, {"g"}, {"f"}]
    assert lcom(sets) == (2, 1)

