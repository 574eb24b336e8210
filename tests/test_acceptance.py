"""Acceptance suite: one test per criterion, printed pass lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every tolerance is exact (100% agreement); the two generative
suites also carry their stated runtime budgets.
"""

from __future__ import annotations

import json
import random
import shutil
import time

from click.testing import CliRunner

from flatjava import (
    build_model,
    classify_members,
    emit,
    flatten_model,
    measure_original,
    parse_source,
)
from flatjava.cli import main
from flatjava.resolver import resolve_class

from conftest import (
    CORPUS,
    FIXTURES_DIR,
    flatten_fixture,
    golden_path,
    model_from_sources,
)
from decision_oracle import expected_attribute_fate, expected_method_fate
from whole_view import Whole
from genclasses import random_class_source, random_measured_class
from hiergen import CONFIGS, build_sources, effective_overridden, target_key


def test_criterion_1_decision_table_equivalence():
    assert len(CONFIGS) >= 128
    started = time.perf_counter()
    checked = 0
    for config in CONFIGS:
        kind, vis, overridden, accessed, static_cfg, final_cfg = config
        super_src, sub_src = build_sources(*config)
        model, graph = model_from_sources(super_src, sub_src)
        flattened = flatten_model(model, graph)
        key = target_key(kind)
        fate = next(
            f
            for f in Whole(flattened["Sub"]).fates
            if f.member.kind == ("attribute" if kind == "attribute" else "method")
            and f.member.signature == key
        )
        visible = vis != "private"
        ovr = effective_overridden(overridden, static_cfg, final_cfg)
        if kind == "attribute":
            expected = expected_attribute_fate(visible, ovr, accessed)
        else:
            expected = expected_method_fate(visible, ovr, accessed)
        assert (fate.decision, fate.rule) == expected, config
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"decision-table sweep took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 1 decision-table equivalence: PASS "
        f"({checked} cases, 100% agreement, {elapsed:.2f}s)"
    )


def test_criterion_2_identity_and_idempotence():
    count = 50
    for seed in range(count):
        rng = random.Random(20_000 + seed)
        source = random_class_source(rng, f"Gen{seed}")
        model, graph = model_from_sources(source)
        flattened = flatten_model(model, graph)
        name = f"Gen{seed}"
        assert emit(Whole(flattened[name]).decl) == emit(model.classes[name].decl), seed
        emitted = emit(flattened[name])
        model2, graph2 = model_from_sources(emitted)
        flattened2 = flatten_model(model2, graph2)
        assert emit(flattened2[name]) == emitted, seed
    print(
        f"\nACCEPTANCE 2 identity & idempotence: PASS "
        f"({count} generated classes, flatten = identity, re-flatten = identity)"
    )


def test_criterion_3_closure_on_corpus():
    assert len(CORPUS) >= 25, f"corpus holds only {len(CORPUS)} fixtures"
    assert "chain3" in CORPUS
    rule_counts: dict[str, int] = {}
    checked_classes = 0
    for name in CORPUS:
        model, _, flattened = flatten_fixture(name)
        for flat in flattened.values():
            for fate in Whole(flat).fates:
                rule_counts[fate.rule] = rule_counts.get(fate.rule, 0) + 1
        units = [
            parse_source(emit(flattened[c]), f"{c}.flat.java") for c in model.order
        ]
        flat_model = classify_members(build_model(units))
        for class_name in flat_model.order:
            # Raises UnresolvedName/DanglingSuperRef on any closure violation.
            resolve_class(flat_model, flat_model.classes[class_name])
            checked_classes += 1
    for rule in ("R1", "R2", "R3", "R4a", "R4b", "R4c", "R5", "R6", "R7", "R8"):
        assert rule_counts.get(rule, 0) >= 2, f"rule {rule} exercised < 2 times"
    print(
        f"\nACCEPTANCE 3 closure/compilability proxy: PASS "
        f"({len(CORPUS)} fixtures, {checked_classes} flattened classes re-resolve, "
        f"every rule id fired >= 2 times)"
    )


def test_criterion_4_rewrite_goldens():
    compared = 0
    for name in CORPUS:
        model, _, flattened = flatten_fixture(name)
        for class_name in model.order:
            golden = golden_path(name, class_name)
            assert golden.exists(), f"missing golden {name}/{class_name}"
            actual = emit(flattened[class_name])
            assert actual == golden.read_text(encoding="utf-8"), f"{name}/{class_name}"
            compared += 1
    print(
        f"\nACCEPTANCE 4 rewrite correctness: PASS "
        f"({compared} emitted files byte-equal their goldens)"
    )


def test_criterion_5_metrics_oracle():
    started = time.perf_counter()
    count = 200
    for seed in range(count):
        rng = random.Random(30_000 + seed)
        name = f"M{seed}"
        source, use_sets = random_measured_class(rng, name)
        model, graph = model_from_sources(source)
        rec = measure_original(model, graph, name)
        p = q = 0
        for i in range(len(use_sets)):
            for j in range(i + 1, len(use_sets)):
                if use_sets[i] & use_sets[j]:
                    q += 1
                else:
                    p += 1
        assert rec.lcom1 == p, seed
        assert rec.lcom2 == max(p - q, 0), seed
        assert rec.lcom1 + q == rec.nom * (rec.nom - 1) // 2, seed
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"metrics sweep took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 5 metrics oracle: PASS "
        f"({count} randomized classes, LCOM matches brute force, "
        f"partition identity holds, {elapsed:.2f}s)"
    )


def test_criterion_6_monotonicity_and_exact_deltas():
    from flatjava import compare

    checked = 0
    for name in CORPUS:
        model, graph, flattened = flatten_fixture(name)
        for row in compare(model, graph, flattened):
            assert row.deltas["noa"] >= 0 and row.deltas["nom"] >= 0
            assert row.deltas["sloc"] >= 0
            fates = Whole(flattened[row.class_name]).fates
            pulled_attrs = sum(
                1 for f in fates if f.member.kind == "attribute" and f.pulls
            )
            pulled_methods = sum(
                1 for f in fates if f.member.kind == "method" and f.pulls
            )
            assert row.deltas["noa"] == pulled_attrs, row.class_name
            assert row.deltas["nom"] == pulled_methods, row.class_name
            checked += 1
    print(
        f"\nACCEPTANCE 6 monotonicity & exact deltas: PASS "
        f"({checked} class comparisons across the corpus)"
    )


def test_criterion_7_advisory_contract():
    expected = {
        "refactoring": "original",
        "adaptability": "flattened",
        "reusability": "flattened",
        "understandability": "flattened",
        "maintainability": "flattened",
        "completeness": "flattened",
        "testability-class": "original",
        "testability-cluster": "flattened",
    }
    runner = CliRunner()
    from flatjava import advise

    for application, view in expected.items():
        assert advise(application).view == view
        result = runner.invoke(main, ["advise", application])
        assert result.exit_code == 0
        assert f"recommended view: {view}" in result.output
    print(
        f"\nACCEPTANCE 7 advisory contract: PASS "
        f"({len(expected)} applications, fixed mapping verified via API and CLI)"
    )


def test_criterion_8_determinism(tmp_path):
    runner = CliRunner()
    snapshots = []
    for run in (1, 2):
        run_outputs: dict[str, str] = {}
        for name in CORPUS:
            src = tmp_path / f"run{run}" / name
            shutil.copytree(FIXTURES_DIR / name, src)
            shutil.rmtree(src / "expected", ignore_errors=True)
            out = tmp_path / f"run{run}" / f"{name}.out"
            result = runner.invoke(main, ["flatten", str(src), "--out", str(out)])
            assert result.exit_code == 0, (name, result.output)
            for emitted in sorted(out.iterdir()):
                run_outputs[f"{name}/{emitted.name}"] = emitted.read_text()
            report = runner.invoke(main, ["compare", str(src)])
            assert report.exit_code == 0
            run_outputs[f"{name}/compare.json"] = report.output
        snapshots.append(run_outputs)
    assert snapshots[0] == snapshots[1]
    json.loads(snapshots[0][f"{CORPUS[0]}/compare.json"])  # reports stay valid JSON
    print(
        f"\nACCEPTANCE 8 determinism: PASS "
        f"({len(snapshots[0])} artifacts byte-identical across two full runs)"
    )
