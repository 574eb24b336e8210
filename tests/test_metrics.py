"""Metrics tests: LCOM oracle, identities, CBO, SLOC, compare deltas."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from flatjava import (
    FlatJavaError,
    cli,
    compare,
    emitter,
    flatten_model,
    lcom_values,
    measure_flattened,
    measure_original,
    metrics,
)
from flatjava.metrics import ORIGINAL, FLATTENED

import from_scratch
from conftest import CORPUS, fixture_files, flatten_fixture, load_model, model_from_sources
from genclasses import random_hierarchy_sources, random_measured_class, random_overloading_hierarchy
from hiergen import CONFIGS, build_sources
from whole_view import Whole

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def brute_force_pairs(use_sets):
    p = q = 0
    n = len(use_sets)
    for i in range(n):
        for j in range(i + 1, n):
            if use_sets[i] & use_sets[j]:
                q += 1
            else:
                p += 1
    return p, q


def measure_source(source, name):
    model = model_from_sources(source)
    return measure_original(model, name)


def test_no_methods_convention():
    rec = measure_source("class A { int x; int y; }", "A")
    assert (rec.noa, rec.nom, rec.lcom1, rec.lcom2) == (2, 0, 0, 0)


def test_single_method_convention():
    rec = measure_source("class A { int x; void f() { x = 1; } }", "A")
    assert (rec.nom, rec.lcom1, rec.lcom2) == (1, 0, 0)


def test_sharing_pair():
    rec = measure_source(
        "class A { int x; void f() { x = 1; } void g() { x = 2; } }", "A"
    )
    # P=0, Q=1.
    assert (rec.lcom1, rec.lcom2) == (0, 0)


def test_disjoint_pair():
    rec = measure_source(
        "class A { int x; int y; void f() { x = 1; } void g() { y = 2; } }", "A"
    )
    assert (rec.lcom1, rec.lcom2) == (1, 1)


def test_lcom2_clamps_at_zero():
    # Three methods all sharing x: P=0, Q=3, LCOM2 = max(0-3, 0) = 0.
    rec = measure_source(
        "class A { int x; void f() { x = 1; } void g() { x = 2; } void h() { x = 3; } }",
        "A",
    )
    assert (rec.lcom1, rec.lcom2) == (0, 0)


def test_calls_do_not_create_attribute_sharing():
    rec = measure_source(
        "class A { int x; int y; void f() { x = 1; g(); } void g() { y = 2; } }", "A"
    )
    assert rec.lcom1 == 1  # the call edge must not make the pair share


def test_constructors_excluded_from_nom_and_lcom():
    rec = measure_source(
        "class A { int x; A() { x = 1; } void f() { x = 2; } }", "A"
    )
    assert rec.nom == 1
    assert (rec.lcom1, rec.lcom2) == (0, 0)


def test_lcom_values_function_direct():
    assert lcom_values([]) == (0, 0)
    assert lcom_values([{"x"}]) == (0, 0)
    assert lcom_values([{"x"}, {"x"}, {"y"}]) == (2, 1)


_use_sets = st.sets(st.sampled_from([f"a{i}" for i in range(8)]))


@given(st.one_of(
    st.lists(_use_sets, max_size=80),
    # A few distinct sets spread over many methods: repeated and empty sets.
    st.lists(_use_sets, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=80)
    ),
))
def test_lcom_values_matches_pairwise_oracle(use_sets):
    n = len(use_sets)
    p, q = brute_force_pairs(use_sets)
    assert p + q == n * (n - 1) // 2
    assert lcom_values(use_sets) == (p, max(p - q, 0))


def test_overloads_keep_separate_use_sets():
    rec = measure_source(
        "class A { int x; int y; void m(int a) { x = a; } void m(long b) { y = 1; } }", "A"
    )
    assert (rec.nom, rec.lcom1, rec.lcom2) == (2, 1, 1)


def test_initializer_and_constructor_uses_count_for_no_method():
    rec = measure_source(
        "class A { int x; int y = x + 1; A() { y = x; } "
        "void f() { x = 1; } void g() { y = 2; } }",
        "A",
    )
    assert (rec.nom, rec.lcom1, rec.lcom2) == (2, 1, 1)


def test_same_named_attribute_of_another_class_is_not_used():
    model = model_from_sources(
        "class B { int x; }",
        "class A { int x; B b; void f() { int t = b.x; } void g() { x = 1; } }",
    )
    rec = measure_original(model, "A")
    assert (rec.lcom1, rec.lcom2) == (1, 1)


def test_write_counts_like_read():
    rec = measure_source(
        "class A { int x; int y; "
        "void f() { x = 1; } void g() { int t = x; } void h() { int t = y; } }",
        "A",
    )
    # f writes and g reads x, so they share; h shares with neither: P=2, Q=1.
    assert (rec.lcom1, rec.lcom2) == (2, 1)


@pytest.mark.parametrize("seed", range(40))
def test_lcom_matches_brute_force_on_random_classes(seed):
    rng = random.Random(1000 + seed)
    source, use_sets = random_measured_class(rng, f"R{seed}")
    rec = measure_source(source, f"R{seed}")
    p, q = brute_force_pairs(use_sets)
    assert rec.lcom1 == p
    assert rec.lcom2 == max(p - q, 0)
    assert rec.nom == len(use_sets)
    # Pair-partition identity.
    assert p + q == rec.nom * (rec.nom - 1) // 2


def test_pair_partition_bound_on_corpus():
    for name in CORPUS:
        model = load_model(name)
        for class_name in model.order:
            rec = measure_original(model, class_name)
            assert rec.lcom1 <= rec.nom * (rec.nom - 1) // 2


def test_sloc_counts_nonblank_canonical_lines():
    rec = measure_source(
        "class A { int x; void f() { x = 1; } }", "A"
    )
    # class A {          1
    #     int x;         2
    #     void f() {     3
    #         x = 1;     4
    #     }              5
    # }                  6
    assert rec.sloc == 6


def test_sloc_identity_rich_box():
    model = load_model("identity_rich")
    rec = measure_original(model, "Box")
    assert rec.sloc == 15


def test_cbo_counts_model_classes_only():
    model = load_model("receiver_access")
    rec_a = measure_original(model, "A")
    rec_b = measure_original(model, "B")
    assert rec_a.cbo == 0
    assert rec_b.cbo == 1  # A via parameter, receiver, return, and new


def test_cbo_excludes_self_and_unmodeled_types():
    rec = measure_source(
        "class A { String s; A next; void f() { A a = new A(); } }", "A"
    )
    assert rec.cbo == 0  # String is unmodeled, A is self


def test_cbo_field_and_param_types():
    model = model_from_sources(
        "class D {\n}\n", "class E { D d; void f(D x) { } }"
    )
    assert measure_original(model, "E").cbo == 1


def test_views_labelled():
    model, flattened = flatten_fixture("pull_visible_basic")
    assert measure_original(model, "B").view == ORIGINAL
    assert measure_flattened(model, flattened["B"]).view == FLATTENED


def test_delta_example_one_attr_one_method():
    model, flattened = flatten_fixture("pull_visible_basic")
    rows = {row.class_name: row for row in compare(model, flattened)}
    assert rows["B"].deltas["noa"] == 1
    assert rows["B"].deltas["nom"] == 1


def test_deltas_zero_for_superclass_free():
    model, flattened = flatten_fixture("identity_rich")
    (row,) = compare(model, flattened)
    assert all(v == 0 for v in row.deltas.values())


def test_monotonicity_on_corpus():
    for name in CORPUS:
        model, flattened = flatten_fixture(name)
        for row in compare(model, flattened):
            assert row.deltas["noa"] >= 0
            assert row.deltas["nom"] >= 0
            assert row.deltas["sloc"] >= 0


def test_delta_equals_pull_count():
    for name in CORPUS:
        model, flattened = flatten_fixture(name)
        for row in compare(model, flattened):
            fates = Whole(flattened[row.class_name]).fates
            pulled_attrs = sum(1 for f in fates if f.member.kind == "attribute" and f.pulls)
            pulled_methods = sum(1 for f in fates if f.member.kind == "method" and f.pulls)
            assert row.deltas["noa"] == pulled_attrs, row.class_name
            assert row.deltas["nom"] == pulled_methods, row.class_name


def test_rule_counts_in_compare():
    model, flattened = flatten_fixture("chain3")
    rows = {row.class_name: row for row in compare(model, flattened)}
    assert rows["c2"].rule_counts == {"R2": 1, "R5": 1}
    assert rows["c1"].rule_counts == {"R1": 1, "R2": 1, "R5": 2}
    assert rows["c3"].rule_counts == {}


def test_flattened_lcom_uses_renamed_attributes():
    # After renaming, getX uses x$A; B's own x is untouched by it.
    model, flattened = flatten_fixture("override_attr_rename_accessed")
    rec = measure_flattened(model, flattened["B"])
    assert rec.noa == 2
    assert rec.nom == 1
    assert rec.lcom1 == 0


def test_metrics_skip_synthetic_root():
    model = model_from_sources(
        "class A { int x; }", include_object_root=True
    )
    flattened = flatten_model(model)
    rows = compare(model, flattened)
    assert [row.class_name for row in rows] == ["A"]


def test_report_documents_match_schemas():
    jsonschema = pytest.importorskip("jsonschema")
    from flatjava.report import (
        compare_document,
        load_schema,
        metrics_document,
        render_compare,
        render_metrics,
    )

    model, flattened = flatten_fixture("chain3")
    records = [measure_original(model, name) for name in model.order]
    jsonschema.validate(metrics_document(records), load_schema("report_v1"))
    rows = compare(model, flattened)
    jsonschema.validate(compare_document(rows), load_schema("compare_v1"))
    with pytest.raises(ValueError):
        render_metrics(records, "yaml")
    with pytest.raises(ValueError):
        render_compare(rows, "yaml")


def test_lcom_on_flattened_random_identity():
    # For superclass-free classes the two views must agree on every metric.
    rng = random.Random(99)
    source, _ = random_measured_class(rng, "Solo")
    model = model_from_sources(source)
    flattened = flatten_model(model)
    original = measure_original(model, "Solo")
    flat = measure_flattened(model, flattened["Solo"])
    assert original.as_dict() | {"view": FLATTENED} == flat.as_dict()


def test_sloc_counts_each_emitted_line_once():
    # A form feed or a line separator inside a string literal stays on the
    # literal's line: the class line, the field and the closing brace.
    source = 'class A { String s = "a\fb\u2028c"; }'
    model = model_from_sources(source, "class B extends A { }")
    flattened = flatten_model(model)
    assert measure_original(model, "A").sloc == 3
    assert [measure_flattened(model, flattened[n]).sloc for n in "AB"] == [3, 3]


def test_receiver_qualified_by_the_class_counts_only_in_its_view():
    # A's f reads o.x and y, and g reads x. In B's view, f's o.x reads A's x,
    # not B's, so f shares y with h only and nothing with g.
    model, flattened = flatten_fixture("receiver_own_class")
    rows = {row.class_name: row for row in compare(model, flattened)}
    assert (rows["A"].flattened.lcom1, rows["A"].flattened.lcom2) == (0, 0)
    assert (rows["B"].flattened.lcom1, rows["B"].flattened.lcom2) == (2, 1)


def test_uses_kept_on_a_resolution_name_no_class():
    # A body's resolution names no class, so the uses kept on it hold no
    # reference qualified by a class: o.x counts in A's view, not in B's.
    model = load_model("receiver_own_class")
    resolution = next(m for m in model.classes["A"].members if m.name == "f").resolution
    assert sorted(metrics._uses(resolution, "A")) == ["x", "y"]
    assert metrics._uses(resolution, "B") == ("y",)
    assert sorted(metrics._uses(resolution, "A")) == ["x", "y"]


def _check_parts(sources: list[str]) -> None:
    """Every record of `compare` and of `metrics --view flattened` on
    `sources` equals the one measured from the view's whole text."""

    def fresh():
        # Each run parses anew, so no member has its lines yet.
        model = model_from_sources(*sources)
        try:
            return model, flatten_model(model)
        except FlatJavaError:
            return model, None

    model, flattened = fresh()
    if flattened is None:
        return
    names = [n for n in model.order if not model.classes[n].synthetic]
    records = [measure_flattened(model, flattened[n]) for n in names]
    for record in records:
        flat = Whole(flattened[record.class_name])
        expected = from_scratch.measure(model, flat.name, FLATTENED, flat.decl, flat.members)
        assert record.as_dict() == expected.as_dict()

    model, flattened = fresh()
    rows = compare(model, flattened)
    for row in rows:
        name = row.class_name
        decl, flat = model.classes[name].decl, Whole(flattened[name])
        original = from_scratch.measure(model, name, ORIGINAL, decl, model.classes[name].members)
        expected = from_scratch.measure(model, name, FLATTENED, flat.decl, flat.members)
        assert row.original.as_dict() == original.as_dict()
        assert row.flattened.as_dict() == expected.as_dict()
    assert [row.class_name for row in rows] == names


@pytest.mark.parametrize("name", CORPUS)
def test_measured_parts_equal_text_on_fixtures(name):
    _check_parts([p.read_text(encoding="utf-8") for p in fixture_files(name)])


@pytest.mark.parametrize("seed", range(40))
def test_measured_parts_equal_text_on_generated_hierarchies(seed):
    rng = random.Random(80_000 + seed)
    _check_parts(random_hierarchy_sources(rng, depth=3))
    _check_parts(random_overloading_hierarchy(rng))


def test_measured_parts_equal_text_on_decision_table():
    for config in CONFIGS:
        _check_parts(list(build_sources(*config)))


def test_compare_and_metrics_write_no_java(tmp_path, monkeypatch):
    # SLOC is counted from each member's statement shape, not from its text.
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import workloads

    written = []
    member = emitter._Writer.member
    monkeypatch.setattr(emitter._Writer, "member",
                        lambda writer, decl: written.append(decl) or member(writer, decl))
    for module in (cli, emitter, metrics):
        emit = module.emit
        monkeypatch.setattr(module, "emit",
                            lambda *a, emit=emit, **k: written.append(a) or emit(*a, **k))
    workloads.deep_chain(40).write(tmp_path)
    for args in (["compare", str(tmp_path), "--format", "json"],
                 ["metrics", str(tmp_path), "--view", "original", "--format", "json"]):
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)["classes"]) == 40
    assert written == []
