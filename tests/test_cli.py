"""End-to-end CLI tests: commands, exit codes, formats, schemas."""

from __future__ import annotations

import json
import shutil

import pytest
from click.testing import CliRunner

from flatjava.cli import main
from flatjava.parser import MAX_NESTING
from flatjava.report import load_schema

from conftest import FIXTURES_DIR, golden_path

jsonschema = pytest.importorskip("jsonschema")

runner = CliRunner()


def copy_fixture(name, tmp_path):
    target = tmp_path / name
    shutil.copytree(FIXTURES_DIR / name, target)
    shutil.rmtree(target / "expected", ignore_errors=True)
    return target


def test_flatten_identity_fixture(tmp_path):
    src_dir = copy_fixture("identity_minimal", tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["flatten", str(src_dir), "--out", str(out)])
    assert result.exit_code == 0, result.output
    emitted = (out / "A.flat.java").read_text()
    assert emitted == (src_dir / "A.java").read_text()


def test_flatten_writes_all_chain_files_and_plan(tmp_path):
    src_dir = copy_fixture("chain3", tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["flatten", str(src_dir), "--out", str(out)])
    assert result.exit_code == 0, result.output
    for cls in ("c1", "c2", "c3"):
        emitted = (out / f"{cls}.flat.java").read_text()
        assert emitted == golden_path("chain3", cls).read_text()
    plan = json.loads((out / "flatten.plan.json").read_text())
    jsonschema.validate(plan, load_schema("plan_v1"))
    assert plan["schema"] == "plan/v1"
    # c1 reuses c2's flattened members, so base/root appear in its fates.
    c1 = [c for c in plan["classes"] if c["name"] == "c1"][0]
    assert {f["member"] for f in c1["fates"]} == {"mid", "twice()", "base", "root()"}


def test_flatten_writes_beside_sources_by_default(tmp_path):
    src_dir = copy_fixture("pull_visible_basic", tmp_path)
    result = runner.invoke(main, ["flatten", str(src_dir)])
    assert result.exit_code == 0, result.output
    assert (src_dir / "B.flat.java").exists()
    assert (src_dir / "flatten.plan.json").exists()


def test_flatten_provenance_flag(tmp_path):
    src_dir = copy_fixture("private_accessor_pair", tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["flatten", str(src_dir), "--out", str(out), "--provenance"]
    )
    assert result.exit_code == 0
    assert "// pulled from A" in (out / "B.flat.java").read_text()


def test_flatten_unsupported_feature_exit_2(tmp_path):
    bad = tmp_path / "G.java"
    bad.write_text((FIXTURES_DIR / "invalid" / "generics_class.java").read_text())
    result = runner.invoke(main, ["flatten", str(bad)])
    assert result.exit_code == 2
    assert "unsupported feature" in result.output


def test_flatten_model_error_exit_2(tmp_path):
    for f in (FIXTURES_DIR / "modelbad" / "cycle").glob("*.java"):
        (tmp_path / f.name).write_text(f.read_text())
    result = runner.invoke(main, ["flatten", str(tmp_path)])
    assert result.exit_code == 2
    assert "cycle" in result.output


def test_flatten_reports_first_error_per_file(tmp_path):
    (tmp_path / "A.java").write_text("class A { int x = ; }\n")
    (tmp_path / "B.java").write_text("class B { int y = ; }\n")
    result = runner.invoke(main, ["flatten", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.count("error:") == 2


@pytest.mark.parametrize(
    "field,column,char",
    [("int x = ٣٤;", 13, "٣"), ("int y = 1²;", 14, "²")],
)
def test_non_ascii_digits_are_illegal_characters(tmp_path, field, column, char):
    # Java number literals are ASCII digits only.
    (tmp_path / "A.java").write_text(f"class A {{\n    {field}\n}}\n", encoding="utf-8")
    result = runner.invoke(main, ["flatten", str(tmp_path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"A.java:2:{column}: illegal character {char!r}" in result.output


@pytest.mark.parametrize("command", [["flatten"], ["compare", "--format", "json"]])
def test_flattened_class_error_names_file_of_body(tmp_path, command):
    # m(null) resolves in A, but B's m(Foo) makes it ambiguous in flattened B;
    # the call is in A.java, and B.java has 5 lines.
    (tmp_path / "A.java").write_text(
        "class A {\n    int m(String s) {\n        return 1;\n    }\n\n"
        "    int run() {\n        return m(null);\n    }\n}\n"
    )
    (tmp_path / "B.java").write_text(
        "class B extends A {\n    int m(Foo s) {\n        return 2;\n    }\n}\n"
    )
    result = runner.invoke(main, [command[0], str(tmp_path), *command[1:]])
    assert result.exit_code == 2, result.output
    assert (
        f"{tmp_path / 'A.java'}:7:16: call 'm' with argument types (null) matches 2 overloads"
        in result.output
    )


def test_unexpected_exception_exit_3_without_traceback(tmp_path, monkeypatch):
    def broken(model):
        raise RuntimeError("boom")

    monkeypatch.setattr("flatjava.cli.compute_access_graph", broken)
    src_dir = copy_fixture("identity_minimal", tmp_path)
    result = runner.invoke(main, ["metrics", str(src_dir), "--view", "original"])
    assert result.exit_code == 3
    assert result.output == "internal error: RuntimeError('boom')\n"


def test_strict_promotes_diagnostics(tmp_path):
    src_dir = copy_fixture("ctor_unsupported", tmp_path)
    ok = runner.invoke(main, ["flatten", str(src_dir), "--out", str(tmp_path / "o1")])
    assert ok.exit_code == 0
    strict = runner.invoke(
        main, ["flatten", str(src_dir), "--out", str(tmp_path / "o2"), "--strict"]
    )
    assert strict.exit_code == 1


def test_metrics_view_original_succeeds_despite_flatten_diagnostics(tmp_path):
    src_dir = copy_fixture("ctor_unsupported", tmp_path)
    result = runner.invoke(
        main, ["metrics", str(src_dir), "--view", "original", "--strict"]
    )
    assert result.exit_code == 0, result.output


def test_metrics_empty_class_row(tmp_path):
    src_dir = copy_fixture("identity_minimal", tmp_path)
    result = runner.invoke(main, ["metrics", str(src_dir), "--view", "original"])
    assert result.exit_code == 0
    document = json.loads(result.output)
    jsonschema.validate(document, load_schema("report_v1"))
    (row,) = document["classes"]
    assert row["noa"] == 0 and row["nom"] == 0


def test_metrics_flattened_matches_library(tmp_path):
    from conftest import flatten_fixture
    from flatjava import measure_flattened

    src_dir = copy_fixture("pull_visible_basic", tmp_path)
    result = runner.invoke(main, ["metrics", str(src_dir), "--view", "flattened"])
    assert result.exit_code == 0
    document = json.loads(result.output)
    model, _, flattened = flatten_fixture("pull_visible_basic")
    expected = measure_flattened(model, flattened["B"]).as_dict()
    row = [r for r in document["classes"] if r["name"] == "B"][0]
    assert row == expected


@pytest.mark.parametrize("fmt,probe", [("csv", "name,view"), ("markdown", "| name |")])
def test_metrics_other_formats(tmp_path, fmt, probe):
    src_dir = copy_fixture("identity_rich", tmp_path)
    result = runner.invoke(
        main, ["metrics", str(src_dir), "--view", "original", "--format", fmt]
    )
    assert result.exit_code == 0
    assert probe in result.output


def test_compare_json_schema(tmp_path):
    src_dir = copy_fixture("chain3", tmp_path)
    result = runner.invoke(main, ["compare", str(src_dir)])
    assert result.exit_code == 0, result.output
    document = json.loads(result.output)
    jsonschema.validate(document, load_schema("compare_v1"))
    c1 = [c for c in document["classes"] if c["name"] == "c1"][0]
    assert c1["delta"]["noa"] == 2
    assert c1["rules"]["R5"] == 2


def test_compare_markdown(tmp_path):
    src_dir = copy_fixture("chain3", tmp_path)
    result = runner.invoke(main, ["compare", str(src_dir), "--format", "markdown"])
    assert result.exit_code == 0
    assert "| c1 |" in result.output


ADVISE_EXPECTED = {
    "refactoring": "original",
    "adaptability": "flattened",
    "reusability": "flattened",
    "understandability": "flattened",
    "maintainability": "flattened",
    "completeness": "flattened",
    "testability-class": "original",
    "testability-cluster": "flattened",
}


@pytest.mark.parametrize("application,view", sorted(ADVISE_EXPECTED.items()))
def test_advise_mapping(application, view):
    result = runner.invoke(main, ["advise", application])
    assert result.exit_code == 0
    assert f"recommended view: {view}" in result.output
    assert "why: " in result.output


def test_advise_unknown_application_usage_error():
    result = runner.invoke(main, ["advise", "telepathy"])
    assert result.exit_code == 2


def test_color_env_var(tmp_path):
    src_dir = copy_fixture("ctor_unsupported", tmp_path)
    on = runner.invoke(
        main, ["flatten", str(src_dir), "--out", str(tmp_path / "o1")],
        env={"FLATJAVA_COLOR": "1"},
    )
    off = runner.invoke(
        main, ["flatten", str(src_dir), "--out", str(tmp_path / "o2")],
        env={"FLATJAVA_COLOR": "0"},
    )
    assert "\x1b[" in on.output
    assert "\x1b[" not in off.output


def test_determinism_two_cli_runs(tmp_path):
    src_dir = copy_fixture("deep_mixed", tmp_path)
    outs = []
    for i in (1, 2):
        out = tmp_path / f"out{i}"
        result = runner.invoke(main, ["flatten", str(src_dir), "--out", str(out)])
        assert result.exit_code == 0
        outs.append(
            {p.name: p.read_text() for p in sorted(out.iterdir())}
        )
    assert outs[0] == outs[1]


def test_explicit_file_arguments(tmp_path):
    src_dir = copy_fixture("pull_visible_basic", tmp_path)
    result = runner.invoke(
        main,
        [
            "flatten",
            str(src_dir / "A.java"),
            str(src_dir / "B.java"),
            "--out",
            str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 0
    assert (tmp_path / "out" / "B.flat.java").exists()


def test_include_object_root_flag(tmp_path):
    src_dir = copy_fixture("identity_minimal", tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["flatten", str(src_dir), "--out", str(out), "--include-object-root"]
    )
    assert result.exit_code == 0
    # The synthetic root is modeled but never emitted, and contributes nothing.
    assert not (out / "Object.flat.java").exists()
    assert (out / "A.flat.java").read_text() == (src_dir / "A.java").read_text()


def test_reflatten_in_place_ignores_previous_outputs(tmp_path):
    src_dir = copy_fixture("pull_visible_basic", tmp_path)
    first = runner.invoke(main, ["flatten", str(src_dir)])
    assert first.exit_code == 0
    snapshot = (src_dir / "B.flat.java").read_text()
    second = runner.invoke(main, ["flatten", str(src_dir)])
    assert second.exit_code == 0, second.output
    assert (src_dir / "B.flat.java").read_text() == snapshot


# Each builds A.java whose deepest initializer or body is `depth` nodes deep,
# with the line that nests deepest; B extends A, so flattening B walks the
# pulled copy too.
NESTED = {
    "parens": (2, lambda d: f"class A {{\n    int x = {'(' * (d - 1)}1{')' * (d - 1)};\n}}\n"),
    "binary": (2, lambda d: "class A {\n    int x = " + " + ".join(["1"] * d) + ";\n}\n"),
    "unary": (2, lambda d: f"class A {{\n    int x = {'- ' * (d - 1)}1;\n}}\n"),
    "calls": (3, lambda d: (
        "class A {\n    int f(int a) { return a; }\n"
        f"    int x = {'f(' * (d - 1)}1{')' * (d - 1)};\n}}\n"
    )),
    "new": (4, lambda d: (
        "class A {\n    A() { }\n    A(A a) { }\n"
        f"    A x = {'new A(' * (d - 1)}null{')' * (d - 1)};\n}}\n"
    )),
    "receiver_calls": (4, lambda d: (
        "class A {\n    A a;\n    int f(int v) { return v; }\n"
        f"    int x = {'a.f(' * (d - 1)}1{')' * (d - 1)};\n}}\n"
    )),
    # `b` and d - 1 calls on it.
    "call_chain": (4, lambda d: (
        "class A {\n    A b;\n    A app(int v) { return this; }\n"
        f"    A x = b{'.app(1)' * (d - 1)};\n}}\n"
    )),
    # `this` and d - 1 member accesses.
    "field_chain": (4, lambda d: (
        "class A {\n    A a;\n    int v;\n    int x = this" + ".a" * (d - 2) + ".v;\n}\n"
    )),
    # The body block, then d - 1 nested blocks.
    "blocks": (3, lambda d: f"class A {{\n    void f() {{\n{'{' * (d - 1)}{'}' * (d - 1)}\n    }}\n}}\n"),
    # The body block, d - 3 ifs, the assignment and its operands.
    "ifs": (4, lambda d: (
        "class A {\n    boolean b;\n    void f() {\n"
        f"{'if (b) ' * (d - 3)}b = true;\n    }}\n}}\n"
    )),
    "whiles": (4, lambda d: (
        "class A {\n    boolean b;\n    void f() {\n"
        f"{'while (b) ' * (d - 3)}b = true;\n    }}\n}}\n"
    )),
    # The body block, d - 3 arms chained by `else`, the last `return` and its value.
    "else_ifs": (4, lambda d: (
        "class A {\n    int v;\n    int f() {\n"
        + "".join(f"if (v == {i}) return {i}; else " for i in range(d - 3))
        + "return 0;\n    }\n}\n"
    )),
}
def write_nested(tmp_path, shape, depth):
    (tmp_path / "A.java").write_text(NESTED[shape][1](depth))
    (tmp_path / "B.java").write_text("class B extends A { }\n")
    return tmp_path


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_at_limit_flattens_and_compares(tmp_path, shape):
    src = write_nested(tmp_path, shape, MAX_NESTING)
    result = runner.invoke(main, ["flatten", str(src), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["compare", str(src)])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_past_limit_exit_2_located(tmp_path, shape):
    src = write_nested(tmp_path, shape, MAX_NESTING + 1)
    line = NESTED[shape][0]
    for args in (["flatten", str(src), "--out", str(tmp_path / "out")], ["compare", str(src)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"A.java:{line}:" in result.output
        assert f"nesting deeper than {MAX_NESTING} levels" in result.output


def test_long_concatenation_and_else_if_ladder_flatten(tmp_path):
    # A toString over 50 fields (100 terms) and an 80-arm dispatch: each is a
    # chain about as deep as it is long, and ordinary Java.
    fields = [f"f{i}" for i in range(50)]
    (tmp_path / "A.java").write_text(
        "class A {\n"
        + "".join(f"    int {f};\n" for f in fields)
        + "    String show() { return "
        + " + ".join(f'"{f}=" + {f}' for f in fields)
        + "; }\n    int pick(int k) {\n"
        + "".join(f"        if (k == {i}) return {i}; else\n" for i in range(80))
        + "        return 0;\n    }\n}\n"
    )
    (tmp_path / "B.java").write_text("class B extends A { }\n")
    result = runner.invoke(main, ["flatten", str(tmp_path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    flat = (tmp_path / "out" / "B.flat.java").read_text()
    assert "f48 + \"f49=\" + f49;" in flat and "else if (k == 79)" in flat
    result = runner.invoke(main, ["compare", str(tmp_path)])
    assert result.exit_code == 0, result.output


def test_this_access_to_private_ancestor_field_exit_2(tmp_path):
    # `this.x` sees an inherited field like a bare `x` does; a private one
    # stays out of reach.
    (tmp_path / "A.java").write_text("class A {\n    private int x = 1;\n}\n")
    (tmp_path / "B.java").write_text(
        "class B extends A {\n    int f() {\n        return this.x;\n    }\n}\n"
    )
    result = runner.invoke(main, ["flatten", str(tmp_path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"{tmp_path / 'B.java'}:3:21: class B has no attribute 'x'" in result.output
