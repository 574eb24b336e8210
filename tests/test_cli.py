"""End-to-end CLI tests: commands, exit codes, formats, schemas."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from flatjava.cli import main
from flatjava.parser import MAX_NESTING
from flatjava.report import load_schema

from conftest import FIXTURES_DIR, golden_path

jsonschema = pytest.importorskip("jsonschema")

runner = CliRunner()

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_duplicate_constructor_exit_2_located(tmp_path):
    (tmp_path / "A.java").write_text("class A {\n    A() { }\n    A() { }\n}\n")
    (tmp_path / "B.java").write_text("class B extends A { }\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["flatten", str(tmp_path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"{tmp_path / 'A.java'}:3:5: duplicate constructor 'A()' in class A" in result.output
    assert not out.exists()


def test_flatten_reports_first_error_per_file(tmp_path):
    (tmp_path / "A.java").write_text("class A { int x = ; }\n")
    (tmp_path / "B.java").write_text("class B { int y = ; }\n")
    result = runner.invoke(main, ["flatten", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.count("error:") == 2


@pytest.mark.parametrize("command", ["flatten", "metrics", "compare"])
def test_source_not_utf8_exit_2_names_file(tmp_path, command):
    bad = tmp_path / "A.java"
    bad.write_bytes(b"class A { }\n\xff\xfe")
    (tmp_path / "B.java").write_text("class B extends A { }\n")
    out = tmp_path / "out"
    extra = {"flatten": ["--out", str(out)], "metrics": ["--view", "original"], "compare": []}
    args = [command, str(tmp_path), *extra[command]]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output == (
        f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 12: "
        "invalid start byte\n"
    )
    assert not out.exists()


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
    model, flattened = flatten_fixture("pull_visible_basic")
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
    runs = {
        color: runner.invoke(
            main, ["flatten", str(src_dir), "--out", str(tmp_path / f"o{color}")],
            env={"FLATJAVA_COLOR": color},
        )
        for color in ("1", "0", None)
    }
    warning = "warning: [unsupported-constructor] B: constructor of superclass A does more"
    assert runs["1"].stderr.startswith(f"\x1b[33m{warning}")
    assert runs["1"].stderr.endswith("\x1b[0m\n")
    assert runs["1"].stderr == f"\x1b[33m{runs['0'].stderr[:-1]}\x1b[0m\n"
    # Unset, color follows whether stderr is a terminal; here it is not.
    assert runs["0"].stderr == runs[None].stderr
    assert runs["0"].stderr.startswith(warning) and "\x1b" not in runs["0"].stderr
    assert runs["1"].stdout == runs["0"].stdout.replace("o0", "o1")

    bad = tmp_path / "G.java"
    bad.write_text((FIXTURES_DIR / "invalid" / "for_loop.java").read_text())
    on = runner.invoke(main, ["flatten", str(bad)], env={"FLATJAVA_COLOR": "1"})
    assert on.exit_code == 2
    assert on.stderr == f"\x1b[31merror: {bad}:3:9: unsupported feature: 'for' statements\x1b[0m\n"


def module_env() -> dict[str, str]:
    """The environment for `python -m flatjava.cli` on this checkout's
    sources, with FLATJAVA_COLOR unset."""
    env = {k: v for k, v in os.environ.items() if k != "FLATJAVA_COLOR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_color_follows_terminal_when_unset(tmp_path):
    pty = pytest.importorskip("pty")
    src_dir = copy_fixture("ctor_unsupported", tmp_path)
    controller, terminal = pty.openpty()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flatjava.cli", "flatten", str(src_dir), "--out",
             str(tmp_path / "out")],
            stdout=subprocess.PIPE, stderr=terminal, env=module_env(), timeout=60,
        )
        os.close(terminal)
        seen = b""
        while True:
            try:
                chunk = os.read(controller, 4096)
            except OSError:  # EIO once the terminal side is closed and drained
                break
            if not chunk:
                break
            seen += chunk
    finally:
        os.close(controller)
    assert proc.returncode == 0
    assert seen.startswith(b"\x1b[33mwarning: [unsupported-constructor] B: ")
    assert seen.rstrip().endswith(b"\x1b[0m")
    assert b"\x1b" not in proc.stdout


def test_running_the_module_reads_sys_argv():
    proc = subprocess.run(
        [sys.executable, "-m", "flatjava.cli", "advise", "refactoring"],
        capture_output=True, text=True, env=module_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["application: refactoring", "recommended view: original"]
    assert len(lines) == 3 and lines[2].startswith("why: ")


def written(root):
    return sorted(
        str(p.relative_to(root)) for p in root.rglob("*")
        if p.name.endswith(".flat.java") or p.name == "flatten.plan.json"
    )


USAGE_ERRORS = {
    "out_is_a_file": ["flatten", "{src}", "--out", "{file}"],
    "missing_path": ["flatten", "{src}", "{src}/Nope.java"],
    "abbreviated_option": ["flatten", "{src}", "--prov"],
    "unknown_option": ["compare", "{src}", "--provenance"],
    "option_missing_value": ["flatten", "{src}", "--out"],
    "no_paths": ["flatten"],
    "missing_view": ["metrics", "{src}"],
    "bad_view": ["metrics", "{src}", "--view", "both"],
    "bad_format": ["compare", "{src}", "--format", "xml"],
    "no_command": [],
    "unknown_command": ["flattn", "{src}"],
    "no_application": ["advise"],
    "extra_application": ["advise", "refactoring", "maintainability"],
    "advise_option": ["advise", "refactoring", "--strict"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2_and_write_nothing(tmp_path, case):
    src_dir = copy_fixture("chain3", tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    args = [a.format(src=src_dir, file=afile) for a in USAGE_ERRORS[case]]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert result.stdout == ""
    assert written(tmp_path) == []
    assert afile.read_text() == "keep\n"


@pytest.mark.parametrize("command", [
    ["flatten", "--out", "{out}"], ["metrics", "--view", "original"], ["compare"]])
@pytest.mark.parametrize("emitted", [False, True])
def test_no_java_source_exit_2_names_the_paths(tmp_path, command, emitted):
    # A directory with no `*.java`, or only previously emitted `*.flat.java`.
    empty, other = tmp_path / "empty", tmp_path / "other"
    empty.mkdir()
    other.mkdir()
    (other / "notes.txt").write_text("class A { }\n")
    if emitted:
        (empty / "A.flat.java").write_text("class A { }\n")
    out = tmp_path / "out"
    args = [a.format(out=out) for a in command]
    result = runner.invoke(main, [args[0], str(empty), str(other), *args[1:]])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr == (
        f"error: no *.java files (other than *.flat.java) in {empty}, {other}\n")
    assert not out.exists()


def test_paths_may_follow_options(tmp_path):
    src_dir = copy_fixture("chain3", tmp_path)
    c1, c2, c3 = (str(src_dir / f"{c}.java") for c in ("c1", "c2", "c3"))
    mixed = runner.invoke(main, ["flatten", c1, "--strict", c2, c3, "--out", str(tmp_path / "o1")])
    plain = runner.invoke(main, ["flatten", c1, c2, c3, "--strict", "--out", str(tmp_path / "o2")])
    assert mixed.exit_code == plain.exit_code == 0, mixed.output
    assert mixed.stdout == plain.stdout.replace("o2", "o1")
    one, two = tmp_path / "o1", tmp_path / "o2"
    assert written(one) == written(two) == ["c1.flat.java", "c2.flat.java", "c3.flat.java",
                                            "flatten.plan.json"]
    for name in written(one):
        assert (one / name).read_text() == (two / name).read_text()


def test_option_value_after_equals_sign(tmp_path):
    src_dir = copy_fixture("identity_rich", tmp_path)
    joined = runner.invoke(main, ["metrics", str(src_dir), "--view=original", "--format=csv"])
    split = runner.invoke(main, ["metrics", str(src_dir), "--view", "original", "--format", "csv"])
    assert joined.exit_code == 0, joined.output
    assert joined.stdout == split.stdout
    assert joined.stdout.startswith("name,view,")


def test_interrupt_exits_1_without_traceback(tmp_path, monkeypatch):
    def interrupted(model):
        raise KeyboardInterrupt

    monkeypatch.setattr("flatjava.cli.compute_access_graph", interrupted)
    src_dir = copy_fixture("identity_minimal", tmp_path)
    result = runner.invoke(main, ["compare", str(src_dir)])
    assert result.exit_code == 1
    assert result.output == "\nAborted!\n"


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


def test_member_of_primitive_receiver_exit_2(tmp_path):
    # An `int` has no members; the access is outside the subset, not an
    # unmodeled external type.
    (tmp_path / "A.java").write_text("class A {\n    int x;\n}\n")
    (tmp_path / "B.java").write_text(
        "class B extends A {\n    int f() {\n        return super.x.y;\n    }\n}\n"
    )
    result = runner.invoke(main, ["metrics", str(tmp_path), "--view", "original"])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {tmp_path / 'B.java'}:3:16: int cannot be dereferenced\n"


@pytest.mark.parametrize("access", ["v().x", "v().f()"])
def test_member_of_void_call_result_exit_2(tmp_path, access):
    (tmp_path / "A.java").write_text(
        f"class A {{\n    void v() {{ }}\n\n    int g() {{\n        return {access};\n    }}\n}}\n"
    )
    result = runner.invoke(main, ["metrics", str(tmp_path), "--view", "original"])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {tmp_path / 'A.java'}:5:16: void cannot be dereferenced\n"
