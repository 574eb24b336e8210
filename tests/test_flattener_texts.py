"""The exact texts the flattener produces: diagnostics and collapsed references.

Each diagnostic case pins the full rendered text of every diagnostic the
flattening of one class reports, and the line the CLI writes for one of
them. Each collapse case flattens a class whose bodies reach a superclass
member through `super.` (the subclass's own bodies) or through the
superclass's name (a pulled body), with and without a local that captures
the bare name, and pins every rewrite directive and the emitted class.
"""

from __future__ import annotations

import shutil

import pytest
from click.testing import CliRunner

from flatjava import emit, flatten_model
from flatjava.cli import main

from conftest import FIXTURES_DIR, flatten_fixture, model_from_sources

A_FIELD_AND_METHOD = "class A { public int x; public int m(int a) { return a; } }"
A_STATICS = "class A { static int s; static int sm(int a) { return a; } int f(int a) { %s } }"
B_STATIC_OVERRIDES = "class B extends A { static int s; static int sm(int a) { return 0; } }"


def _flat_b(*sources):
    model = model_from_sources(*sources)
    return flatten_model(model)["B"]


# name: (fixture directory or sources, the rendered diagnostics of B)
DIAGNOSTICS = {
    "forced_rename_attribute": (
        "static_mismatch_illegal",
        ["[forced-rename] B: A.x is not a legal override of the subclass member but "
         "shares its name; pulled as x$A"],
    ),
    "forced_rename_static_mismatch_method": (
        ("class A { void m() { } }", "class B extends A { static void m() { } }"),
        ["[forced-rename] B: A.m() is not a legal override of the subclass member but "
         "shares its signature; pulled as m$A"],
    ),
    "forced_rename_final_method": (
        (
            "class A { final int m(int a) { return a; } }",
            "class B extends A { int m(int a) { return 1; } }",
        ),
        ["[forced-rename] B: A.m(int) is not a legal override of the subclass member but "
         "shares its signature; pulled as m$A"],
    ),
    "anomaly_r3": (
        "private_unused_attr",
        ["[anomaly-member] B: A.x is invisible and inaccessible; not pulled down (rule R3)"],
    ),
    "anomaly_r4c": (
        "override_attr_invisible_unaccessed",
        ["[anomaly-member] B: A.x is invisible and inaccessible; not pulled down (rule R4c)"],
    ),
    "anomaly_r8": (
        "private_unused_method",
        [
            "[anomaly-member] B: A.h() is invisible and inaccessible; not pulled down (rule R8)",
            "[anomaly-member] B: A.dead() is invisible and inaccessible; not pulled down "
            "(rule R8)",
        ],
    ),
    "ctor_only_parameterized": (
        ("class A { int a; A(int v) { a = v; } }", "class B extends A {\n}\n"),
        ["[unsupported-constructor] B: superclass A declares only parameterized "
         "constructors; implicit constructor chaining cannot be flattened"],
    ),
    "ctor_does_more_than_assign": (
        "ctor_unsupported",
        ["[unsupported-constructor] B: constructor of superclass A does more than assign "
         "literals to fields; its effects are not carried into the flattened class"],
    ),
    "rebound_call": (
        "overload_rebound",
        ["[rebound-call] B: the call to f(long) in A.g() binds to f(int) in the flattened class"],
    ),
    "ctor_assigns_initializer_read": (
        ("class A { int x = 1; int y = x; A() { x = 5; } }", "class B extends A {\n}\n"),
        ["[unsupported-constructor] B: constructor of superclass A assigns field(s) x that "
         "field initializers read; inlining would reorder initialization"],
    ),
}


@pytest.mark.parametrize("case", sorted(DIAGNOSTICS))
def test_diagnostic_text(case):
    source, rendered = DIAGNOSTICS[case]
    if isinstance(source, str):
        flat = flatten_fixture(source)[1]["B"]
    else:
        flat = _flat_b(*source)
    assert [d.render() for d in flat.diagnostics] == rendered


def test_cli_warning_line(tmp_path):
    source = tmp_path / "src"
    shutil.copytree(FIXTURES_DIR / "static_mismatch_illegal", source)
    shutil.rmtree(source / "expected")
    result = CliRunner().invoke(
        main, ["flatten", str(source), "--out", str(tmp_path / "out")], env={"FLATJAVA_COLOR": "0"}
    )
    assert result.exit_code == 0, result.output
    assert result.stderr == (
        "warning: [illegal-override-static] B: B.x and A.x differ in staticness; "
        "treated as non-overriding\n"
        "warning: [forced-rename] B: A.x is not a legal override of the subclass member but "
        "shares its name; pulled as x$A\n"
    )


def test_strict_fails_on_a_rebound_call(tmp_path):
    source = tmp_path / "src"
    shutil.copytree(FIXTURES_DIR / "overload_rebound", source)
    shutil.rmtree(source / "expected")
    args = ["flatten", str(source), "--out", str(tmp_path / "out")]
    env = {"FLATJAVA_COLOR": "0"}
    plain = CliRunner().invoke(main, args, env=env)
    strict = CliRunner().invoke(main, [*args, "--strict"], env=env)
    assert (plain.exit_code, strict.exit_code) == (0, 1), plain.output
    assert strict.stderr == plain.stderr == (
        "warning: [rebound-call] B: the call to f(long) in A.g() binds to f(int) in the "
        "flattened class\n"
    )


# name: (sources, (spanned text, old, new, target_owner) of each rewrite of B,
#        B's emitted method f)
COLLAPSES = {
    "super_refs": (
        (A_FIELD_AND_METHOD, "class B extends A { int f(int a) { return super.x + super.m(a); } }"),
        [("super.x", "super.x", "x", "A"), ("super.m(a)", "super.m", "m", "A")],
        "    int f(int a) {\n"
        "        return x + m(a);\n"
        "    }\n",
    ),
    "super_refs_captured": (
        (
            A_FIELD_AND_METHOD,
            "class B extends A { int f(int a) { int x = 2; int m = 3; "
            "return super.x + super.m(a) + x + m; } }",
        ),
        [("super.x", "super.x", "x", "A"), ("super.m(a)", "super.m", "m", "A")],
        "    int f(int a) {\n"
        "        int x = 2;\n"
        "        int m = 3;\n"
        "        return this.x + m(a) + x + m;\n"
        "    }\n",
    ),
    "super_refs_renamed": (
        (
            A_FIELD_AND_METHOD,
            "class B extends A { public int x; public int m(int a) { return 0; } "
            "int f(int a) { return super.x + super.m(a); } }",
        ),
        [("super.x", "super.x", "x$A", "A"), ("super.m(a)", "super.m", "m$A", "A")],
        "    int f(int a) {\n"
        "        return x$A + m$A(a);\n"
        "    }\n",
    ),
    "super_refs_renamed_captured": (
        (
            A_FIELD_AND_METHOD,
            "class B extends A { public int x; public int m(int a) { return 0; } "
            "int f(int a) { int x$A = 1; return super.x + super.m(a) + x$A; } }",
        ),
        [("super.x", "super.x", "x$A", "A"), ("super.m(a)", "super.m", "m$A", "A")],
        "    int f(int a) {\n"
        "        int x$A = 1;\n"
        "        return this.x$A + m$A(a) + x$A;\n"
        "    }\n",
    ),
    "static_refs": (
        (A_STATICS % "return A.s + A.sm(a);", "class B extends A { }"),
        [("A.s", "A.s", "s", "A"), ("A.sm(a)", "A.sm", "sm", "A")],
        "    int f(int a) {\n"
        "        return s + sm(a);\n"
        "    }\n",
    ),
    "static_refs_captured": (
        (A_STATICS % "int s = 1; int sm = 2; return A.s + A.sm(a) + s + sm;",
         "class B extends A { }"),
        [("A.s", "A.s", "s", "A"), ("A.sm(a)", "A.sm", "sm", "A")],
        "    int f(int a) {\n"
        "        int s = 1;\n"
        "        int sm = 2;\n"
        "        return this.s + sm(a) + s + sm;\n"
        "    }\n",
    ),
    "static_refs_renamed": (
        (A_STATICS % "return A.s + A.sm(a);", B_STATIC_OVERRIDES),
        [("A.s", "A.s", "s$A", "A"), ("A.sm(a)", "A.sm", "sm$A", "A")],
        "    int f(int a) {\n"
        "        return s$A + sm$A(a);\n"
        "    }\n",
    ),
    "static_refs_renamed_captured": (
        (A_STATICS % "int s$A = 1; return A.s + A.sm(a) + s$A;", B_STATIC_OVERRIDES),
        [("A.s", "A.s", "s$A", "A"), ("A.sm(a)", "A.sm", "sm$A", "A")],
        "    int f(int a) {\n"
        "        int s$A = 1;\n"
        "        return this.s$A + sm$A(a) + s$A;\n"
        "    }\n",
    ),
}


@pytest.mark.parametrize("case", sorted(COLLAPSES))
def test_collapsed_reference(case):
    sources, rewrites, body = COLLAPSES[case]
    flat = _flat_b(*sources)
    # A super reference is in B's own body, a static one in A's pulled body.
    source = sources[0] if case.startswith("static") else sources[1]
    assert [
        (source[r.span[0]:r.span[1]], r.old, r.new, r.target_owner) for r in flat.rewrites
    ] == rewrites
    assert body in emit(flat)


def test_collapsed_super_refs_are_renamed_again_below():
    # B's own body reached A's members through `super.`; pulled into C,
    # which overrides both, the collapsed references follow the renames.
    model = model_from_sources(
        A_FIELD_AND_METHOD,
        "class B extends A { int f(int a) { int x$A = 1; return super.x + super.m(a) + x$A; } }",
        "class C extends B { public int x; public int m(int a) { return 0; } }",
    )
    flat = flatten_model(model)["C"]
    assert [(r.old, r.new, r.target_owner) for r in flat.rewrites] == [
        ("x", "x$A", "B"), ("m", "m$A", "B"),
    ]
    assert emit(flat) == (
        "class C {\n"
        "    public int x;\n"
        "\n"
        "    public int m(int a) {\n"
        "        return 0;\n"
        "    }\n"
        "\n"
        "    int f(int a) {\n"
        "        int x$A = 1;\n"
        "        return this.x$A + m$A(a) + x$A;\n"
        "    }\n"
        "\n"
        "    public int x$A;\n"
        "\n"
        "    public int m$A(int a) {\n"
        "        return a;\n"
        "    }\n"
        "}\n"
    )
