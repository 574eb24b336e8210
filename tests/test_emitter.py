"""Emitter tests: canonical format, options, re-parse law, stability."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from flatjava import emit, emitter, parse_source, tokenize, tree
from flatjava.lexer import token_signature
from flatjava.spans import EMPTY_SPAN

from conftest import CORPUS, fixture_sources, flatten_fixture


def test_canonical_empty_class():
    assert emit(parse_source("class A{}")) == "class A {\n}\n"


def test_field_method_layout():
    unit = parse_source("class A{private int x=1;public int f(){return x;}}")
    assert emit(unit) == (
        "class A {\n"
        "    private int x = 1;\n"
        "\n"
        "    public int f() {\n"
        "        return x;\n"
        "    }\n"
        "}\n"
    )


def test_package_and_extends_header():
    unit = parse_source("package p;class B extends A{}")
    assert emit(unit) == "package p;\n\nclass B extends A {\n}\n"


def test_nonblock_if_else_layout():
    unit = parse_source("class A{void f(boolean c){if(c)return;else{c=false;}}}")
    assert emit(unit) == (
        "class A {\n"
        "    void f(boolean c) {\n"
        "        if (c)\n"
        "            return;\n"
        "        else {\n"
        "            c = false;\n"
        "        }\n"
        "    }\n"
        "}\n"
    )


def test_else_if_chain():
    unit = parse_source(
        "class A{void f(int v){if(v<0){v=0;}else if(v>9){v=9;}else{v=1;}}}"
    )
    emitted = emit(unit)
    assert "} else if (v > 9) {" in emitted
    assert "} else {" in emitted


def test_while_and_block_statement():
    unit = parse_source("class A{void f(int v){while(v>0){v=v-1;}{v=2;}}}")
    emitted = emit(unit)
    assert "        while (v > 0) {" in emitted
    assert "        {\n            v = 2;\n        }" in emitted


def test_nonblock_while_body():
    unit = parse_source("class A{void f(int v){while(v>0)v=v-1;}}")
    assert "        while (v > 0)\n            v = v - 1;" in emit(unit)


# Statements of `void f(boolean c, int v)`, and their exact emitted lines.
LAYOUTS = {
    "then_braced": (
        "if(c){v=1;}",
        ["if (c) {", "    v = 1;", "}"],
    ),
    "then_braced_else_braced": (
        "if(c){v=1;}else{v=2;}",
        ["if (c) {", "    v = 1;", "} else {", "    v = 2;", "}"],
    ),
    "then_braced_else_unbraced": (
        "if(c){v=1;}else v=2;",
        ["if (c) {", "    v = 1;", "} else", "    v = 2;"],
    ),
    "then_braced_else_if": (
        "if(c){v=1;}else if(v>0){v=2;}else v=3;",
        ["if (c) {", "    v = 1;", "} else if (v > 0) {", "    v = 2;", "} else", "    v = 3;"],
    ),
    "then_unbraced": (
        "if(c)v=1;",
        ["if (c)", "    v = 1;"],
    ),
    "then_unbraced_else_braced": (
        "if(c)v=1;else{v=2;}",
        ["if (c)", "    v = 1;", "else {", "    v = 2;", "}"],
    ),
    "then_unbraced_else_unbraced": (
        "if(c)v=1;else v=2;",
        ["if (c)", "    v = 1;", "else", "    v = 2;"],
    ),
    "then_unbraced_else_if": (
        "if(c)v=1;else if(v>0)v=2;else{v=3;}",
        ["if (c)", "    v = 1;", "else if (v > 0)", "    v = 2;", "else {", "    v = 3;", "}"],
    ),
    "while_braced": (
        "while(v>0){v=v-1;}",
        ["while (v > 0) {", "    v = v - 1;", "}"],
    ),
    "while_unbraced": (
        "while(v>0)v=v-1;",
        ["while (v > 0)", "    v = v - 1;"],
    ),
    "nested_block": (
        "{v=1;{v=2;}}",
        ["{", "    v = 1;", "    {", "        v = 2;", "    }", "}"],
    ),
    "empty_blocks": (
        "{}if(c){}else{}while(c){}",
        ["{", "}", "if (c) {", "} else {", "}", "while (c) {", "}"],
    ),
    "nested_unbraced": (
        "while(c)if(c)while(c)v=1;else return;",
        ["while (c)", "    if (c)", "        while (c)", "            v = 1;",
         "    else", "        return;"],
    ),
}


@pytest.mark.parametrize("case", sorted(LAYOUTS))
def test_statement_layout(case):
    body, lines = LAYOUTS[case]
    unit = parse_source("class A{void f(boolean c,int v){" + body + "}}")
    assert emitter.member_line_count(unit.class_decl.members[0]) == 2 + len(lines)
    assert emit(unit) == (
        "class A {\n"
        "    void f(boolean c, int v) {\n"
        + "".join(f"        {line}\n" for line in lines)
        + "    }\n"
        "}\n"
    )


# --- line counts from statement shape ----------------------------------------

_S = EMPTY_SPAN
_COND = tree.Name("c", _S)
_simple = st.sampled_from([
    tree.Return(None, _S),
    tree.Return(tree.Name("v", _S), _S),
    tree.ExprStmt(tree.Call(None, "g", [], _S, _S), _S),
    tree.Assign(tree.Name("v", _S), tree.Literal("int", "1", _S), _S),
    tree.LocalDecl(tree.TypeRef("int", False, _S), "w", None, _S),
])


def _compound(inner):
    return st.one_of(
        st.lists(inner, max_size=3).map(lambda statements: tree.Block(statements, _S)),
        inner.map(lambda body: tree.While(_COND, body, _S)),
        st.builds(lambda then, els: tree.If(_COND, then, els, _S), inner, st.none() | inner),
        # An `else if` chain, each branch braced or not.
        st.lists(st.tuples(inner, st.booleans()), min_size=2, max_size=4).map(_else_if_chain),
    )


def _else_if_chain(branches) -> tree.If:
    chain = None
    for body, braced in reversed(branches):
        chain = tree.If(_COND, tree.Block([body], _S) if braced else body, chain, _S)
    return chain


_statements = st.lists(st.recursive(_simple, _compound, max_leaves=12), max_size=4)


@given(_statements, st.booleans())
def test_line_count_is_the_number_of_lines_written(statements, ctor):
    body = tree.Block(statements, _S)
    if ctor:
        decl = tree.CtorDecl("public", "A", [], body, _S, _S)
    else:
        decl = tree.MethodDecl("package", False, False, None, "f", [], body, _S, _S)
    writer = emitter._Writer()
    writer.write_member(decl)
    assert emitter.member_line_count(decl) == len(writer.lines)
    assert decl.line_count == len(writer.lines)  # kept on the node


def test_line_count_of_a_field_is_one():
    decl = parse_source("class A { int x = 1 + 2; }").class_decl.members[0]
    assert emitter.member_line_count(decl) == 1


def test_member_modifiers_and_empty_bodies_layout():
    unit = parse_source(
        "class A{protected static final int k=1;A(){}public static final void g(){}}"
    )
    assert emit(unit) == (
        "class A {\n"
        "    protected static final int k = 1;\n"
        "\n"
        "    A() {\n"
        "    }\n"
        "\n"
        "    public static final void g() {\n"
        "    }\n"
        "}\n"
    )


def test_long_double_literals_roundtrip():
    source = "class A{long big=42L;double d=2.5e-1;void f(){big=big+1;}}"
    unit = parse_source(source)
    emitted = emit(unit)
    assert "long big = 42L;" in emitted
    assert "double d = 2.5e-1;" in emitted
    assert token_signature(tokenize(emitted)) == token_signature(tokenize(source))


def test_provenance_comments_on_flattened_output():
    _, flattened = flatten_fixture("private_accessor_pair")
    text = emit(flattened["B"], provenance=True)
    assert "// pulled from A" in text
    assert text.index("// pulled from A") < text.index("private int x;")
    # Off by default.
    assert "pulled from" not in emit(flattened["B"])


def test_provenance_comment_with_renamed_member():
    _, flattened = flatten_fixture("override_attr_rename_accessed")
    text = emit(flattened["B"], provenance=True)
    assert "int x$A;" in text
    assert "// pulled from A" in text


@pytest.mark.parametrize("name", CORPUS)
def test_reparse_law_on_corpus(name):
    for source in fixture_sources(name).values():
        unit = parse_source(source)
        emitted = emit(unit)
        assert token_signature(tokenize(emitted)) == token_signature(tokenize(source))


@pytest.mark.parametrize("name", CORPUS)
def test_reparse_law_on_flattened_output(name):
    _, flattened = flatten_fixture(name)
    for flat in flattened.values():
        emitted = emit(flat)
        reparsed = parse_source(emitted)
        assert token_signature(tokenize(emit(reparsed))) == token_signature(
            tokenize(emitted)
        )


def test_emit_stability():
    unit = parse_source("class A { int x; void f() { x = 1; } }")
    assert emit(unit) == emit(unit)
