"""Parser tests: subset coverage, expected ASTs, errors, round-trip laws."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from flatjava import ParseError, UnsupportedFeature, emit, parse_source, tokenize
from flatjava.lexer import token_signature
from flatjava import parser, tree

from conftest import CORPUS, FIXTURES_DIR, fixture_sources


def test_single_private_member():
    unit = parse_source("class A { private int x; }")
    decl = unit.class_decl
    assert decl.name == "A"
    assert decl.superclass is None
    assert len(decl.members) == 1
    member = decl.members[0]
    assert isinstance(member, tree.FieldDecl)
    assert (member.visibility, member.is_static, member.is_final) == ("private", False, False)
    assert member.decl_type.text() == "int"
    assert member.name == "x"


def test_super_call_ast():
    unit = parse_source("class B extends A { void f() { super.g(); } }")
    decl = unit.class_decl
    assert decl.superclass == "A"
    method = decl.members[0]
    assert isinstance(method, tree.MethodDecl)
    assert method.return_type is None
    (stmt,) = method.body.statements
    assert isinstance(stmt, tree.ExprStmt)
    call = stmt.expr
    assert isinstance(call, tree.Call)
    assert isinstance(call.receiver, tree.Super)
    assert call.name == "g"
    assert call.args == []


def test_package_declaration():
    unit = parse_source("package a.b.c;\nclass A {\n}\n")
    assert unit.package == "a.b.c"


def test_constructor_parses_and_is_distinct():
    unit = parse_source("class A { A(int v) { v = v + 1; } }")
    ctor = unit.class_decl.members[0]
    assert isinstance(ctor, tree.CtorDecl)
    assert ctor.signature() == "<init>(int)"


def test_expected_ast_for_committed_fixture():
    # Hand-written expectation for the accessor-pair fixture.
    source = fixture_sources("private_accessor_pair")["A"]
    decl = parse_source(source).class_decl
    shapes = []
    for member in decl.members:
        if isinstance(member, tree.FieldDecl):
            shapes.append(("field", member.visibility, member.decl_type.text(), member.name))
        else:
            shapes.append(
                ("method", member.visibility, member.signature(), len(member.body.statements))
            )
    assert shapes == [
        ("field", "private", "int", "x"),
        ("method", "public", "getX()", 1),
        ("method", "public", "setX(int)", 1),
    ]


@pytest.mark.parametrize(
    "filename",
    [
        "implements_iface.java",
        "generics_class.java",
        "generics_member.java",
        "nested_class.java",
        "interface_decl.java",
        "for_loop.java",
    ],
)
def test_unsupported_features(filename):
    path = FIXTURES_DIR / "invalid" / filename
    with pytest.raises(UnsupportedFeature) as excinfo:
        parse_source(path.read_text(encoding="utf-8"), str(path))
    assert excinfo.value.span is not None


@pytest.mark.parametrize(
    "source",
    [
        "class A { static public int x; }",  # modifier order is fixed
        "class A { void x; }",  # void field
        "class A { B(int v) { } }",  # constructor name mismatch
        "class A { static A() { } }",  # static constructor
        "class A { void f() { 1 = x; } }",  # invalid assignment target
        "class A { void f() { super; } }",  # bare super
        "class A {",  # unterminated class body
        "class A {} class B {}",  # two top-level classes
        "class A { public private int x; }",  # two visibility modifiers
    ],
)
def test_parse_errors(source):
    with pytest.raises(ParseError):
        parse_source(source)


@pytest.mark.parametrize("source", ["class A { char c; }", "class A { float f; }"])
def test_unsupported_primitive_types(source):
    with pytest.raises(UnsupportedFeature):
        parse_source(source)


def test_parse_error_locality():
    source = "class A {\n    int x = ;\n}\n"
    with pytest.raises(ParseError) as excinfo:
        parse_source(source)
    err = excinfo.value
    assert err.span is not None
    assert err.span.start <= len(source)
    # The rendered line and column agree with independent line counting.
    line = source[: err.span.start].count("\n") + 1
    newline_before = source.rfind("\n", 0, err.span.start)
    assert str(err).startswith(f"{line}:{err.span.start - newline_before}: expected expression")


def test_expected_token_set_reported():
    with pytest.raises(ParseError) as excinfo:
        parse_source("class A  B")
    assert "{" in excinfo.value.expected or "expected" in excinfo.value.message


@pytest.mark.parametrize("name", CORPUS)
def test_unparse_token_equivalence(name):
    for source in fixture_sources(name).values():
        unit = parse_source(source)
        emitted = emit(unit)
        assert token_signature(tokenize(emitted)) == token_signature(tokenize(source))


@pytest.mark.parametrize("name", CORPUS)
def test_parse_is_deterministic(name):
    for source in fixture_sources(name).values():
        assert parse_source(source) == parse_source(source)


def _collect_spans(node, acc):
    if isinstance(node, (tree.Name, tree.Literal)):
        acc.append((node.span, node.ident if isinstance(node, tree.Name) else node.lexeme))
    for value in vars(node).values():
        if isinstance(value, tree.Node):
            _collect_spans(value, acc)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, tree.Node):
                    _collect_spans(item, acc)


@pytest.mark.parametrize("name", CORPUS)
def test_span_soundness(name):
    # Leaf spans must slice exactly their own text; composite spans must
    # re-lex without error.
    for source in fixture_sources(name).values():
        unit = parse_source(source)
        leaves = []
        _collect_spans(unit, leaves)
        for span, text in leaves:
            assert source[span.start : span.end] == text
        for member in unit.class_decl.members:
            sliced = source[member.span.start : member.span.end]
            assert token_signature(tokenize(sliced))[:-1]  # non-empty, lexes cleanly


def test_operator_precedence_shape():
    unit = parse_source("class A { void f() { int r = 1 + 2 * 3; } }")
    (stmt,) = unit.class_decl.members[0].body.statements
    expr = stmt.init
    assert isinstance(expr, tree.Binary) and expr.op == "+"
    assert isinstance(expr.right, tree.Binary) and expr.right.op == "*"


def test_parens_preserved():
    unit = parse_source("class A { void f() { int r = (1 + 2) * 3; } }")
    (stmt,) = unit.class_decl.members[0].body.statements
    expr = stmt.init
    assert isinstance(expr, tree.Binary) and expr.op == "*"
    assert isinstance(expr.left, tree.Paren)


def _height(node) -> int:
    """Blocks, statements and expressions on the longest path from `node` down."""
    if isinstance(node, list):
        return max((_height(n) for n in node), default=0)
    if not isinstance(node, (tree.Expr, tree.Stmt)):
        return 0
    return 1 + max((_height(getattr(node, name)) for name in node.__match_args__), default=0)


_exprs = st.recursive(
    st.sampled_from(["1", "x", "this.x", "f()"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "*", "<", "==", "&&", "||"]), inner).map(" ".join),
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"({e})"),
        st.lists(inner, max_size=2).map(lambda args: f"f({', '.join(args)})"),
        inner.map(lambda e: f"this.g({e}).y"),
        inner.map(lambda e: f"new A({e})"),
    ),
    max_leaves=10,
)
_stmts = st.recursive(
    _exprs.map(lambda e: f"x = {e};"),
    lambda inner: st.one_of(
        st.tuples(_exprs, inner).map(lambda p: f"if ({p[0]}) {p[1]}"),
        st.tuples(_exprs, inner, inner).map(lambda p: f"if ({p[0]}) {p[1]} else {p[2]}"),
        st.tuples(_exprs, inner).map(lambda p: f"while ({p[0]}) {p[1]}"),
        st.lists(inner, max_size=3).map(lambda body: "{ " + " ".join(body) + " }"),
    ),
    max_leaves=5,
)


@given(_exprs, _stmts)
def test_nesting_limit_counts_tree_height_exactly(init, stmt):
    source = f"class A {{\n    int x = {init};\n    void g() {{\n        {stmt}\n    }}\n}}\n"
    members = parse_source(source).class_decl.members
    height = max(_height(members[0].init), _height(members[1].body))
    with mock.patch.object(parser, "MAX_NESTING", 6):
        if height <= 6:
            parse_source(source)
        else:
            with pytest.raises(UnsupportedFeature, match="nesting deeper than 6 levels"):
                parse_source(source)
