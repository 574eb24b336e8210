"""Tokenizer tests: kinds, spans, trivia round-trip, errors."""

from __future__ import annotations

import re
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from flatjava import LexError, Span, tokenize
from flatjava.lexer import EOI, IDENTIFIER, KEYWORD, LITERAL, OPERATOR, PUNCT, token_signature

import reference_lexer
from conftest import CORPUS, fixture_sources


def kinds(tokens):
    return [t.kind for t in tokens]


def lexemes(tokens):
    return [t.lexeme for t in tokens]


def test_empty_input_is_single_eoi():
    tokens = tokenize("")
    assert kinds(tokens) == [EOI]
    assert tokens[0].lexeme == ""


def test_minimal_class():
    tokens = tokenize("class A {}")
    assert kinds(tokens) == [KEYWORD, IDENTIFIER, PUNCT, PUNCT, EOI]
    assert lexemes(tokens) == ["class", "A", "{", "}", ""]


def test_dollar_is_identifier_character():
    # Independent character-class oracle for the rename scheme's names.
    ident_re = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
    assert ident_re.fullmatch("x$A")
    tokens = tokenize("int x$A;")
    assert kinds(tokens) == [KEYWORD, IDENTIFIER, PUNCT, EOI]
    assert tokens[1].lexeme == "x$A"


def test_word_literals_are_literal_tokens():
    tokens = tokenize("true false null")
    assert kinds(tokens) == [LITERAL, LITERAL, LITERAL, EOI]


def test_number_forms():
    tokens = tokenize("1 42L 3.5 1e3 2.5e-1 7d")
    assert all(t.kind == LITERAL for t in tokens[:-1])
    assert lexemes(tokens)[:-1] == ["1", "42L", "3.5", "1e3", "2.5e-1", "7d"]


def test_multichar_operators():
    tokens = tokenize("a <= b && c != d")
    ops = [t.lexeme for t in tokens if t.kind == OPERATOR]
    assert ops == ["<=", "&&", "!="]


def test_string_literal_with_escapes():
    tokens = tokenize(r'"a\"b\\" x')
    assert tokens[0].kind == LITERAL
    assert tokens[0].lexeme == r'"a\"b\\"'


def _assert_stream_invariants(source, tokens):
    assert tokens[-1].kind == EOI
    rebuilt = "".join(t.leading + t.lexeme for t in tokens)
    assert rebuilt == source
    pos = 0
    for t in tokens:
        assert t.span.start >= pos
        assert t.span.end >= t.span.start
        assert source[t.span.start : t.span.end] == t.lexeme
        pos = t.span.end


@pytest.mark.parametrize("name", CORPUS)
def test_roundtrip_over_corpus(name):
    for source in fixture_sources(name).values():
        _assert_stream_invariants(source, tokenize(source))


def test_comments_preserved_as_trivia():
    source = "// lead\nclass A { /* body */ }\n"
    tokens = tokenize(source)
    assert tokens[0].leading == "// lead\n"
    assert "".join(t.leading + t.lexeme for t in tokens) == source
    assert all(t.kind != EOI for t in tokens[:-1])


@pytest.mark.parametrize(
    "source,fragment",
    [
        ('class A { String s = "oops; }', "unterminated string"),
        ("class A { /* never closed", "unterminated block comment"),
        ("class A { int x = #3; }", "illegal character"),
        ('"multi\nline"', "unterminated string"),
    ],
)
def test_lex_errors_carry_spans(source, fragment):
    with pytest.raises(LexError) as excinfo:
        tokenize(source)
    err = excinfo.value
    assert fragment in err.message
    assert err.span is not None
    assert 0 <= err.span.start <= len(source)
    # Line/column must agree with independent line counting.
    assert err.span.line == source[: err.span.start].count("\n") + 1


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=80))
def test_lexing_any_ascii_text_roundtrips_or_errors(source):
    try:
        tokens = tokenize(source)
    except LexError:
        return
    _assert_stream_invariants(source, tokens)


@pytest.mark.parametrize(
    "source,stream",
    [
        ("1.", [(LITERAL, "1"), (PUNCT, ".")]),
        ("1.e3", [(LITERAL, "1"), (PUNCT, "."), (IDENTIFIER, "e3")]),
        ("1e", [(LITERAL, "1"), (IDENTIFIER, "e")]),
        ("1e+", [(LITERAL, "1"), (IDENTIFIER, "e"), (OPERATOR, "+")]),
        ("1.5L", [(LITERAL, "1.5"), (IDENTIFIER, "L")]),
        ("7dL", [(LITERAL, "7d"), (IDENTIFIER, "L")]),
        ("a/**/b", [(IDENTIFIER, "a"), (IDENTIFIER, "b")]),
        ("x/y", [(IDENTIFIER, "x"), (OPERATOR, "/"), (IDENTIFIER, "y")]),
        ("x//", [(IDENTIFIER, "x")]),
        ("//", []),
        ("a&&&b", [(IDENTIFIER, "a"), (OPERATOR, "&&"), (OPERATOR, "&"), (IDENTIFIER, "b")]),
        ("<==", [(OPERATOR, "<="), (OPERATOR, "=")]),
        ("!==", [(OPERATOR, "!="), (OPERATOR, "=")]),
        ("int a;\r\nb\r\n", [(KEYWORD, "int"), (IDENTIFIER, "a"), (PUNCT, ";"), (IDENTIFIER, "b")]),
    ],
)
def test_token_streams(source, stream):
    assert token_signature(tokenize(source)) == stream + [(EOI, "")]


@pytest.mark.parametrize(
    "source,message,span",
    [
        ('class A {\n  String s = "oops; }', "unterminated string literal", Span(23, 31, 2, 14)),
        ('"multi\nline"', "unterminated string literal", Span(0, 6, 1, 1)),
        ('x = "ab\\', "unterminated string literal", Span(4, 8, 1, 5)),
        ("a\n /* never", "unterminated block comment", Span(3, 11, 2, 2)),
        ("/*/", "unterminated block comment", Span(0, 3, 1, 1)),
        ("int x = #3;", "illegal character '#'", Span(8, 9, 1, 9)),
        ("a\n\tb = 'c';", "illegal character \"'\"", Span(7, 8, 2, 6)),
    ],
)
def test_lex_error_spans(source, message, span):
    with pytest.raises(LexError) as excinfo:
        tokenize(source)
    assert (excinfo.value.message, excinfo.value.span) == (message, span)


def test_backslash_before_line_break_ends_string():
    # Java has no line continuation inside a string literal.
    with pytest.raises(LexError) as excinfo:
        tokenize('x = "a\\\nb";')
    assert excinfo.value.message == "unterminated string literal"
    assert excinfo.value.span == Span(4, 7, 1, 5)


# Single characters, plus runs of them that put several line breaks into one
# stretch of trivia; the non-ASCII characters are illegal.
_POSITION_PIECES = (
    list(' \r\t\n/*"\\.+-eElLdD$' + string.digits + string.ascii_letters)
    + ["\n\n", " \n\t\n ", "\r\n", "// c\n", "/* \n\n */", "a1", "1.5e-3d"]
    + ["é", "٣", "\u00a0"]
)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_POSITION_PIECES), max_size=40).map("".join))
def test_positions_match_line_counting(source):
    try:
        spans = [t.span for t in tokenize(source)]
    except LexError as err:
        spans = [err.span]
    for span in spans:
        before = source[: span.start]
        assert span.line == before.count("\n") + 1
        assert span.column == len(before) - before.rfind("\n")


def test_tokens_and_spans_are_immutable_values():
    token = tokenize("x")[0]
    assert repr(token) == (
        "Token(kind='identifier', lexeme='x', "
        "span=Span(start=0, end=1, line=1, column=1), leading='')"
    )
    assert hash(token) == hash(tokenize("x")[0])
    with pytest.raises(AttributeError):
        token.span.line = 2


# Pieces of Java-flavoured text. Drawn side by side they also glue into
# longer tokens (`1e5d` + `L`), split comments (`/` + `/* c */`) and leave
# trivia after the last token.
_JAVA_PIECES = [
    "class", "int", "long", "double", "boolean", "return", "this", "super", "new",
    "if", "else", "while", "void", "static", "final", "private", "true", "false", "null",
    "x", "$", "_", "$a", "_b1", "x$A", "e", "E", "L", "d",
    "0", "7", "42", "7L", "7l", "1e5d", "2.5E-3", "3.5", "1.", "1e", "6D", "2.5e+7",
    '"s"', '""', r'"a\"b"', r'"\\"', r'"tab\t"', '"open', '"esc\\', '"',
    "// c", "//", "/* c */", "/**/", "/* \n */", "/*", "*/", "/", "*",
    "{", "}", "(", ")", ";", ",", ".", "[", "]",
    "=", "==", "!=", "<", "<=", ">", ">=", "+", "-", "%", "!", "&", "&&", "|", "||",
    " ", "\t", "\n", "\r\n", "\r", "\n\n",
    "\u0663", "\u00e9", "\u00a0", "#", "'", "@", "\\", "~",
]


@settings(max_examples=600)
@given(st.lists(st.sampled_from(_JAVA_PIECES), max_size=30).map("".join))
@example("//[0\tint/\t-")
@example("x /* never closed")
@example('a = "no end\nb')
@example("int x; // trailing\n\t ")
def test_lexer_agrees_with_reference(source):
    def lex(tokenize_fn):
        try:
            return tokenize_fn(source)
        except LexError as err:
            return ("LexError", err.message, err.span)

    assert lex(tokenize) == lex(reference_lexer.tokenize)
