"""Tokenizer tests: kinds, offsets, trivia between tokens, errors and their positions."""

from __future__ import annotations

import re
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from flatjava import FlatJavaError, LexError, Span, tokenize
from flatjava.lexer import (
    EOI,
    IDENTIFIER,
    KEYWORD,
    LITERAL,
    OPERATOR,
    PUNCT,
    token_signature,
)

import reference_lexer
from conftest import CORPUS, fixture_sources


def test_empty_input_is_single_eoi():
    tokens = tokenize("")
    assert tokens.kinds == [EOI]
    assert tokens.lexemes == [""]
    assert len(tokens) == 1


def test_minimal_class():
    tokens = tokenize("class A {}")
    assert tokens.kinds == [KEYWORD, IDENTIFIER, PUNCT, PUNCT, EOI]
    assert tokens.lexemes == ["class", "A", "{", "}", ""]


def test_dollar_is_identifier_character():
    # Independent character-class oracle for the rename scheme's names.
    ident_re = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
    assert ident_re.fullmatch("x$A")
    tokens = tokenize("int x$A;")
    assert tokens.kinds == [KEYWORD, IDENTIFIER, PUNCT, EOI]
    assert tokens.lexemes[1] == "x$A"


def test_word_literals_are_literal_tokens():
    tokens = tokenize("true false null")
    assert tokens.kinds == [LITERAL, LITERAL, LITERAL, EOI]


def test_number_forms():
    tokens = tokenize("1 42L 3.5 1e3 2.5e-1 7d")
    assert tokens.kinds[:-1] == [LITERAL] * 6
    assert tokens.lexemes[:-1] == ["1", "42L", "3.5", "1e3", "2.5e-1", "7d"]


def test_multichar_operators():
    tokens = tokenize("a <= b && c != d")
    ops = [lexeme for kind, lexeme in token_signature(tokens) if kind == OPERATOR]
    assert ops == ["<=", "&&", "!="]


def test_string_literal_with_escapes():
    tokens = tokenize(r'"a\"b\\" x')
    assert tokens.kinds[0] == LITERAL
    assert tokens.lexemes[0] == r'"a\"b\\"'


def _trivia(text: str) -> bool:
    """Whether all of `text` is trivia: whitespace, `//` comments and closed
    `/* */` comments, as the reference lexer reads them."""
    return reference_lexer._TRIVIA.fullmatch(text) is not None


def _assert_stream_invariants(source, tokens):
    """Each token's lexeme stands at its start, the text before each token
    and after the last one is trivia, and the end of input ends the source."""
    assert tokens.kinds[-1] == EOI
    assert tokens.starts[-1] == len(source)
    assert len(tokens) == len(tokens.lexemes) == len(tokens.starts)
    pos = 0
    for start, lexeme in zip(tokens.starts, tokens.lexemes):
        assert start >= pos
        assert _trivia(source[pos:start]), (pos, start)
        assert source[start : start + len(lexeme)] == lexeme
        pos = start + len(lexeme)


@pytest.mark.parametrize("name", CORPUS)
def test_roundtrip_over_corpus(name):
    for source in fixture_sources(name).values():
        _assert_stream_invariants(source, tokenize(source))


def test_comments_preserved_as_trivia():
    source = "// lead\nclass A { /* body */ }\n"
    tokens = tokenize(source)
    assert source[: tokens.starts[0]] == "// lead\n"
    _assert_stream_invariants(source, tokens)
    assert EOI not in tokens.kinds[:-1]
    assert not _trivia("a") and not _trivia("/* open") and not _trivia(" x ")


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
    # The rendered line must agree with independent line counting.
    assert str(err).startswith(f"{source[: err.span.start].count(chr(10)) + 1}:")


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


# Each error's span, with the line and column its start renders as.
@pytest.mark.parametrize(
    "source,message,span",
    [
        ('class A {\n  String s = "oops; }', "unterminated string literal", (Span(23, 31), "2:14")),
        ('"multi\nline"', "unterminated string literal", (Span(0, 6), "1:1")),
        ('x = "ab\\', "unterminated string literal", (Span(4, 8), "1:5")),
        ("a\n /* never", "unterminated block comment", (Span(3, 11), "2:2")),
        ("/*/", "unterminated block comment", (Span(0, 3), "1:1")),
        ("int x = #3;", "illegal character '#'", (Span(8, 9), "1:9")),
        ("a\n\tb = 'c';", "illegal character \"'\"", (Span(7, 8), "2:6")),
    ],
)
def test_lex_error_spans(source, message, span):
    with pytest.raises(LexError) as excinfo:
        tokenize(source)
    err, (offsets, position) = excinfo.value, span
    assert (err.message, err.span, str(err)) == (message, offsets, f"{position}: {message}")


def test_backslash_before_line_break_ends_string():
    # Java has no line continuation inside a string literal.
    with pytest.raises(LexError) as excinfo:
        tokenize('x = "a\\\nb";')
    assert excinfo.value.message == "unterminated string literal"
    assert excinfo.value.span == Span(4, 7)
    assert str(excinfo.value) == "1:5: unterminated string literal"


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
    # Each token's position, or the error's, as an error renders it.
    try:
        errors = [FlatJavaError("here", Span(start, start), text=source)
                  for start in tokenize(source).starts]
    except LexError as err:
        errors = [err]
    for err in errors:
        before = source[: err.span.start]
        line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
        assert str(err) == f"{line}:{column}: {err.message}"


def test_tokens_are_parallel_lists_and_spans_immutable_offsets():
    tokens = tokenize("x = 1;\n")
    assert (tokens.kinds, tokens.lexemes, tokens.starts) == (
        [IDENTIFIER, OPERATOR, LITERAL, PUNCT, EOI], ["x", "=", "1", ";", ""], [0, 2, 4, 5, 7]
    )
    assert len(tokens) == 5
    span = Span(0, 1)
    assert repr(span) == "Span(start=0, end=1)"
    assert hash(span) == hash(Span(0, 1))
    with pytest.raises(AttributeError):
        span.start = 2


@pytest.mark.parametrize("name", CORPUS)
def test_token_count_matches_reference_over_corpus(name):
    for source in fixture_sources(name).values():
        assert len(tokenize(source)) == len(reference_lexer.tokenize(source))


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
    _assert_agrees_with_reference(source)


# The source's end decides these: the last token ends it, or is the first
# error, or only trivia precedes it.
@pytest.mark.parametrize("source", [
    's = "ab"', "x", "1L", ")", "/", "a = b /", '"ab', "/* ab", "x #", "// c", " \n",
])
def test_lexer_agrees_with_reference_at_the_end_of_the_source(source):
    _assert_agrees_with_reference(source)


def _assert_agrees_with_reference(source):
    """The same (kind, lexeme, start, end) of each token as the reference
    lexer, or the same error's message, offsets and rendered position."""
    try:
        tokens = tokenize(source)
        ours = [(kind, lexeme, start, start + len(lexeme))
                for kind, lexeme, start in zip(tokens.kinds, tokens.lexemes, tokens.starts)]
    except LexError as err:
        ours = ("LexError", err.message, err.span.start, err.span.end, str(err))
    try:
        theirs = reference_lexer.tokenize(source)
    except reference_lexer.ReferenceLexError as err:
        theirs = ("LexError", err.message, err.start, err.end, err.rendered)
    assert ours == theirs
