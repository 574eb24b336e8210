"""Tokenizer for the Java subset.

Every token records an exact span and the trivia (whitespace and comments)
that precedes it, so concatenating ``leading + lexeme`` over the stream,
end-of-input token included, reproduces the source text exactly.

Two compiled patterns do the scanning. `_TRIVIA` matches the run of
whitespace, ``//`` comments and closed ``/* */`` comments before a token;
`_TOKEN` matches one token, with a named group per kind. No token holds a
line break (string literals are single-line), so line and column follow
from the line breaks in each trivia run. Only when `_TOKEN` fails does the
lexer work out which error to raise: an unterminated block comment, an
unterminated string literal, or an illegal character.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import LexError
from .spans import Span

KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    """.split()
)

# true/false/null are literals in Java, not keywords.
WORD_LITERALS = frozenset({"true", "false", "null"})

KEYWORD = "keyword"
IDENTIFIER = "identifier"
LITERAL = "literal"
OPERATOR = "operator"
PUNCT = "punctuation"
EOI = "eoi"

_TRIVIA = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)*")

# One group per token kind, named after it; a word is a keyword, a word
# literal or an identifier. Numbers are ASCII digits with an optional
# fraction and exponent; `L` marks only an integer, `D` any number. A `/`
# before `*` starts an unterminated block comment, which _TRIVIA left.
_TOKEN = re.compile(
    r"""
    (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<literal>
        [0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?[dD]?|[eE][+-]?[0-9]+[dD]?|[lLdD]?)
      | "(?:[^"\\\n]|\\.)*"
    )
  | (?P<punctuation>[{}();,.\[\]])
  | (?P<operator>&&|\|\||[=!<>]=|[=+\-*%<>!&|]|/(?!\*))
    """,
    re.VERBOSE,
)

_WORD_KINDS = dict.fromkeys(KEYWORDS, KEYWORD) | dict.fromkeys(WORD_LITERALS, LITERAL)


class Token(NamedTuple):
    kind: str
    lexeme: str
    span: Span
    leading: str = ""

    def is_keyword(self, word: str) -> bool:
        return self.kind == KEYWORD and self.lexeme == word


def tokenize(source: str) -> list[Token]:
    """Tokenize `source`, ending with a synthetic end-of-input token."""
    trivia = _TRIVIA.match
    token = _TOKEN.match
    word_kinds = _WORD_KINDS
    tokens: list[Token] = []
    append = tokens.append
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of `line`
    while True:
        start = trivia(source, pos).end()
        leading = source[pos:start]
        if "\n" in leading:
            line += leading.count("\n")
            line_start = pos + leading.rindex("\n") + 1
        column = start - line_start + 1
        m = token(source, start)
        if m is None:
            break
        pos = m.end()
        lexeme = m.group()
        kind = m.lastgroup
        if kind == "word":
            kind = word_kinds.get(lexeme, IDENTIFIER)
        append(Token(kind, lexeme, Span(start, pos, line, column), leading))
    if start == len(source):
        append(Token(EOI, "", Span(start, start, line, column), leading))
        return tokens
    if source.startswith("/*", start):
        message, end = "unterminated block comment", len(source)
    elif source[start] == '"':
        # An unterminated literal runs to the end of its line.
        line_end = source.find("\n", start)
        message, end = "unterminated string literal", len(source) if line_end < 0 else line_end
    else:
        message, end = f"illegal character {source[start]!r}", start + 1
    raise LexError(message, Span(start, end, line, column))


def token_signature(tokens: list[Token]) -> list[tuple[str, str]]:
    """(kind, lexeme) pairs, the equivalence used by round-trip checks."""
    return [(t.kind, t.lexeme) for t in tokens]
