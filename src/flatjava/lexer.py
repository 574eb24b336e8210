"""Tokenizer for the Java subset.

Every token records an exact span and the trivia (whitespace and comments)
that precedes it, so concatenating ``leading + lexeme`` over the stream,
end-of-input token included, reproduces the source text exactly.

One compiled pattern, `_SCAN`, does the scanning in a single `findall` over
the source. Each match is one token: the run of whitespace, ``//`` comments
and closed ``/* */`` comments before it, then the token in the group of its
kind. A match with no token is the end of input, or, when its catch-all
group holds a character, the first error. No token holds a line break
(string literals are single-line), so offsets follow from the lengths of the
matched pieces, and line and column from the line breaks in each trivia
run. Only at an error does the lexer work out which one to raise: an
unterminated block comment, an unterminated string literal, or an illegal
character.
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

# The trivia before a token, then one group per token kind (a word is a
# keyword, a word literal or an identifier), then any other character, which
# is an error, or the end of the source. Numbers are ASCII digits with an
# optional fraction and exponent; `L` marks only an integer, `D` any number.
# Some alternative matches at every position, so the trivia run is never cut
# short and consecutive matches tile the source.
_SCAN = re.compile(
    r"""
    ((?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)*)
    (?:
        ([A-Za-z_$][A-Za-z0-9_$]*)
      | ([0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?[dD]?|[eE][+-]?[0-9]+[dD]?|[lLdD]?)
        | "(?:[^"\\\n]|\\.)*")
      | ([{}();,.\[\]])
      | (&&|\|\||[=!<>]=|[=+\-*%<>!&|]|/(?!\*))
      | ((?s:.))
      | \Z
    )
    """,
    re.VERBOSE,
)

_WORD_KINDS = dict.fromkeys(KEYWORDS, KEYWORD) | dict.fromkeys(WORD_LITERALS, LITERAL)


class Token(NamedTuple):
    kind: str
    lexeme: str
    span: Span
    leading: str = ""


def tokenize(source: str) -> list[Token]:
    """Tokenize `source`, ending with a synthetic end-of-input token."""
    new = tuple.__new__  # a Token and its Span without their Python-level __new__
    word_kinds = _WORD_KINDS
    tokens: list[Token] = []
    append = tokens.append
    pos = 0
    line = 1
    before_line = -1  # offset of the line break before `line`
    for leading, word, literal, punct, op, bad in _SCAN.findall(source):
        if leading:
            if "\n" in leading:
                line += leading.count("\n")
                before_line = pos + leading.rindex("\n")
            pos += len(leading)
        if word:
            lexeme, kind = word, word_kinds.get(word, IDENTIFIER)
        elif literal:
            lexeme, kind = literal, LITERAL
        elif punct:
            lexeme, kind = punct, PUNCT
        elif op:
            lexeme, kind = op, OPERATOR
        else:
            break
        end = pos + len(lexeme)
        append(new(Token, (kind, lexeme, new(Span, (pos, end, line, pos - before_line)), leading)))
        pos = end
    span = Span(pos, pos, line, pos - before_line)
    if not bad:
        append(Token(EOI, "", span, leading))
        return tokens
    if bad == "/":  # a `/` that is no operator starts a block comment
        message, end = "unterminated block comment", len(source)
    elif bad == '"':
        # An unterminated literal runs to the end of its line.
        line_end = source.find("\n", pos)
        message, end = "unterminated string literal", len(source) if line_end < 0 else line_end
    else:
        message, end = f"illegal character {bad!r}", pos + 1
    raise LexError(message, span._replace(end=end))


def token_signature(tokens: list[Token]) -> list[tuple[str, str]]:
    """(kind, lexeme) pairs, the equivalence used by round-trip checks."""
    return [(t.kind, t.lexeme) for t in tokens]
