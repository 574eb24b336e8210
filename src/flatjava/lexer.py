"""Tokenizer for the Java subset.

`tokenize` returns the token stream as parallel lists, the kind, lexeme and
start offset of each token, with a synthetic end-of-input token last. It
makes no object per token beyond the match that finds it: a token's span is
its start offset and the length of its lexeme, and line and column are
worked out only when an error is rendered (`spans.line_column`).

One compiled pattern, `_SCAN`, does the scanning. Each match is one token:
the run of whitespace, ``//`` comments and closed ``/* */`` comments before
it, which no group captures, then the one group, which holds the token, the
end of input, or the catch-all. The trivia run is never cut short, so
consecutive matches tile the source. A token's kind is read from its lexeme:
one table holds every keyword, word literal, punctuation mark and operator,
and any other lexeme is a literal if it starts with a digit or a quote and
an identifier otherwise. A character that starts no token fills the
catch-all with the rest of the source, so it ends the scan as the first
error, and only the match before the end of input can be it. Only then does
the lexer work out which error to raise: an unterminated block comment, an
unterminated string literal, or an illegal character.
"""

from __future__ import annotations

import re

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

# The tokens: a word (a keyword, a word literal or an identifier), a number
# or string literal, punctuation, or an operator. Numbers are ASCII digits
# with an optional fraction and exponent; `L` marks only an integer, `D` any
# number. `_SCAN` puts the trivia run before them, and the catch-all and the
# end of the source after them, so some alternative matches at every position.
_TOKEN = r"""
    [A-Za-z_$][A-Za-z0-9_$]*
  | [0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?[dD]?|[eE][+-]?[0-9]+[dD]?|[lLdD]?)
  | "(?:[^"\\\n]|\\.)*"
  | [{}();,.\[\]]
  | &&|\|\||[=!<>]=|[=+\-*%<>!&|]|/(?!\*)
"""
_SCAN = re.compile(
    r"[ \t\r\n]*(?:(?://[^\n]*|/\*(?s:.*?)\*/)[ \t\r\n]*)*(" + _TOKEN + r"|(?s:.+)|\Z)",
    re.VERBOSE,
)
# The kind of every lexeme that is not a number, a string or an identifier.
_KINDS = (
    dict.fromkeys(KEYWORDS, KEYWORD) | dict.fromkeys(WORD_LITERALS, LITERAL)
    | dict.fromkeys("{}();,.[]", PUNCT) | {"": EOI}
    | dict.fromkeys("&& || == != <= >= = + - * / % < > ! & |".split(), OPERATOR)
)
# The kind of any other lexeme, by its first character.
_FIRST_KINDS = dict.fromkeys('0123456789"', LITERAL)


class Tokens:
    """A token stream as parallel lists: each token's kind, lexeme and start
    offset, the end-of-input token (kind EOI, lexeme "") last."""

    __slots__ = ("kinds", "lexemes", "starts")

    def __init__(self, kinds: list[str], lexemes: list[str], starts: list[int]):
        self.kinds = kinds
        self.lexemes = lexemes
        self.starts = starts

    def __len__(self) -> int:
        return len(self.kinds)


def tokenize(source: str) -> Tokens:
    """Tokenize `source`, ending with a synthetic end-of-input token."""
    matches = list(_SCAN.finditer(source))
    lexemes = [m[1] for m in matches]
    starts = [m.start(1) for m in matches]
    # The last match is the end of input. The one before it may be the end of
    # input already, after trailing trivia, which the last match then repeats,
    # or the last token, or the first error, which took the rest of the source.
    # `re` compiles `_TOKEN` alone on first use, so that the import does not.
    if len(lexemes) > 1 and not lexemes[-2]:
        lexemes.pop()
        starts.pop()
    elif len(lexemes) > 1 and not re.fullmatch(_TOKEN, lexemes[-2], re.VERBOSE):
        raise _error(source, starts[-2])
    kinds, first_kinds = _KINDS, _FIRST_KINDS
    return Tokens(
        [kinds.get(lexeme) or first_kinds.get(lexeme[0], IDENTIFIER) for lexeme in lexemes],
        lexemes,
        starts,
    )


def _error(source: str, pos: int) -> LexError:
    """The error at `pos`, where no token starts."""
    bad = source[pos]
    if bad == "/":  # a `/` that is no operator starts a block comment
        message, end = "unterminated block comment", len(source)
    elif bad == '"':
        # An unterminated literal runs to the end of its line.
        line_end = source.find("\n", pos)
        message, end = "unterminated string literal", len(source) if line_end < 0 else line_end
    else:
        message, end = f"illegal character {bad!r}", pos + 1
    return LexError(message, Span(pos, end), text=source)


def token_signature(tokens: Tokens) -> list[tuple[str, str]]:
    """(kind, lexeme) pairs, the equivalence used by round-trip checks."""
    return list(zip(tokens.kinds, tokens.lexemes))
