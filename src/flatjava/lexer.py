"""Tokenizer for the Java subset.

`tokenize` returns the token stream as parallel lists, the kind, lexeme and
start offset of each token, with a synthetic end-of-input token last. It
makes no object per token beyond the match that finds it: a token's span is
its start offset and the length of its lexeme, and line and column are
worked out only when an error is rendered (`spans.line_column`).

One compiled pattern, `_SCAN`, does the scanning. Each match is one token:
the run of whitespace, ``//`` comments and closed ``/* */`` comments before
it (the trivia group), then the token in the group of its kind, or the end
of input. The trivia run is never cut short, so consecutive matches tile the
source. A character that starts no token fills the catch-all group with the
rest of the source, so it ends the scan as the first error. Only then does
the lexer work out which one to raise: an unterminated block comment, an
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

# The trivia before a token (group 1), then one group per token kind (a word
# is a keyword, a word literal or an identifier), then the catch-all group,
# which takes a character that starts no token and the rest of the source
# with it, then the end of the source. Numbers are ASCII digits with an
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
      | ((?s:.+))
      | (\Z)
    )
    """,
    re.VERBOSE,
)
# The kind of each group; a word's kind is looked up in `_WORD_KINDS`.
_WORD, _BAD = 2, 6
_GROUP_KINDS = (None, None, IDENTIFIER, LITERAL, PUNCT, OPERATOR, None, EOI)
_WORD_KINDS = dict.fromkeys(KEYWORDS, KEYWORD) | dict.fromkeys(WORD_LITERALS, LITERAL)


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
    # The last match is the end of input. The one before it may be the first
    # error, which took the rest of the source, or the end of input already,
    # after trailing trivia, which the last match then repeats.
    if len(matches) > 1 and (group := matches[-2].lastindex) >= _BAD:
        if group == _BAD:
            raise _error(source, matches[-2].start(_BAD))
        matches.pop()
    groups = [m.lastindex for m in matches]
    lexemes = [m[g] for m, g in zip(matches, groups)]
    word_kinds, group_kinds = _WORD_KINDS, _GROUP_KINDS
    return Tokens(
        [word_kinds.get(lexeme, IDENTIFIER) if g == _WORD else group_kinds[g]
         for g, lexeme in zip(groups, lexemes)],
        lexemes,
        [m.start(g) for m, g in zip(matches, groups)],
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
