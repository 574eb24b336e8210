"""The two-pattern tokenizer, kept as a test-only oracle for `flatjava.lexer`.

`tokenize` here scans with two compiled patterns, one call each per token:
`_TRIVIA` for the whitespace and comments before a token and `_TOKEN` for
the token itself, and it counts lines as it goes. The library runs one
combined pattern over the whole source and keeps offsets only.
`tests/test_lexer.py` demands the same (kind, lexeme, start, end) for every
token, or an error with the same message and offsets whose rendered
`line:column` is the one counted here, on generated sources.
"""

from __future__ import annotations

import re

from flatjava.lexer import IDENTIFIER, KEYWORD, KEYWORDS, LITERAL, WORD_LITERALS, EOI

_TRIVIA = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)*")

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


class ReferenceLexError(Exception):
    """An error at [start, end), whose start is at `line` and `column`."""

    def __init__(self, message: str, start: int, end: int, line: int, column: int):
        super().__init__(message)
        self.message, self.start, self.end = message, start, end
        self.rendered = f"{line}:{column}: {message}"


def tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, lexeme, start, end) of each token, ending with a synthetic
    end-of-input token."""
    tokens: list[tuple[str, str, int, int]] = []
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of `line`
    while True:
        start = _TRIVIA.match(source, pos).end()
        leading = source[pos:start]
        if "\n" in leading:
            line += leading.count("\n")
            line_start = pos + leading.rindex("\n") + 1
        column = start - line_start + 1
        m = _TOKEN.match(source, start)
        if m is None:
            break
        pos = m.end()
        lexeme = m.group()
        kind = m.lastgroup
        if kind == "word":
            kind = _WORD_KINDS.get(lexeme, IDENTIFIER)
        tokens.append((kind, lexeme, start, pos))
    if start == len(source):
        tokens.append((EOI, "", start, start))
        return tokens
    if source.startswith("/*", start):
        message, end = "unterminated block comment", len(source)
    elif source[start] == '"':
        # An unterminated literal runs to the end of its line.
        line_end = source.find("\n", start)
        message, end = "unterminated string literal", len(source) if line_end < 0 else line_end
    else:
        message, end = f"illegal character {source[start]!r}", start + 1
    raise ReferenceLexError(message, start, end, line, column)
