"""Source positions shared by tokens, AST nodes, and diagnostics."""

from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
    """Half-open [start, end) offsets into the decoded source text.

    line/column locate `start` and are 1-based. Offsets are code-point
    indices so callers can slice the source string directly.
    """

    start: int
    end: int
    line: int
    column: int

    def slice(self, text: str) -> str:
        return text[self.start : self.end]


EMPTY_SPAN = Span(0, 0, 1, 1)
