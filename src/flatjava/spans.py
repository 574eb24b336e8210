"""Source positions shared by tokens, AST nodes, and diagnostics.

A span is a pair of offsets. Line and column are not kept: they are worked
out from the source text only when an error is rendered (`line_column`).
"""

from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
    """Half-open [start, end) offsets into the decoded source text.

    Offsets are code-point indices so callers can slice the source string
    directly.
    """

    start: int
    end: int

    def slice(self, text: str) -> str:
        return text[self.start : self.end]


EMPTY_SPAN = Span(0, 0)


def line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset` in `text`. A line ends at each
    line feed; every other character, a tab or carriage return too, is a column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1
