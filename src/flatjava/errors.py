"""Errors and warning-level diagnostics for the whole pipeline.

Errors abort processing of the offending file (first error per file wins);
one renders as `path:line:column: message` from its span and its file's
path and text. Diagnostics are collected and reported; --strict promotes
them to a failing exit code without stopping the run.
"""

from __future__ import annotations

from typing import NamedTuple

from .spans import Span, line_column


class FlatJavaError(Exception):
    """Base for all errors that carry a source location."""

    def __init__(self, message: str, span: Span | None = None, path: str | None = None,
                 text: str | None = None):
        self.message = message
        self.span = span
        self.path = path
        self.text = text  # of the file the span is in
        super().__init__(message)

    def __str__(self) -> str:
        prefix = ""
        if self.path:
            prefix = f"{self.path}:"
        if self.span is not None and self.text is not None:
            line, column = line_column(self.text, self.span.start)
            prefix += f"{line}:{column}: "
        elif prefix:
            prefix += " "
        return prefix + self.message


class LexError(FlatJavaError):
    pass


class ParseError(FlatJavaError):
    def __init__(
        self,
        message: str,
        span: Span | None = None,
        expected: frozenset[str] = frozenset(),
        path: str | None = None,
    ):
        super().__init__(message, span, path)
        self.expected = expected


class UnsupportedFeature(FlatJavaError):
    """Input is legal Java but outside the supported subset."""


class ModelError(FlatJavaError):
    pass


class UnknownSuperclass(ModelError):
    pass


class InheritanceCycle(ModelError):
    pass


class DuplicateClassName(ModelError):
    pass


class DuplicateMember(ModelError):
    pass


class UnresolvedName(ModelError):
    pass


class AmbiguousCall(ModelError):
    pass


class FlattenError(FlatJavaError):
    pass


class DanglingSuperRef(FlattenError):
    """A subclass `super.` reference targets a member that was dropped."""


# Diagnostic codes. Warnings by default; --strict turns their presence into
# exit code 1.
ANOMALY_MEMBER = "anomaly-member"
ILLEGAL_OVERRIDE_STATIC = "illegal-override-static"
ILLEGAL_OVERRIDE_FINAL = "illegal-override-final"
PACKAGE_VISIBILITY_DIVERGENCE = "package-visibility-divergence"
UNSUPPORTED_CTOR = "unsupported-constructor"
FORCED_RENAME = "forced-rename"
# A call or `new` that binds to another member in the flattened class than
# it did in the class it was written in.
REBOUND_CALL = "rebound-call"


class Diagnostic(NamedTuple):
    code: str
    message: str
    class_name: str
    span: Span | None = None

    def render(self) -> str:
        return f"[{self.code}] {self.class_name}: {self.message}"
