"""Errors and warning-level diagnostics for the whole pipeline.

Errors abort processing of the offending file (first error per file wins).
Diagnostics are collected and reported; --strict promotes them to a failing
exit code without stopping the run.
"""

from __future__ import annotations

from typing import NamedTuple

from .spans import Span


class FlatJavaError(Exception):
    """Base for all errors that carry a source location."""

    def __init__(self, message: str, span: Span | None = None, path: str | None = None):
        self.message = message
        self.span = span
        self.path = path
        super().__init__(message)

    def __str__(self) -> str:
        prefix = ""
        if self.path:
            prefix = f"{self.path}:"
        if self.span is not None:
            prefix += f"{self.span.line}:{self.span.column}: "
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


class Diagnostic(NamedTuple):
    code: str
    message: str
    class_name: str
    span: Span | None = None

    def render(self) -> str:
        return f"[{self.code}] {self.class_name}: {self.message}"
