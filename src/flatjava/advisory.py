"""Which view to measure for a given application.

The mapping is a constant: refactoring and class-level testability are
judged on the class as written; everything that drags the superclass chain
along (moving, reusing, understanding, maintaining, completing, or testing
a class together with its ancestors) is judged on the flattened view.
"""

from __future__ import annotations

APPLICATIONS = (
    "refactoring",
    "adaptability",
    "reusability",
    "understandability",
    "maintainability",
    "completeness",
    "testability-class",
    "testability-cluster",
)


class Advisory:
    def __init__(self, application: str, view: str, justification: str):
        self.application = application
        self.view = view  # original | flattened
        self.justification = justification


_ADVICE: dict[str, tuple[str, str]] = {
    "refactoring": (
        "original",
        "A flattened subclass carries copies of its inherited code, so "
        "refactoring indicators run on it would flag extractions the class "
        "as written does not need.",
    ),
    "adaptability": (
        "flattened",
        "A subclass cannot move to a new environment without its whole "
        "superclass chain; the flattened view prices in the code that would "
        "move with it.",
    ),
    "reusability": (
        "flattened",
        "Reusing a subclass drags in every class it inherits from, so "
        "reuse effort should be judged on the flattened view.",
    ),
    "understandability": (
        "flattened",
        "Reading a subclass in isolation hides inherited state and "
        "behavior; the flattened view shows everything a reader must "
        "absorb.",
    ),
    "maintainability": (
        "flattened",
        "Maintenance work on a subclass routinely touches inherited members "
        "that only the flattened view exposes to the metrics.",
    ),
    "completeness": (
        "flattened",
        "A subclass is not a complete unit without its inherited members, "
        "so completeness should be judged on the flattened view.",
    ),
    "testability-class": (
        "original",
        "Class-level testing targets the code written in the class itself, "
        "so the original view is the right basis.",
    ),
    "testability-cluster": (
        "flattened",
        "Cluster-level testing exercises a class together with its "
        "ancestors, which is exactly what the flattened view represents.",
    ),
}


def advise(application: str) -> Advisory:
    if application not in _ADVICE:
        raise ValueError(
            f"unknown application {application!r}; expected one of {', '.join(APPLICATIONS)}"
        )
    view, justification = _ADVICE[application]
    return Advisory(application, view, justification)
