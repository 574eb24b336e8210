"""The parser against a recorded golden: same trees, same errors.

`parser_golden.json` holds, for every `.java` file under `fixtures/` and for
three seeded one-token mutations of each that lexes (a token deleted,
duplicated or swapped with the next), the sha256 of `repr(tree)` or of the
error it raised (class, message, span and expected set), with each span
written as (start, end, line, column) of its start. Each file's
mutations are drawn from a seed made of its path, so adding a fixture adds
its own cases and leaves every other case as it was. It also holds the error of
each nesting shape one level past MAX_NESTING, in readable form. A parser
rewrite must reproduce all of it.

Regenerate only when a change of trees or errors is intended:

    PYTHONPATH=src python tests/test_parser_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from flatjava import FlatJavaError, parse_source, tokenize
from flatjava.errors import LexError
from flatjava.parser import MAX_NESTING
from flatjava.spans import line_column

FIXTURES_DIR = Path(__file__).parent / "fixtures"
GOLDEN_PATH = Path(__file__).parent / "parser_golden.json"
MUTATIONS_PER_FILE = 3
MUTATION_SEED = 20140


def _fixture_sources() -> dict[str, str]:
    return {
        p.relative_to(FIXTURES_DIR).as_posix(): p.read_text(encoding="utf-8")
        for p in sorted(FIXTURES_DIR.rglob("*.java"))
    }


def _mutate(source: str, tokens, rng: random.Random) -> tuple[str, str]:
    """One token deleted, duplicated or swapped with the next; (op, source)."""
    ends = [0] + [start + len(lexeme) for start, lexeme in zip(tokens.starts, tokens.lexemes)]
    # Each token with the trivia before it, which runs from the previous token's end.
    pieces = [[source[end:start], lexeme]
              for end, start, lexeme in zip(ends, tokens.starts, tokens.lexemes)]
    body = len(pieces) - 1  # the end-of-input token stays
    op = rng.choice(("delete", "duplicate", "swap") if body >= 2 else ("delete", "duplicate"))
    if op == "swap":
        i = rng.randrange(body - 1)
        a, b = pieces[i], pieces[i + 1]
        a[1], b[1] = b[1], a[1]
        b[0] = b[0] or " "  # keep the two lexemes apart
    else:
        i = rng.randrange(body)
        pieces[i][1] = "" if op == "delete" else f"{pieces[i][1]} {pieces[i][1]}"
    return f"{op}@{i}", "".join(leading + lexeme for leading, lexeme in pieces)


def mutated_sources() -> dict[str, tuple[str, str]]:
    """Seeded mutations of the lexable fixtures: key -> (path, source)."""
    cases = {}
    for path, source in _fixture_sources().items():
        try:
            tokens = tokenize(source)
        except LexError:
            continue
        rng = random.Random(f"{MUTATION_SEED}/{path}")
        for n in range(MUTATIONS_PER_FILE):
            op, mutated = _mutate(source, tokens, rng)
            cases[f"mutation/{path}/{n}/{op}"] = (path, mutated)
    return cases


# Each shape nested `d` levels deep in one field initializer or body.
DEEP_SHAPES = {
    "unary": lambda d: f"class A {{\n    int x = {'- ' * (d - 1)}1;\n}}\n",
    "binary": lambda d: "class A {\n    int x = " + " + ".join(["1"] * d) + ";\n}\n",
    "parens": lambda d: f"class A {{\n    int x = {'(' * (d - 1)}1{')' * (d - 1)};\n}}\n",
    "call_chain": lambda d: (
        "class A {\n    A b;\n    A app(int v) { return this; }\n"
        f"    A x = b{'.app(1)' * (d - 1)};\n}}\n"
    ),
    "field_chain": lambda d: (
        "class A {\n    A a;\n    int v;\n    int x = this" + ".a" * (d - 2) + ".v;\n}\n"
    ),
    "unary_of_postfix": lambda d: (
        "class A {\n    A a;\n    int v;\n    int x = " + "-" * (d - 3) + "this.a.v;\n}\n"
    ),
    "calls": lambda d: (
        "class A {\n    int f(int a) { return a; }\n"
        f"    int x = {'f(' * (d - 1)}1{')' * (d - 1)};\n}}\n"
    ),
    "new": lambda d: (
        "class A {\n    A() { }\n    A(A a) { }\n"
        f"    A x = {'new A(' * (d - 1)}null{')' * (d - 1)};\n}}\n"
    ),
    "blocks": lambda d: f"class A {{\n    void f() {{\n{'{' * (d - 1)}{'}' * (d - 1)}\n    }}\n}}\n",
    "ifs": lambda d: (
        "class A {\n    boolean b;\n    void f() {\n"
        f"{'if (b) ' * (d - 3)}b = true;\n    }}\n}}\n"
    ),
    "else_ifs": lambda d: (
        "class A {\n    int v;\n    int f() {\n"
        + "".join(f"if (v == {i}) return {i}; else " for i in range(d - 3))
        + "return 0;\n    }\n}\n"
    ),
}


def deep_sources() -> dict[str, str]:
    return {
        f"deep/{shape}/{depth}": make(depth)
        for shape, make in DEEP_SHAPES.items()
        for depth in (MAX_NESTING, MAX_NESTING + 1)
    }


_SPAN_REPR = re.compile(r"Span\(start=(\d+), end=(\d+)\)")


def _located(source: str, start: int, end: int) -> list[int]:
    """A span as the golden records it: its offsets, then its start's line and column."""
    return [start, end, *line_column(source, start)]


def outcome(source: str, path: str | None):
    """The tree's repr, or (error class, message, span, expected) of the error."""
    try:
        tree_repr = repr(parse_source(source, path))
    except FlatJavaError as err:
        return [
            type(err).__name__, err.message,
            _located(source, *err.span) if err.span else [], err.path,
            sorted(getattr(err, "expected", ())),
        ]
    return _SPAN_REPR.sub(
        lambda m: "Span(start={}, end={}, line={}, column={})".format(
            *_located(source, int(m[1]), int(m[2]))),
        tree_repr,
    )


def _digest(result) -> str:
    text = result if isinstance(result, str) else json.dumps(result)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def all_cases() -> dict[str, tuple[str | None, str]]:
    cases = {f"fixture/{path}": (path, source) for path, source in _fixture_sources().items()}
    cases.update(mutated_sources())
    cases.update({key: (None, source) for key, source in deep_sources().items()})
    return cases


def build_golden() -> dict:
    golden = {"digests": {}, "deep_errors": {}}
    for key, (path, source) in all_cases().items():
        result = outcome(source, path)
        golden["digests"][key] = _digest(result)
        if key.startswith("deep/") and not isinstance(result, str):
            golden["deep_errors"][key] = result
    return golden


_CASES = all_cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden["digests"]) == sorted(_CASES)
    mutated = Counter(k.rsplit("/", 2)[0] for k in _CASES if k.startswith("mutation/"))
    assert set(mutated.values()) == {MUTATIONS_PER_FILE}


@pytest.mark.parametrize("prefix", ["fixture/", "mutation/", "deep/"])
def test_parser_matches_golden(golden, prefix):
    mismatched = [
        key
        for key, (path, source) in _CASES.items()
        if key.startswith(prefix) and _digest(outcome(source, path)) != golden["digests"][key]
    ]
    assert not mismatched, mismatched[:10]


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_one_level_past_the_limit_is_refused_at_the_same_span(golden, shape):
    source = DEEP_SHAPES[shape](MAX_NESTING + 1)
    expected = golden["deep_errors"][f"deep/{shape}/{MAX_NESTING + 1}"]
    assert expected[0] == "UnsupportedFeature"
    assert outcome(source, None) == expected
    assert isinstance(outcome(DEEP_SHAPES[shape](MAX_NESTING), None), str)


# Python frames the parser spends per level of nesting, at most: a call or
# `new` takes `parse_expr`, `parse_operand` and `parse_args`.
FRAMES_PER_LEVEL = 3


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_parsing_at_the_limit_fits_the_frame_budget(shape):
    source = DEEP_SHAPES[shape](MAX_NESTING)
    limit = sys.getrecursionlimit()
    # 20 frames for the calls from `parse_source` down to the first level.
    sys.setrecursionlimit(_stack_depth() + FRAMES_PER_LEVEL * MAX_NESTING + 20)
    try:
        parse_source(source)
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(build_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
