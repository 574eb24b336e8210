"""Mutation fuzz of the CLI: edited fixture sources never crash it.

Each case copies one fixture and edits one or two of its files: truncate,
splice in a piece of another file, insert a token, delete a range, or make
an edit that keeps the source parseable (flip a visibility or modifier
keyword, reorder the members of a class, rename a member). `flatten`,
`compare --strict` and `metrics --view flattened` then run in process. Each must
exit 0, 1 or 2, never print `internal error`, and name `File.java:line`
whenever it exits 2.
"""

from __future__ import annotations

import random
import re

import pytest
from click.testing import CliRunner

from flatjava import FlatJavaError, parse_source
from flatjava.cli import main

from conftest import CORPUS, fixture_files

TOKENS = (
    "{", "}", "(", ")", ";", ",", ".", "=", "+", "==", "!", "&&", "class", "extends",
    "super", "this", "new", "return", "if", "else", "while", "int", "String", "void",
    "public", "private", "protected", "static", "final", "null", "0", "1L", "2.5",
    '"s"', "x", "m()", "super.x", "this.m()", "A", "Object", "/*", "//", "'",
)
KEYWORDS = ("public ", "private ", "protected ", "static ", "final ", "")
LOCATED = re.compile(r"[\w$]+\.java:\d+")
CASES_PER_SEED = 20


def _member_slices(text: str) -> list[tuple[int, int]] | None:
    """The source ranges of the class's members, if the text parses."""
    try:
        members = parse_source(text, "F.java").class_decl.members
    except FlatJavaError:
        return None
    return [(m.span.start, m.span.end) for m in members]


def reorder_members(rng: random.Random, text: str, _) -> str:
    slices = _member_slices(text)
    if not slices or len(slices) < 2:
        return text
    pieces = [text[a:b] for a, b in slices]
    rng.shuffle(pieces)
    out, last = [], 0
    for (a, b), piece in zip(slices, pieces):
        out.append(text[last:a] + piece)
        last = b
    return "".join(out) + text[last:]


def rename_member(rng: random.Random, text: str, _) -> str:
    names = re.findall(r"\b(\w+)\s*(?:=|;|\()", text)
    if not names:
        return text
    old = rng.choice(names)
    new = rng.choice(names + ["z", "y$A", "run"])
    if rng.random() < 0.5:  # every use, or one
        return re.sub(rf"\b{re.escape(old)}\b", new, text)
    return re.sub(rf"\b{re.escape(old)}\b", new, text, count=1)


def flip_keyword(rng: random.Random, text: str, _) -> str:
    spots = [m.start() for m in re.finditer(r"\b(?:public|private|protected|static|final)\b ?", text)]
    spots += [m.start() for m in re.finditer(r"^    (?=\w)", text, re.M)]
    if not spots:
        return text
    at = rng.choice(spots)
    match = re.match(r"(?:public|private|protected|static|final)\b ?", text[at:])
    if match:
        return text[:at] + rng.choice(KEYWORDS) + text[at + match.end():]
    return text[:at + 4] + rng.choice(KEYWORDS) + text[at + 4:]


def truncate(rng: random.Random, text: str, _) -> str:
    return text[: rng.randrange(len(text) + 1)]


def splice(rng: random.Random, text: str, other: str) -> str:
    a = rng.randrange(len(other) + 1)
    b = rng.randrange(a, min(len(other), a + 80) + 1)
    at = rng.randrange(len(text) + 1)
    return text[:at] + other[a:b] + text[at:]


def insert_token(rng: random.Random, text: str, _) -> str:
    at = rng.randrange(len(text) + 1)
    return text[:at] + f" {rng.choice(TOKENS)} " + text[at:]


def delete_range(rng: random.Random, text: str, _) -> str:
    a = rng.randrange(len(text) + 1)
    b = rng.randrange(a, min(len(text), a + 40) + 1)
    return text[:a] + text[b:]


MUTATIONS = (
    reorder_members, rename_member, flip_keyword, flip_keyword,
    truncate, splice, insert_token, delete_range,
)
ALL_FILES = [p for name in CORPUS for p in fixture_files(name)]


def mutated_fixture(rng: random.Random, directory) -> list[str]:
    """Write an edited copy of a random fixture into `directory`; returns the edits."""
    name = rng.choice(CORPUS)
    files = {p.name: p.read_text(encoding="utf-8") for p in fixture_files(name)}
    edits = []
    for _ in range(rng.choice((1, 1, 2))):
        file_name = rng.choice(sorted(files))
        mutation = rng.choice(MUTATIONS)
        other = rng.choice(ALL_FILES).read_text(encoding="utf-8")
        files[file_name] = mutation(rng, files[file_name], other)
        edits.append(f"{name}/{file_name}: {mutation.__name__}")
    directory.mkdir()
    for file_name, text in files.items():
        (directory / file_name).write_text(text, encoding="utf-8")
    return edits


@pytest.mark.parametrize("seed", range(30))
def test_mutated_sources_never_crash_the_cli(seed, tmp_path):
    rng = random.Random(7_000 + seed)
    runner = CliRunner()
    for case in range(CASES_PER_SEED):
        src = tmp_path / f"src{case}"
        edits = mutated_fixture(rng, src)
        for args in (
            ["flatten", str(src), "--out", str(tmp_path / f"out{case}")],
            ["compare", str(src), "--format", "json", "--strict"],
            ["metrics", str(src), "--view", "flattened", "--format", "json"],
        ):
            result = runner.invoke(main, args)
            context = (edits, args[0], result.output)
            assert result.exit_code in (0, 1, 2), context
            assert "internal error" not in result.output, context
            if result.exit_code == 2:
                assert LOCATED.search(result.stderr), context


def test_fuzz_reaches_every_outcome(tmp_path):
    """The parseable edits keep enough inputs flattenable to test both paths."""
    rng = random.Random(6_999)
    runner = CliRunner()
    codes = set()
    for case in range(60):
        src = tmp_path / f"src{case}"
        mutated_fixture(rng, src)
        codes.add(runner.invoke(main, ["compare", str(src), "--strict"]).exit_code)
    assert codes == {0, 1, 2}
