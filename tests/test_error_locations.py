"""Every layer's errors, located through the command line.

One input per kind of error that lexer, parser, model, resolver and
flattener raise. On the line of each error, before it, stand the end of a
multi-line block comment holding a non-ASCII character, and tabs; the files
have CRLF line ends. Each case pins the whole of stderr, with the error's
`path:line:column`, and the exit code.
"""

from __future__ import annotations

import pytest
from click.testing import CliRunner

from flatjava import flattener
from flatjava.cli import main
from flatjava.parser import MAX_NESTING

# Opens a block comment on one line and closes it on the next, after a tab
# and a non-ASCII character; the code that follows is on the error's line.
NOTE = "\t/* note\r\n\t * été */\t"


def _lines(*lines: str) -> str:
    return "\r\n".join(lines) + "\r\n"


CASES = {
    "illegal_character": (
        {"A.java": _lines("class A {", NOTE + "int x = #;", "}")},
        "A.java:3:20: illegal character '#'",
    ),
    "unterminated_comment": (
        {"A.java": _lines("class A {", NOTE + "int x; /* never closed", "}")},
        "A.java:3:19: unterminated block comment",
    ),
    "unterminated_string": (
        {"A.java": _lines("class A {", NOTE + 'String s = "oops;', "}")},
        "A.java:3:23: unterminated string literal",
    ),
    "parse_error": (
        {"A.java": _lines("class A {", NOTE + "int x = ;", "}")},
        "A.java:3:20: expected expression, found ';'",
    ),
    "unsupported_feature": (
        {"A.java": _lines("class A {", NOTE + "char c;", "}")},
        "A.java:3:12: unsupported feature: 'char' type",
    ),
    "too_deep": (
        {"A.java": _lines("class A {", NOTE + "int x = " + "- " * MAX_NESTING + "1;", "}")},
        f"A.java:3:{20 + 2 * MAX_NESTING}: unsupported feature: "
        f"nesting deeper than {MAX_NESTING} levels",
    ),
    "duplicate_member": (
        {"A.java": _lines("class A {", "\tint x;", NOTE + "int x;", "}")},
        "A.java:4:16: duplicate attribute 'x' in class A",
    ),
    "unknown_superclass": (
        {"A.java": _lines("class", NOTE + "A extends Ghost {", "}")},
        "A.java:3:12: class 'A' extends unknown class 'Ghost'",
    ),
    "inheritance_cycle": (
        {
            "A.java": _lines("class", NOTE + "A extends B {", "}"),
            "B.java": _lines("class B extends A {", "}"),
        },
        "A.java:3:12: inheritance cycle involving A, B",
    ),
    "unresolved_name": (
        {"A.java": _lines("class A {", NOTE + "int f() { return ghost; }", "}")},
        "A.java:3:29: cannot resolve name 'ghost'",
    ),
    "ambiguous_call": (
        {"A.java": _lines("class A {", "\tint g(int a) { return a; }",
                          NOTE + "int f() { return g(1, 2); }", "}")},
        "A.java:4:29: no overload of 'g' takes 2 argument(s)",
    ),
}


def _run(tmp_path, files: dict[str, str], command: list[str]):
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    return CliRunner().invoke(main, [*command, str(tmp_path)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_error_location_through_the_cli(tmp_path, case):
    files, message = CASES[case]
    result = _run(tmp_path, files, ["compare", "--format", "json"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"error: {tmp_path}/{message}\n"


def test_dangling_super_ref_location_through_the_cli(tmp_path, monkeypatch):
    # Every visible member is pulled, so only a fate table that drops one
    # leaves a `super.` reference dangling; force it for the attribute.
    def dropped(sub, member, accessed):
        return flattener.MemberFate(member, flattener.DROP_ANOMALY, "R3")

    monkeypatch.setattr(flattener, "_attribute_fate", dropped)
    files = {
        "A.java": _lines("class A {", "\tint x;", "}"),
        "B.java": _lines("class B extends A {", NOTE + "void m() { super.x = 1; }", "}"),
    }
    result = _run(tmp_path, files, ["metrics", "--view", "flattened", "--format", "json"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: {tmp_path}/B.java:3:29: "
        "'super.x' in B targets a member that was not pulled down\n"
    )
