"""The README's "Library" example runs as written.

It is run on `tests/fixtures/deep_mixed`: what it prints for `SmallCircle`
must be that fixture's golden, and `compare` must give one row per class.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from conftest import fixture_files, golden_path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_on_deep_mixed():
    sources = [(str(p), p.read_text(encoding="utf-8")) for p in fixture_files("deep_mixed")]
    namespace = {"sources": sources}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(_library_example(), namespace)
    golden = golden_path("deep_mixed", "SmallCircle").read_text(encoding="utf-8")
    assert printed.getvalue().startswith(golden + "\n")
    rows = printed.getvalue()[len(golden) + 1:].splitlines()
    model = namespace["model"]
    assert [row.split(" ", 1)[0] for row in rows] == [
        name for name in model.order if not model.classes[name].synthetic]
    assert len(rows) == len(sources)
