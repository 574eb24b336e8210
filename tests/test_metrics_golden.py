"""`compare`, `metrics` and `flatten` output against a recorded golden.

`metrics_golden.json` holds the sha256 of the standard output of `compare`
and of `metrics --view original|flattened`, in each of `json`, `csv` and
`markdown`, for every fixture on which the command exits 0. A change to how
the views are measured must reproduce all of it, and exit 0 on the same
fixtures.

It also holds, for `flatten` and `flatten --provenance` on every fixture
directory that holds Java files (the broken inputs under `invalid` and
`modelbad` included), the exit code and the sha256 of standard output,
standard error and every file written to `--out`: each `.flat.java` and
`flatten.plan.json`. Paths in the streams are written relative to the
fixtures and the output directory.

Regenerate only when a change of the outputs is intended:

    PYTHONPATH=src python tests/test_metrics_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from flatjava.cli import main

FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"
GOLDEN_PATH = Path(__file__).parent / "metrics_golden.json"
COMMANDS = {
    "compare": ["compare"],
    "metrics-original": ["metrics", "--view", "original"],
    "metrics-flattened": ["metrics", "--view", "flattened"],
}
FORMATS = ("json", "csv", "markdown")
FLATTEN = {"flatten": [], "flatten-provenance": ["--provenance"]}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _relative(text: str, out: str) -> str:
    """`text` with the paths of the output directory and the fixtures made relative."""
    return text.replace(out, "<out>").replace(str(FIXTURES_DIR), "<fixtures>")


def digests() -> dict[str, str]:
    """`fixture/command/format` -> sha256 of stdout, where the command exits 0;
    `fixture/flatten[-provenance]/...` -> the exit code, or the sha256 of a
    stream or an output file."""
    out = {}
    runner = CliRunner()
    for fixture in sorted(d for d in FIXTURES_DIR.iterdir() if d.is_dir()):
        for command, args in COMMANDS.items():
            for fmt in FORMATS:
                result = runner.invoke(main, [*args, str(fixture), "--format", fmt])
                if result.exit_code == 0:
                    key = f"{fixture.name}/{command}/{fmt}"
                    out[key] = _sha(result.stdout)
    sources = sorted({p.parent for p in FIXTURES_DIR.rglob("*.java")
                      if "expected" not in p.relative_to(FIXTURES_DIR).parts})
    for source in sources:
        name = source.relative_to(FIXTURES_DIR).as_posix()
        for command, args in FLATTEN.items():
            with tempfile.TemporaryDirectory() as tmp:
                result = runner.invoke(main, ["flatten", str(source), "--out", tmp, *args])
                key = f"{name}/{command}"
                out[f"{key}/exit"] = str(result.exit_code)
                out[f"{key}/stdout"] = _sha(_relative(result.stdout, tmp))
                out[f"{key}/stderr"] = _sha(_relative(result.stderr, tmp))
                for path in sorted(Path(tmp).iterdir()):
                    out[f"{key}/{path.name}"] = _sha(path.read_text(encoding="utf-8"))
    return out


def test_reports_match_the_golden():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(golden)
    assert [key for key in golden if got[key] != golden[key]] == []


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
