"""`compare` and `metrics` output against a recorded golden.

`metrics_golden.json` holds the sha256 of the standard output of `compare`
and of `metrics --view original|flattened`, in each of `json`, `csv` and
`markdown`, for every fixture on which the command exits 0. A change to how
the views are measured must reproduce all of it, and exit 0 on the same
fixtures.

Regenerate only when a change of the reports is intended:

    PYTHONPATH=src python tests/test_metrics_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from click.testing import CliRunner

from flatjava.cli import main

FIXTURES_DIR = Path(__file__).parent / "fixtures"
GOLDEN_PATH = Path(__file__).parent / "metrics_golden.json"
COMMANDS = {
    "compare": ["compare"],
    "metrics-original": ["metrics", "--view", "original"],
    "metrics-flattened": ["metrics", "--view", "flattened"],
}
FORMATS = ("json", "csv", "markdown")


def digests() -> dict[str, str]:
    """`fixture/command/format` -> sha256 of stdout, where the command exits 0."""
    out = {}
    runner = CliRunner()
    for fixture in sorted(d for d in FIXTURES_DIR.iterdir() if d.is_dir()):
        for command, args in COMMANDS.items():
            for fmt in FORMATS:
                result = runner.invoke(main, [*args, str(fixture), "--format", fmt])
                if result.exit_code == 0:
                    key = f"{fixture.name}/{command}/{fmt}"
                    out[key] = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    return out


def test_reports_match_the_golden():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(golden)
    assert [key for key in golden if got[key] != golden[key]] == []


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
