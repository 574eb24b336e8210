"""The commands read a flattened view only as its heads and its base.

A view keeps what each level built (`head_members`, `head_resolutions`,
`head_fates`, `head_repulled`) and names the view it ends with (`base`).
`FlattenedClass.members`, the whole member list, is assembled from the
chain of bases, and only the benchmark's tracer and the tests read it. So
`flatten`, `compare` and `metrics --view flattened` must succeed on every
fixture and on the benchmark's workloads with it raising.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from flatjava import flattener
from flatjava.cli import main

from conftest import CORPUS, FIXTURES_DIR

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"
WORKLOADS = ("deep_chain", "wide_fan", "fat_classes")


def _assembled(view):
    raise AssertionError(f"{view.name}'s members were assembled whole")


def _run_commands(src: Path, out: Path, monkeypatch) -> None:
    monkeypatch.setattr(flattener.FlattenedClass, "members", property(_assembled))
    runner = CliRunner()
    for args in (
        ["flatten", str(src), "--out", str(out)],
        ["flatten", str(src), "--out", str(out), "--provenance"],
        ["compare", str(src), "--format", "json"],
        ["metrics", str(src), "--view", "flattened", "--format", "json"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)


@pytest.mark.parametrize("name", CORPUS)
def test_commands_read_no_whole_view_on_fixtures(name, tmp_path, monkeypatch):
    _run_commands(FIXTURES_DIR / name, tmp_path / "out", monkeypatch)


@pytest.mark.parametrize("name", WORKLOADS)
def test_commands_read_no_whole_view_on_workloads(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import workloads

    src = tmp_path / "src"
    workloads.build(name, 11).write(src)
    _run_commands(src, tmp_path / "out", monkeypatch)
