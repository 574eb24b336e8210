"""The CLI pauses the cyclic garbage collector while a command runs.

The pause must end on every exit path, leave a collector that the caller
had already disabled disabled, and free nothing that a collection would
have freed: a command makes no reference cycles, so right after it a
collection finds nothing.
"""

from __future__ import annotations

import contextlib
import gc
import io
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from flatjava import cli

from conftest import FIXTURES_DIR

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"
WORKLOADS = ("deep_chain", "wide_fan", "fat_classes")

runner = CliRunner()


@contextlib.contextmanager
def collector(enabled: bool):
    """Run with the collector on or off, and restore it afterwards."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


def watch(monkeypatch, name: str, seen: list[bool], fail: bool = False) -> None:
    """Record whether the collector is on when `cli.<name>` is called."""
    original = getattr(cli, name)

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        if fail:
            raise RuntimeError("boom")
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, watched)


def copy_fixture(name: str, tmp_path: Path) -> Path:
    target = tmp_path / name
    shutil.copytree(FIXTURES_DIR / name, target)
    shutil.rmtree(target / "expected", ignore_errors=True)
    return target


def exit_0(tmp_path, monkeypatch, seen):
    watch(monkeypatch, "build_model", seen)
    src = copy_fixture("chain3", tmp_path)
    return ["flatten", str(src), "--out", str(tmp_path / "out")]


def exit_1(tmp_path, monkeypatch, seen):
    watch(monkeypatch, "build_model", seen)
    src = copy_fixture("ctor_unsupported", tmp_path)
    return ["compare", str(src), "--strict"]


def exit_2(tmp_path, monkeypatch, seen):
    watch(monkeypatch, "parse_source", seen)
    (tmp_path / "A.java").write_text("class A {\n    int x = 1 # 2;\n}\n", encoding="utf-8")
    return ["metrics", str(tmp_path), "--view", "original"]


def exit_3(tmp_path, monkeypatch, seen):
    watch(monkeypatch, "compute_access_graph", seen, fail=True)
    src = copy_fixture("identity_minimal", tmp_path)
    return ["metrics", str(src), "--view", "flattened"]


EXITS = {0: exit_0, 1: exit_1, 2: exit_2, 3: exit_3}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("code", sorted(EXITS))
def test_collector_paused_during_command_and_restored(code, enabled, tmp_path, monkeypatch):
    seen: list[bool] = []
    args = EXITS[code](tmp_path, monkeypatch, seen)
    with collector(enabled):
        result = runner.invoke(cli.main, args)
        after = gc.isenabled()
    assert result.exit_code == code, result.output
    assert seen == [False]
    assert after is enabled


def run_quietly(args: list[str]) -> None:
    """One command in this process, as `flatjava` would run it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="flatjava", standalone_mode=False)
        except SystemExit:
            pass


def inputs(tmp_path, monkeypatch) -> list[Path]:
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import workloads

    dirs = sorted(d for d in FIXTURES_DIR.iterdir() if d.is_dir())
    for name in WORKLOADS:
        workloads.build(name, 11, scale=0.25).write(tmp_path / name)
        dirs.append(tmp_path / name)
    return dirs


def test_commands_leave_no_garbage_cycles(tmp_path, monkeypatch):
    commands = [
        ["flatten", "{}", "--out", str(tmp_path / "out")],
        ["compare", "{}"],
        ["metrics", "{}", "--view", "original"],
        ["metrics", "{}", "--view", "flattened"],
    ]
    with collector(True):
        for src in inputs(tmp_path, monkeypatch):
            for command in commands:
                gc.collect()
                run_quietly([arg.format(src) for arg in command])
                assert gc.collect() == 0, (src.name, command[0], command[-1])
