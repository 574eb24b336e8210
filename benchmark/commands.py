"""Runs flatjava's real CLI commands in this process and times them.

The CPU speed of a shared machine drifts: the same command can take twice
as long a minute later, and CPU time drifts with wall time. So garbage is
collected and a fixed pure-Python probe loop is timed just before and just
after each command, and `Result.scaled` reports the wall time at the probe's reference speed:
wall * REFERENCE_PROBE_S / probe. The drift cancels out of the ratio; a
change to flatjava does not, because the probe runs none of its code.
"""

from __future__ import annotations

import contextlib
import gc
import io
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Scaled times are the seconds a command takes while the probe takes this
# long. On the 2-core machine the benchmark was tuned on (Python 3.11) the
# probe took 0.018-0.08 s, median 0.034 s.
REFERENCE_PROBE_S = 0.025


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe() -> float:
    """Seconds a fixed loop of calls, allocations and attribute reads takes now."""
    start = time.perf_counter()
    items = []
    for i in range(40_000):
        p = _Probe(i, str(i))
        items.append((p.a + len(p.b), p))
    return time.perf_counter() - start


def load_cli():
    """flatjava.cli from this checkout's `src/`, never an installed copy."""
    if not (SRC / "flatjava" / "cli.py").is_file():
        raise ImportError(f"no flatjava sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import flatjava
    import flatjava.cli

    if not Path(flatjava.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"flatjava was imported from {flatjava.__file__}, not {SRC}")
    return flatjava.cli


@dataclass
class Result:
    seconds: float  # wall time
    probe_s: float  # the probe's mean time just before and just after the command
    probe_after: float
    stdout: str
    error: str | None  # an exception or a non-zero exit, None on success

    @property
    def scaled(self) -> float:
        return self.seconds * REFERENCE_PROBE_S / self.probe_s


class Commands:
    def __init__(self):
        self.cli = load_cli()

    @staticmethod
    def round_args(src, out) -> list[list[str]]:
        """One round: flatten, compare, metrics --view original."""
        return [
            ["flatten", str(src), "--out", str(out)],
            ["compare", str(src), "--format", "json"],
            ["metrics", str(src), "--view", "original", "--format", "json"],
        ]

    def run(self, args: list[str], before: float | None = None) -> Result:
        """Run one command; `before` reuses the previous command's closing probe.

        Garbage is collected before every probe, so each probe and each
        command starts from the same heap state, whatever ran before it.
        """
        out = io.StringIO()
        error = None
        if before is None:
            gc.collect()
            before = probe()
        start = time.perf_counter()
        # Diagnostics go to stderr; the checks read the outputs instead.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                self.cli.main.main(args=args, prog_name="flatjava", standalone_mode=False)
            except SystemExit as exc:
                if exc.code not in (0, None):
                    error = f"exit {exc.code}"
            except Exception as exc:  # a crash in the program under test is a result
                error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        gc.collect()
        after = probe()
        return Result(seconds, (before + after) / 2, after, out.getvalue(), error)
