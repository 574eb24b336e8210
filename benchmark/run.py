#!/usr/bin/env python3
"""Benchmark flatjava's flatten, compare and metrics commands.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs only the standard library and
what flatjava itself needs. The workload (see workloads.py) is generated
from the seed under benchmark/work/, then flatjava's real CLI commands run
on it in this process, one round of `flatten`, `compare --format json` and
`metrics --view original --format json` after another, for S seconds. The
first round's outputs are checked in full (check.py), and each flattened
class is one operation, so a run attempts as many operations as the
workload has classes, however many rounds fit in S seconds; every later
round's outputs must equal the first's byte for byte. The metrics and
commands are named in BENCHMARK.json. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones: the median time of each
command over the rounds, the peak memory of a fresh process that runs the
round once, and the median time a fresh process takes to import flatjava.
With --trace 1 a `flatten` of the workload at half scale, an untraced round
and a traced round repeat; the metrics are the per-layer ones of tracing.py
and the spans go to benchmark/work/<run>/spans.json.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from check import check_outputs
from commands import REFERENCE_PROBE_S, Commands, probe
from tracing import SPAN_FIELDS, Tracer, round_metrics

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
SETUP_SAMPLES = 7  # at least; one is taken after every round


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class Bench:
    def __init__(self, commands, expected: dict, work: Path):
        self.commands = commands
        self.expected = expected
        self.src = work / "src"
        self.out = work / "out"
        self.work = work
        self.reference = None  # outputs of the first round
        self.reference_docs: list[dict] = []  # compare, metrics and plan documents
        self.class_problems: dict[str, list[str]] = {}
        self.problems: dict[str, None] = {}  # ordered set of whole-round problems
        self.attempted = 0
        self.failed = 0
        # Every timing taken, as [wall seconds, probe seconds] (see commands.py).
        self.samples: dict[str, list[list[float]]] = defaultdict(list)

    def round(self, tracer=None) -> dict:
        """Run the three commands once and check their outputs."""
        shutil.rmtree(self.out, ignore_errors=True)
        results, stdout = {}, {}
        before = None
        for args in self.commands.round_args(self.src, self.out):
            if tracer is not None:
                tracer.command = args[0]
            result = self.commands.run(args, before)
            before = result.probe_after
            if result.error:
                self.problems[f"flatjava {args[0]}: {result.error}"] = None
            results[args[0]] = result
            stdout[args[0]] = result.stdout
            key = args[0] if tracer is None else f"traced {args[0]}"
            self.samples[key].append([result.seconds, result.probe_s])
        self.check(stdout)
        return results

    def check(self, stdout: dict[str, str]) -> None:
        files = {p.name: p.read_bytes() for p in sorted(self.out.glob("*"))}
        snapshot = (stdout["compare"], stdout["metrics"], files)
        if self.reference is None:
            self.reference = snapshot
            docs = []
            for text in (stdout["compare"], stdout["metrics"],
                         files.get("flatten.plan.json", b"{}").decode()):
                try:
                    docs.append(json.loads(text))
                except ValueError as err:
                    self.problems[f"output is not JSON: {err}"] = None
                    docs.append({})
            self.reference_docs = docs
            self.class_problems, problems = check_outputs(self.expected, self.out, *docs)
            self.problems.update(dict.fromkeys(problems))
            self.attempted = len(self.expected)
            self.failed = sum(1 for p in self.class_problems.values() if p)
        elif snapshot != self.reference:
            self.problems["outputs differ from the first round's"] = None

    def child(self, *args: str) -> tuple[float, float]:
        """The number child.py prints, and the probe's time around the child."""
        before = probe()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child.py {args[0]} failed: {proc.stderr.strip()[-500:]}")
        return float(proc.stdout.strip().splitlines()[-1]), (before + probe()) / 2

    def setup_sample(self) -> float:
        """Seconds a fresh process takes to import flatjava.cli, scaled."""
        seconds, probe_s = self.child("setup")
        self.samples["setup"].append([seconds, probe_s])
        return seconds * REFERENCE_PROBE_S / probe_s

    def end_to_end(self, seconds: float) -> dict[str, float]:
        rss, _ = self.child("rss", str(self.src), str(self.work / "rss_out"))
        times = defaultdict(list)
        setup = []
        spent = 0.0  # in rounds; the fresh processes between them do not count
        while not times or spent < seconds:
            start = time.perf_counter()
            for command, result in self.round().items():
                times[command].append(result.scaled)
            spent += time.perf_counter() - start
            # One import after each round, so that its samples span the run
            # and the machine's drift during it, as the commands' samples do.
            setup.append(self.setup_sample())
        while len(setup) < SETUP_SAMPLES:
            setup.append(self.setup_sample())
        return {
            "flatten_s": statistics.median(times["flatten"]),
            "compare_s": statistics.median(times["compare"]),
            "metrics_original_s": statistics.median(times["metrics"]),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setup),
        }

    def per_layer(self, seconds: float, half_src: Path) -> dict[str, float]:
        units = metric_units("per_layer")
        tracer = Tracer()
        untraced_walls, traced_walls, flatten_times, half_times = [], [], [], []
        rounds, spans = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            shutil.rmtree(self.work / "half_out", ignore_errors=True)
            result = self.commands.run(["flatten", str(half_src), "--out", str(self.work / "half_out")])
            if result.error:
                self.problems[f"flatjava flatten (half scale): {result.error}"] = None
            half_times.append(result.scaled)
            results = self.round()
            untraced_walls.append(sum(r.scaled for r in results.values()))
            flatten_times.append(results["flatten"].scaled)
            tracer.round += 1
            with tracer.installed():
                results = self.round(tracer)
            traced_walls.append(sum(r.scaled for r in results.values()))
            walls = {c: r.seconds for c, r in results.items()}
            rounds.append(round_metrics(tracer.spans, walls, sum(tracer.count_s.values())))
            spans.extend(tracer.take())
        document = {"fields": SPAN_FIELDS, "spans": spans}
        (self.work / "spans.json").write_text(json.dumps(document), encoding="utf-8")

        metrics = {
            key: (statistics.median if units[key] == "s" else statistics.median_low)(
                r[key] for r in rounds
            )
            for key in rounds[0]
        }
        flatten_s = statistics.median(flatten_times)
        emitted = sum(p.stat().st_size for p in self.out.glob("*.flat.java"))
        metrics["flattener.us_per_emitted_byte"] = flatten_s * 1e6 / emitted
        metrics["flattener.depth_exponent"] = math.log2(flatten_s / statistics.median(half_times))
        metrics["report.plan_bytes"] = (self.out / "flatten.plan.json").stat().st_size
        metrics["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, untraced_walls)
        )
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        commands = Commands()
    except ImportError as err:
        print(f"error: cannot load flatjava: {err}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed)
    workload.write(work / "src")
    bench = Bench(commands, workloads.expectations(workload), work)
    try:
        if args.trace:
            half = workloads.build(args.workload, args.seed, scale=0.5)
            half.write(work / "half")
            values = bench.per_layer(args.seconds, work / "half")
            units = metric_units("per_layer")
        else:
            values = bench.end_to_end(args.seconds)
            units = metric_units("end_to_end")
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    failures = {name: p for name, p in bench.class_problems.items() if p}
    report = dict(result, workload=args.workload, seed=args.seed,
                  rounds=len(bench.samples["flatten"]), problems=list(bench.problems),
                  samples=bench.samples, class_failures=failures)
    (work / "result.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if result["correct"]:
        for bulky in ("src", "out", "rss_out", "half", "half_out"):
            shutil.rmtree(work / bulky, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
