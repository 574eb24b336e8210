"""Spans around flatjava's layers, recorded from outside the program.

`Tracer.installed()` replaces the public functions each flatjava module
calls through its module globals with wrappers that record a span (name,
layer, parent, start, end) and a work count, and puts the originals back on
exit. Nothing under `src/` changes; untraced runs never see the wrappers.
Only the flattener's outermost `copy.deepcopy` calls are wrapped: the copy
module's own recursion goes through its own globals.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict
from contextlib import contextmanager

LAYERS = {
    "tokenize": "lexer",
    "parse_source": "parser",
    "build_model": "model",
    "classify_members": "model",
    "compute_access_graph": "resolver",
    "resolve_class": "resolver",
    "flatten_model": "flattener",
    "rewrite_references": "flattener",
    "deepcopy": "flattener",
    "emit": "emitter",
    "measure_original": "metrics",
    "measure_flattened": "metrics",
    "compare": "metrics",
    "plan_document": "report",
    "render_compare": "report",
    "render_metrics": "report",
}


SPAN_FIELDS = ("id", "parent", "name", "layer", "round", "command", "start", "end", "count")


class Tracer:
    """Records the spans of one round at a time; `take` hands them over."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.command = ""
        self.round = 0
        # Seconds spent counting top-level results, per command of the round.
        self.count_s: dict[str, float] = defaultdict(float)

    def take(self) -> list[tuple]:
        """The round's spans as tuples of SPAN_FIELDS; the tracer starts afresh."""
        rows = [tuple(s.get(f) for f in SPAN_FIELDS) for s in self.spans]
        self.spans.clear()
        self.count_s.clear()
        return rows

    def wrap(self, name: str, fn, count=None):
        layer = LAYERS[name]
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = {
                "id": len(spans), "parent": stack[-1] if stack else None,
                "name": name, "layer": layer, "round": self.round, "command": self.command,
            }
            spans.append(span)
            stack.append(span["id"])
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if count is not None:
                span["count"] = count(result)
                if span["parent"] is None:
                    # Counting a top-level result happens outside every span;
                    # keep it out of the uncovered (I/O) time.
                    self.count_s[self.command] += clock() - span["end"]
            return result

        return traced

    @contextmanager
    def installed(self):
        from flatjava import cli, flattener, metrics, parser, resolver, tree

        def nodes(unit) -> int:
            total = 0
            todo = [unit]
            while todo:
                item = todo.pop()
                if isinstance(item, tree.Node):
                    total += 1
                    todo.extend(vars(item).values())
                elif isinstance(item, list):
                    todo.extend(item)
            return total

        def flat_counts(flattened) -> dict:
            return {
                "pulled": sum(m.pulled for f in flattened.values() for m in f.members),
                "rewrites": sum(len(f.rewrites) for f in flattened.values()),
                "classes": len(flattened),
            }

        def edges(res) -> int:
            return len(res.edges)

        resolve = self.wrap("resolve_class", resolver.resolve_class, edges)
        emit = self.wrap("emit", cli.emit, len)
        measure_original = self.wrap("measure_original", metrics.measure_original)
        measure_flattened = self.wrap("measure_flattened", metrics.measure_flattened)
        copy_module = types.SimpleNamespace(
            deepcopy=self.wrap("deepcopy", flattener.copy.deepcopy)
        )
        patches = [
            (parser, "tokenize", self.wrap("tokenize", parser.tokenize, len)),
            (cli, "parse_source", self.wrap("parse_source", cli.parse_source, nodes)),
            (cli, "build_model", self.wrap("build_model", cli.build_model)),
            (cli, "classify_members", self.wrap(
                "classify_members", cli.classify_members, lambda m: len(m.overrides))),
            (cli, "compute_access_graph", self.wrap(
                "compute_access_graph", cli.compute_access_graph)),
            (resolver, "resolve_class", resolve),
            (flattener, "resolve_class", resolve),
            (metrics, "resolve_class", resolve),
            (cli, "flatten_model", self.wrap("flatten_model", cli.flatten_model, flat_counts)),
            (flattener, "rewrite_references", self.wrap(
                "rewrite_references", flattener.rewrite_references)),
            (flattener, "copy", copy_module),
            (cli, "emit", emit),
            (metrics, "emit", emit),
            (cli, "measure_original", measure_original),
            (cli, "measure_flattened", measure_flattened),
            (metrics, "measure_original", measure_original),
            (metrics, "measure_flattened", measure_flattened),
            (cli, "compare_views", self.wrap("compare", cli.compare_views)),
            (cli, "plan_document", self.wrap("plan_document", cli.plan_document)),
            (cli, "render_compare", self.wrap("render_compare", cli.render_compare)),
            (cli, "render_metrics", self.wrap("render_metrics", cli.render_metrics)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def round_metrics(spans: list[dict], command_wall: dict[str, float], count_s: float) -> dict:
    """Per-layer figures for one traced round of the three commands.

    A span's self time is its duration minus its child spans. `cli.io_s` is
    the commands' wall time that no top-level span covers: reading sources,
    scanning paths, writing files and click's own work.
    """
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        self_s[s["layer"]] += s["end"] - s["start"] - child_s[s["id"]]
        by_name[s["name"]].append(s)

    def total(name: str, key: str | None = None) -> int:
        return sum(s["count"][key] if key else s["count"] for s in by_name[name])

    flatten_cmd = [s for s in by_name["flatten_model"] if s["command"] == "flatten"]
    resolves = sum(1 for s in by_name["resolve_class"] if s["command"] == "flatten")
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return {
        "lexer.self_s": self_s["lexer"],
        "lexer.tokens": total("tokenize"),
        "parser.self_s": self_s["parser"],
        "parser.nodes": total("parse_source"),
        "model.self_s": self_s["model"],
        "model.overrides": total("classify_members"),
        "resolver.self_s": self_s["resolver"],
        "resolver.edges": total("resolve_class"),
        "resolver.resolves_per_class": resolves / flatten_cmd[0]["count"]["classes"],
        "flattener.self_s": self_s["flattener"],
        "flattener.deepcopy_s": sum(s["end"] - s["start"] for s in by_name["deepcopy"]),
        "flattener.deepcopy_calls": len(by_name["deepcopy"]),
        "flattener.rewrite_s": sum(
            s["end"] - s["start"] - child_s[s["id"]] for s in by_name["rewrite_references"]
        ),
        "flattener.pulled_members": total("flatten_model", "pulled"),
        "flattener.rewrites": total("flatten_model", "rewrites"),
        "emitter.self_s": self_s["emitter"],
        "emitter.calls": len(by_name["emit"]),
        "emitter.bytes": total("emit"),
        "metrics.self_s": self_s["metrics"],
        "report.self_s": self_s["report"],
        "cli.io_s": sum(command_wall.values()) - top - count_s,
    }
