"""Report documents and serialization (JSON, CSV, markdown).

Document shapes are versioned: metrics reports are `report/v1`, comparison
reports `compare/v1` and flatten plans `plan/v1`. JSON Schema files for
each live in the `schemas` package directory.

`dump_json` writes any document as `json.dumps(..., indent=2)` would. The
plan, which lists every fate of every flattened class and so grows with
depth squared on a chain, has its own fixed-layout writer, `plan_json`;
`plan_document` stays as the plan's document form.
"""

from __future__ import annotations

import csv
import io
import json
from importlib import resources
from json.encoder import encode_basestring_ascii as _encode_string

from .flattener import FlattenedClass, MemberFate
from .metrics import ComparisonRow, MetricsRecord

RULE_IDS = ("R1", "R2", "R3", "R4a", "R4b", "R4c", "R5", "R6", "R7", "R8", "CTOR")

FORMATS = ("json", "csv", "markdown")


def load_schema(name: str) -> dict:
    """Load a committed JSON schema (e.g. "report_v1")."""
    path = resources.files("flatjava.schemas").joinpath(f"{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def dump_json(document: dict) -> str:
    """`json.dumps(document, indent=2) + "\\n"`, byte for byte.

    With `indent`, CPython's `json` falls back to its pure-Python encoder,
    whose nested closures leave reference cycles behind: with it, a
    collection right after `compare` on the `chain3` fixture frees 33
    objects, and a command must leave nothing for the collector it pauses
    (`tests/test_collector_pause.py`). So this writer must not be replaced
    by `json.dumps`; it is also faster, using the C string escaper. It takes
    dicts with string keys, lists, tuples, strings, ints, bools and None.
    """
    out: list[str] = []
    _write_json(document, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append `value` to `out`; `newline` is a line break plus its indent."""
    if isinstance(value, str):
        out.append(_encode_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + _encode_string(key) + ": ")
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# --- metrics report ---------------------------------------------------------


def metrics_document(records: list[MetricsRecord]) -> dict:
    return {"schema": "report/v1", "classes": [r.as_dict() for r in records]}


def render_metrics(records: list[MetricsRecord], fmt: str) -> str:
    if fmt == "json":
        return dump_json(metrics_document(records))
    header = ["name", "view", "noa", "nom", "sloc", "lcom1", "lcom2", "cbo"]
    rows = [
        [r.class_name, r.view, r.noa, r.nom, r.sloc, r.lcom1, r.lcom2, r.cbo]
        for r in records
    ]
    if fmt == "csv":
        return _render_csv(header, rows)
    if fmt == "markdown":
        return _render_markdown(header, rows)
    raise ValueError(f"unknown format {fmt!r}")


# --- comparison report ------------------------------------------------------


def compare_document(rows: list[ComparisonRow]) -> dict:
    classes = []
    for row in rows:
        rules = {rule: row.rule_counts.get(rule, 0) for rule in RULE_IDS}
        classes.append(
            {
                "name": row.class_name,
                "original": row.original.as_dict(),
                "flattened": row.flattened.as_dict(),
                "delta": dict(row.deltas),
                "rules": rules,
            }
        )
    return {"schema": "compare/v1", "classes": classes}


def render_compare(rows: list[ComparisonRow], fmt: str) -> str:
    if fmt == "json":
        return dump_json(compare_document(rows))
    header = [
        "name",
        "noa", "noa_flat", "nom", "nom_flat", "sloc", "sloc_flat",
        "lcom1", "lcom1_flat", "lcom2", "lcom2_flat", "cbo", "cbo_flat",
    ]
    table = []
    for row in rows:
        o, f = row.original, row.flattened
        table.append(
            [row.class_name, o.noa, f.noa, o.nom, f.nom, o.sloc, f.sloc,
             o.lcom1, f.lcom1, o.lcom2, f.lcom2, o.cbo, f.cbo]
        )
    if fmt == "csv":
        return _render_csv(header, table)
    if fmt == "markdown":
        return _render_markdown(header, table)
    raise ValueError(f"unknown format {fmt!r}")


# --- plan and model dumps ---------------------------------------------------


def plan_document(flattened: dict[str, FlattenedClass]) -> dict:
    classes = []
    for name in flattened:
        flat = flattened[name]
        fates = []
        for fate in flat.fates:
            fates.append(
                {
                    "member": fate.member.signature,
                    "kind": fate.member.kind,
                    "provenance": fate.member.owner,
                    "decision": fate.decision,
                    "rule": fate.rule,
                    "new_name": fate.new_name,
                }
            )
        rewrites = [
            {
                "span": list(r.span),
                "old": r.old,
                "new": r.new,
                "target_owner": r.target_owner,
            }
            for r in flat.rewrites
        ]
        classes.append({"name": name, "fates": fates, "rewrites": rewrites})
    return {"schema": "plan/v1", "classes": classes}


# A class, fate and rewrite of `plan_document`, as `json.dumps(..., indent=2)`
# lays each out at its depth in the plan.
_CLASS = """
    {
      "name": %s,
      "fates": %s,
      "rewrites": %s
    }"""
_FATE = """
        {
          "member": %s,
          "kind": %s,
          "provenance": %s,
          "decision": %s,
          "rule": %s,
          "new_name": %s
        }"""
_REWRITE = """
        {
          "span": [
            %d,
            %d
          ],
          "old": %s,
          "new": %s,
          "target_owner": %s
        }"""


def plan_json(flattened: dict[str, FlattenedClass]) -> str:
    """`dump_json(plan_document(flattened))`, byte for byte, without the document.

    The plan lists every fate of every flattened class, so on a chain it
    grows with depth squared. This writer fills one fixed layout per fate
    and per rewrite instead of walking a nested document. A fate shared by
    every level that pulls its member again keeps its entry (`MemberFate.plan`).
    """
    enc = _encode_string
    classes = []
    for name, flat in flattened.items():
        fates = [f.plan or _fate_plan(f) for f in flat.fates]
        rewrites = [
            _REWRITE % (r.span[0], r.span[1], enc(r.old), enc(r.new), enc(r.target_owner))
            for r in flat.rewrites
        ]
        classes.append(_CLASS % (enc(name), _items(fates, 6), _items(rewrites, 6)))
    return '{\n  "schema": "plan/v1",\n  "classes": %s\n}\n' % _items(classes, 2)


def _fate_plan(f: MemberFate) -> str:
    m, enc = f.member, _encode_string
    f.plan = _FATE % (enc(m.signature), enc(m.kind), enc(m.owner), enc(f.decision),
                      enc(f.rule), "null" if f.new_name is None else enc(f.new_name))
    return f.plan


def _items(items: list[str], indent: int) -> str:
    """A JSON list of laid-out items whose closing bracket is at `indent`."""
    if not items:
        return "[]"
    return "[" + ",".join(items) + "\n" + " " * indent + "]"


# --- table rendering --------------------------------------------------------


def _render_csv(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _render_markdown(header: list[str], rows: list[list]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines) + "\n"
