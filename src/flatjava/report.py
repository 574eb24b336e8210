"""Report documents and serialization (JSON, CSV, markdown).

Document shapes are versioned: metrics reports are `report/v1`, comparison
reports `compare/v1` and flatten plans `plan/v1`. JSON Schema files for
each live in the `schemas` package directory.

`dump_json` writes any document as `json.dumps(..., indent=2)` would. The
plan, which lists every fate of every flattened class and so grows with
depth squared on a chain, has its own fixed-layout writer, `plan_json`,
which lays out the fates a view carries down once per level and reuses
them below; `plan_document` stays as the plan's document form.
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
    return _render_table(header, rows, fmt)


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
    return _render_table(header, table, fmt)


# --- plan and model dumps ---------------------------------------------------


def plan_document(flattened: dict[str, FlattenedClass]) -> dict:
    return {"schema": "plan/v1", "classes": [
        {
            "name": name,
            "fates": [
                {"member": f.member.signature, "kind": f.member.kind, "provenance": f.member.owner,
                 "decision": f.decision, "rule": f.rule, "new_name": f.new_name}
                for f in flat.fates
            ],
            "rewrites": [
                {"span": list(r.span), "old": r.old, "new": r.new, "target_owner": r.target_owner}
                for r in flat.rewrites
            ],
        }
        for name, flat in flattened.items()
    ]}


# A fate and a rewrite of `plan_document`, as `json.dumps(..., indent=2)`
# lays each out at its depth in the plan.
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
    and per rewrite instead of walking a nested document, and joins the
    pieces once. A fate shared by every level that pulls its member again
    keeps its entry (`MemberFate.plan`). Where a view ends with its base's
    pulled part, its last fates are the ones the base carries down, and
    their entries are the base's layout of that part, one fragment per
    level (`_plan_part`).
    """
    enc = _encode_string
    out = ['{\n  "schema": "plan/v1",\n  "classes": ']
    separator = "["
    for name, flat in flattened.items():
        base = flat.base
        fates = _entries(flat.head_fates)
        inherited = base.pulled_part("plan", _plan_part, ()) if base else ()
        out += (separator, '\n    {\n      "name": ', enc(name), ',\n      "fates": ')
        _items(out, (fates, *inherited) if fates else inherited, 6)
        out.append(',\n      "rewrites": ')
        _items(out, [
            _REWRITE % (r.span[0], r.span[1], enc(r.old), enc(r.new), enc(r.target_owner))
            for r in flat.rewrites
        ], 6)
        out.append("\n    }")
        separator = ","
    out.append("\n  ]\n}\n" if flattened else "[]\n}\n")
    return "".join(out)


def _plan_part(view: FlattenedClass, inherited: tuple[str, ...]) -> tuple[str, ...]:
    """The entries of the fates that `view` carries down for what it pulled
    at its level, as one fragment, before the fragments `inherited`."""
    fragment = _entries(view.head_repulled)
    return (fragment, *inherited) if fragment else inherited


def _entries(fates) -> str:
    """The laid-out entries of `fates`, joined into one list fragment."""
    return ",".join([f.plan or _fate_plan(f) for f in fates])


def _fate_plan(f: MemberFate) -> str:
    m, enc = f.member, _encode_string
    f.plan = _FATE % (enc(m.signature), enc(m.kind), enc(m.owner), enc(f.decision),
                      enc(f.rule), "null" if f.new_name is None else enc(f.new_name))
    return f.plan


def _items(out: list[str], items, indent: int) -> None:
    """Append to `out` a JSON list of laid-out items, or of fragments of
    them, whose closing bracket is at `indent`."""
    out += ("[", ",".join(items), "\n" + " " * indent + "]") if items else ("[]",)


# --- table rendering --------------------------------------------------------


def _render_table(header: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue()
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        for row in rows:
            lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
