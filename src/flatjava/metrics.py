"""Internal quality metrics over original and flattened class views.

Size: NOA (attributes), NOM (methods, constructors excluded), SLOC counted
on the canonical emission of the view so both views are measured with the
same yardstick. A member's lines are counted from the shape of its
statements, without writing any text, and the count is kept on its node; a
flattened view shares most of its nodes with its superclass's view, so each
distinct member is counted once. Cohesion:
LCOM1 is the number of method pairs sharing no attribute; LCOM2 is
max(P - Q, 0) over non-sharing/sharing pairs. A method "uses" an attribute
through a direct read or write edge only. Each use set is computed once per
member resolution, which an untouched pulled member shares down a chain;
only references qualified by the measured class's own name are added per
class. Q is counted from one bitmask of methods per attribute. Coupling:
CBO counts the other model classes named in field types, parameter and
return types, constructor calls, and receiver types.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter

from . import tree
from .emitter import member_line_count
from .flattener import FlattenedClass
from .model import ClassModel
from .resolver import CALL, AccessGraph, ClassResolution, MemberResolution
from .emitter import emit  # noqa: F401 - benchmark/tracing.py wraps metrics.emit
from .resolver import resolve_class  # noqa: F401 - benchmark/tracing.py wraps metrics.resolve_class

ORIGINAL = "original"
FLATTENED = "flattened"

_METRIC_FIELDS = ("noa", "nom", "sloc", "lcom1", "lcom2", "cbo")


class MetricsRecord:
    def __init__(self, class_name: str, view: str, noa: int, nom: int, sloc: int, lcom1: int,
                 lcom2: int, cbo: int):
        self.class_name = class_name
        self.view = view
        self.noa = noa
        self.nom = nom
        self.sloc = sloc
        self.lcom1 = lcom1
        self.lcom2 = lcom2
        self.cbo = cbo

    def as_dict(self) -> dict:
        return {
            "name": self.class_name,
            "view": self.view,
            "noa": self.noa,
            "nom": self.nom,
            "sloc": self.sloc,
            "lcom1": self.lcom1,
            "lcom2": self.lcom2,
            "cbo": self.cbo,
        }


class ComparisonRow:
    def __init__(self, class_name: str, original: MetricsRecord, flattened: MetricsRecord,
                 deltas: dict[str, int], rule_counts: dict[str, int]):
        self.class_name = class_name
        self.original = original
        self.flattened = flattened
        self.deltas = deltas
        self.rule_counts = rule_counts


def lcom_values(use_sets: list) -> tuple[int, int]:
    """(LCOM1, LCOM2) from per-method attribute-use sets; a set may be any
    iterable of attribute names, in which a name may repeat."""
    n = len(use_sets)
    if n < 2:
        return 0, 0
    # Bit i of users[a] is set when method i uses attribute a.
    users: dict[str, int] = {}
    for i, used in enumerate(use_sets):
        for attr in used:
            users[attr] = users.get(attr, 0) | 1 << i
    q = 0
    for i, used in enumerate(use_sets):
        sharers = 0
        for attr in used:
            sharers |= users[attr]
        q += (sharers >> (i + 1)).bit_count()  # later methods sharing with i
    p = n * (n - 1) // 2 - q
    return p, max(p - q, 0)


def measure_original(model: ClassModel, graph: AccessGraph, name: str) -> MetricsRecord:
    return _measure(model, name, ORIGINAL, model.classes[name].decl, graph.resolutions[name])


def measure_flattened(model: ClassModel, flat: FlattenedClass) -> MetricsRecord:
    return _measure(model, flat.name, FLATTENED, flat.decl, flat.resolution)


def compare(
    model: ClassModel, graph: AccessGraph, flattened: dict[str, FlattenedClass]
) -> list[ComparisonRow]:
    rows = []
    for name in model.order:
        if model.classes[name].synthetic:
            continue
        original = measure_original(model, graph, name)
        flat = measure_flattened(model, flattened[name])
        deltas = {
            field: getattr(flat, field) - getattr(original, field)
            for field in _METRIC_FIELDS
        }
        rule_counts = Counter(map(attrgetter("rule"), flattened[name].fates))
        rows.append(ComparisonRow(name, original, flat, deltas, rule_counts))
    return rows


def _measure(model: ClassModel, name: str, view: str, decl: tree.ClassDecl,
             resolution: ClassResolution) -> MetricsRecord:
    fields = [m for m in decl.members if isinstance(m, tree.FieldDecl)]
    methods = [m for m in decl.members if isinstance(m, tree.MethodDecl)]
    lcom1, lcom2 = lcom_values([_uses(r, name) for m, r in zip(decl.members, resolution.members)
                                if isinstance(m, tree.MethodDecl)])
    # The emission is the class line, each member's lines with a blank line
    # between members, and the closing brace; no line of a member is blank.
    sloc = 2 + sum(map(member_line_count, decl.members))

    referenced = {f.decl_type.name for f in fields}
    referenced.update(m.return_type.name for m in methods if m.return_type is not None)
    for m in decl.members:
        if not isinstance(m, tree.FieldDecl):
            referenced.update(p.decl_type.name for p in m.params)
    referenced |= resolution.new_types | resolution.receiver_types
    classes = model.classes
    cbo = sum(t != name and t in classes and not classes[t].synthetic for t in referenced)
    return MetricsRecord(name, view, len(fields), len(methods), sloc, lcom1, lcom2, cbo)


def _uses(resolution: MemberResolution, name: str) -> tuple[str, ...]:
    """The attributes of class `name` that a body in it reads or writes.

    Those reached through the holder's own members (no `to_class`) are kept
    on the resolution. A reference qualified by `name` has a receiver or a
    static qualifier, and counts only in `name`'s view, so it is added here.
    """
    used = resolution.used
    if used is None:
        used = resolution.used = tuple(dict.fromkeys(
            s.to_member for s in resolution.sites.values() if s.to_class is None and s.kind != CALL
        ))
    if resolution.receiver_types or resolution.class_refs:
        used += tuple(
            s.to_member for s in resolution.sites.values() if s.to_class == name and s.kind != CALL
        )
    return used
