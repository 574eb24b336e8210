"""Internal quality metrics over original and flattened class views.

Size: NOA (attributes), NOM (methods, constructors excluded), SLOC counted
on the canonical emission of the view so both views are measured with the
same yardstick. Cohesion: LCOM1 is the number of method pairs sharing no
attribute; LCOM2 is max(P - Q, 0) over non-sharing/sharing pairs. A method
"uses" an attribute through a direct read or write edge only. The use sets
come from one pass over the class's edges, grouped by source method, and Q
is counted from one bitmask of methods per attribute, so cohesion costs
time linear in the edges plus the uses, not in the method pairs. Coupling:
CBO counts the other model classes named in field types, parameter and
return types, constructor calls, and receiver types.
"""

from __future__ import annotations

from . import tree
from .emitter import emit
from .flattener import FlattenedClass
from .model import ClassModel
from .resolver import AccessGraph, ClassResolution, READ, WRITE
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


def lcom_values(use_sets: list[set[str]]) -> tuple[int, int]:
    """(LCOM1, LCOM2) from per-method attribute-use sets."""
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
        rule_counts: dict[str, int] = {}
        for fate in flattened[name].fates:
            rule_counts[fate.rule] = rule_counts.get(fate.rule, 0) + 1
        rows.append(ComparisonRow(name, original, flat, deltas, rule_counts))
    return rows


def _measure(
    model: ClassModel,
    name: str,
    view: str,
    decl: tree.ClassDecl,
    resolution: ClassResolution,
) -> MetricsRecord:
    fields = [m for m in decl.members if isinstance(m, tree.FieldDecl)]
    methods = [m for m in decl.members if isinstance(m, tree.MethodDecl)]
    attr_names = {f.name for f in fields}

    use_sets = []
    for m in methods:
        own = resolution.members.get(id(m))
        use_sets.append({
            s.to_member for s in own.sites.values()
            if s.kind in (READ, WRITE) and s.to_class in (None, name) and s.to_member in attr_names
        } if own else set())
    lcom1, lcom2 = lcom_values(use_sets)

    sloc = sum(1 for line in emit(decl).splitlines() if line.strip())

    referenced: set[str] = set()
    for f in fields:
        referenced.add(f.decl_type.name)
    for m in methods:
        if m.return_type is not None:
            referenced.add(m.return_type.name)
        for p in m.params:
            referenced.add(p.decl_type.name)
    for m in decl.members:
        if isinstance(m, tree.CtorDecl):
            for p in m.params:
                referenced.add(p.decl_type.name)
    referenced |= resolution.new_types
    referenced |= resolution.receiver_types
    cbo = sum(
        1
        for t in referenced
        if t != name and t in model.classes and not model.classes[t].synthetic
    )

    return MetricsRecord(name, view, len(fields), len(methods), sloc, lcom1, lcom2, cbo)
