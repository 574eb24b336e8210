"""Internal quality metrics over original and flattened class views.

Size: NOA (attributes), NOM (methods, constructors excluded), SLOC counted
on the canonical emission of the view so both views are measured with the
same yardstick. A member's lines are counted from the shape of its
statements, without writing any text, and the count is kept on its node.
Cohesion: LCOM1 is the number of method pairs sharing no attribute; LCOM2
is max(P - Q, 0) over non-sharing/sharing pairs. A method "uses" an
attribute through a direct read or write edge only, read off the
resolution that each member record carries; each use set is kept on that
resolution, and only references qualified by the measured class's own
name are added per class. Q is counted from one bitmask of methods per
attribute: a method joining a set of methods adds the methods in the OR
of its attributes' masks. Coupling: CBO counts the other model
classes named in field types, parameter and return types, constructor
calls, and receiver types. A flattened view is measured as its own members
added to its pulled part, whose measures (NOA, NOM, SLOC, named types, Q
and masks) each level adds once to those of its `base`'s part.
"""

from __future__ import annotations

from . import tree
from .emitter import member_line_count
from .flattener import FlattenedClass
from .model import ClassModel, MemberInfo
from .resolver import CALL, MemberResolution
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
        return {"name": self.class_name, "view": self.view,
                **{field: getattr(self, field) for field in _METRIC_FIELDS}}


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
    users, q = {}, 0
    for i, used in enumerate(use_sets):
        q = _share(users, q, 1 << i, used)
    p = len(use_sets) * (len(use_sets) - 1) // 2 - q
    return p, max(p - q, 0)


def _share(users: dict[str, int], q: int, bit: int, used) -> int:
    """Q once the method at `bit`, which uses the attributes `used`, joins the
    methods whose bits `users` holds per attribute; `users` takes its bit."""
    sharers = 0
    for attr in used:
        mask = users.get(attr, 0)
        sharers |= mask
        users[attr] = mask | bit
    return q + (sharers & ~bit).bit_count()


def measure_original(model: ClassModel, name: str) -> MetricsRecord:
    return _record(model, name, ORIGINAL, _add(_EMPTY, model.classes[name].members))


def measure_flattened(model: ClassModel, flat: FlattenedClass) -> MetricsRecord:
    part = flat.pulled_part("metrics", _measure_pulled, _EMPTY)
    return _record(model, flat.name, FLATTENED, _add(part, flat.head_members[:flat.own]))


def compare(model: ClassModel, flattened: dict[str, FlattenedClass]) -> list[ComparisonRow]:
    """Each class's original and flattened records, their deltas, and the
    rules of the flattened view's fates: those the view decided, counted
    here, and those its base carries down, counted once per level."""
    rows = []
    for name in model.order:
        if model.classes[name].synthetic:
            continue
        original = measure_original(model, name)
        view = flattened[name]
        flat = measure_flattened(model, view)
        deltas = {
            field: getattr(flat, field) - getattr(original, field)
            for field in _METRIC_FIELDS
        }
        carried = view.base.pulled_part("rules", lambda view, inherited: _rules(
            view.head_repulled, inherited), {}) if view.base else {}
        rows.append(ComparisonRow(name, original, flat, deltas, _rules(view.head_fates, carried)))
    return rows


def _rules(fates, counted: dict[str, int]) -> dict[str, int]:
    """`counted`, with the rule of each of `fates` counted."""
    counts = dict(counted)
    for fate in fates:
        counts[fate.rule] = counts.get(fate.rule, 0) + 1
    return counts


# The measures of a run of members: NOA, NOM, SLOC less the class's two
# lines, the types they name, Q, each attribute's bitmask of the methods
# that use it, and the (bit, resolution) of each method whose uses depend
# on the class measured, which joins the bitmasks per class (`_record`).
_EMPTY = (0, 0, 0, frozenset(), 0, {}, ())


def _measure_pulled(view: FlattenedClass, inherited: tuple) -> tuple:
    """The measures of what `view` pulled at its level and of `inherited`."""
    return _add(inherited, view.head_members[view.own:])


def _add(part: tuple, members: list[MemberInfo]) -> tuple:
    """The measures of `part` and of `members`."""
    noa, nom, sloc, types, q, users, qualified = part
    types, users, qualified = set(types), dict(users), list(qualified)
    for member in members:
        decl, resolution = member.decl, member.resolution
        sloc += member_line_count(decl)
        types.update(resolution.new_types, resolution.receiver_types)
        if isinstance(decl, tree.FieldDecl):
            noa += 1
            types.add(decl.decl_type.name)
            continue
        types.update([p.decl_type.name for p in decl.params])
        if isinstance(decl, tree.MethodDecl):
            if decl.return_type is not None:
                types.add(decl.return_type.name)
            bit = 1 << nom
            nom += 1
            if resolution.receiver_types or resolution.class_refs:
                qualified.append((bit, resolution))
            else:
                q = _share(users, q, bit, _uses(resolution))
    return noa, nom, sloc, types, q, users, qualified


def _record(model: ClassModel, name: str, view: str, part: tuple) -> MetricsRecord:
    """The record of `name`'s view, measured as `part`, whose masks the
    methods that `qualified` holds join as methods of `name`."""
    noa, nom, sloc, types, q, users, qualified = part
    for bit, resolution in qualified:
        q = _share(users, q, bit, _uses(resolution, name))
    classes = model.classes
    cbo = sum(t != name and t in classes and not classes[t].synthetic for t in types)
    p = nom * (nom - 1) // 2 - q
    # The emission is the class line, each member's lines with a blank line
    # between members, and the closing brace; no line of a member is blank.
    return MetricsRecord(name, view, noa, nom, 2 + sloc, p, max(p - q, 0), cbo)


def _uses(resolution: MemberResolution, name: str | None = None) -> tuple[str, ...]:
    """The attributes of class `name` that a body in it reads or writes.

    Those reached through the holder's own members (no `to_class`) are kept
    on the resolution; without `name`, they are all. A reference qualified
    by `name` has a receiver or a static qualifier, and counts only in
    `name`'s view, so it is added here.
    """
    used = resolution.used
    if used is None:
        used = resolution.used = tuple(dict.fromkeys(
            s.to_member for s in resolution.sites.values() if s.to_class is None and s.kind != CALL
        ))
    if name and (resolution.receiver_types or resolution.class_refs):
        used += tuple(
            s.to_member for s in resolution.sites.values() if s.to_class == name and s.kind != CALL
        )
    return used
