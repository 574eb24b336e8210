"""Pull-down flattening: fates, renames, and reference rewriting.

Classes are flattened bottom-up; each class is flattened against the
already-flattened version of its direct superclass, so a chain collapses
pairwise. Fate rules:

  attributes                          methods
  R1 visible, not overridden          R5 visible, not overridden
  R2 invisible, accessed by a         R6 visible, overridden (renamed)
     pulled-down accessor             R7 invisible, reachable from the
  R3 invisible, unaccessed (drop)        pulled set (renamed if overridden)
  R4a overridden, accessed (renamed)  R8 invisible, unreachable (drop)
  R4b overridden, visible, unaccessed
      (renamed)
  R4c overridden, invisible,
      unaccessed (drop)

"Accessed" and "reachable" are computed as one fixed point: the pulled set
starts with the visible members and grows through read/write/call edges
whose source is a pulled method or the initializer of a pulled attribute.
Whatever the superclass's view pulled from further up is pulled again, and
its bodies reach no member the superclass declares itself. So that part of
the pulled set is the view's pulled members; each view carries down only
the attributes they access, renamed, and only the superclass's own members
are walked (`pulled_closure`). Their fates, fixed by kind and visibility
(R1, R2, R5, R7), are carried down too and shared by every level below.
Pulled bodies are bound statically: a self-call to a method the subclass
overrides calls the renamed superclass copy. A call whose overload changes
in the flattened class, because the subclass adds one or `this` now has the
subclass's type, is kept as written and reported (`rebound-call`).
An overridden pairing with a static mismatch or a final superclass member
is treated as non-overriding; if the un-renamed pull would then collide, the
member is renamed anyway and a diagnostic records it.

Constructors are never pulled. A no-arg superclass constructor whose body
only assigns literals to fields (none of which any field initializer reads)
is folded into the pulled fields' initializers; anything else is reported
as unsupported for flattening.

Each class is resolved once, as written, and each member record carries
its resolution. A flattened class's resolutions are derived, not resolved
again: from the superclass view's records, the subclass's own and the
rename maps. A body's sites are relative to the class that holds it, so
only a pulled body that references a member renamed or collapsed at this
level is walked; every other pulled member keeps its node and the
superclass's resolution object of it. Likewise the subclass's own body is
walked only when one of its references changes.
One walker (`_Carrier`) rewrites both kinds of body, along only the paths
to the references that change, and takes each reference's move from its
site alone (`_own_move`, `_pulled_move`). The few bodies whose resolution
can change in the flattened class are resolved again there
(`_resolve_changed`).

A view lists what its level built in declaration order, its own members
first. A record is new exactly where its declaration or its resolution
differs from the record it came from, the model's or the superclass
view's, and no record is changed once made. Where the superclass's view
carried its pulled members' fates down and none of them changes here, the
view ends with that view's pulled part as it is, records and fates, and
names that view its `base`; it builds and keeps only its own members and
the superclass's own, pulled. The next class walks the bases for the whole
member list (`FlattenedClass.whole`), at most once per level, only to walk,
fold or re-resolve the view. What it asks of the part by name is kept in
an index that each level extends (`_part_index`), and what the emitted
text, the plan and the metrics need of it is built once per level and
reused below (`FlattenedClass.pulled_part`).
"""

from __future__ import annotations

import copy  # noqa: F401 - benchmark/tracing.py wraps flattener.copy.deepcopy
from bisect import bisect_left
from functools import cached_property
from itertools import chain

from . import tree
from .errors import (
    ANOMALY_MEMBER,
    DanglingSuperRef,
    Diagnostic,
    FlattenError,
    FORCED_RENAME,
    REBOUND_CALL,
    UNSUPPORTED_CTOR,
)
from .model import (
    ATTRIBUTE,
    CTOR,
    METHOD,
    ClassInfo,
    ClassModel,
    MemberInfo,
    class_info_from_decl,
    override_legality,
)
from .resolver import (
    BASIS_BARE,
    BASIS_CLASS,
    BASIS_SUPER,
    BASIS_THIS,
    CALL,
    LOCAL_BASES,
    READ,
    MemberResolution,
    Site,
    resolve_class,  # noqa: F401 - benchmark/tracing.py wraps flattener.resolve_class
    resolve_member,
)

PULL_DOWN = "PullDown"
PULL_DOWN_RENAMED = "PullDownRenamed"
DROP = "Drop"
DROP_ANOMALY = "DropAnomaly"

RULE_CTOR = "CTOR"


class MemberFate:
    __slots__ = ("member", "decision", "rule", "new_name", "plan")

    def __init__(self, member: MemberInfo, decision: str, rule: str, new_name: str | None = None):
        self.member = member
        self.decision = decision  # PullDown | PullDownRenamed | Drop | DropAnomaly
        self.rule = rule  # R1..R8 or CTOR
        self.new_name = new_name
        self.plan: str | None = None  # its plan entry, once `report.plan_json` wrote it

    @property
    def pulls(self) -> bool:
        return self.decision in (PULL_DOWN, PULL_DOWN_RENAMED)


class RewriteDirective:
    def __init__(self, span: tuple[int, int], old: str, new: str, target_owner: str):
        self.span = span
        self.old = old
        self.new = new
        self.target_owner = target_owner


class FlattenedClass:
    """A flattened view: what it built itself, and the base it ends with.

    `head_members` holds the view's `own` members and those it pulled at
    its level, each record with its resolution, and `head_fates` the fates
    it decided. Where `base` is set, the view goes on with `base`'s pulled
    part as it is: the same records and carried fates. `emit`, the plan and
    the metrics read only the heads.
    """

    def __init__(self, name: str, package: str | None, visibility: str,
                 members: list[MemberInfo], fates: list[MemberFate] | None = None,
                 rewrites: list[RewriteDirective] | None = None):
        self.name, self.package, self.visibility = name, package, visibility
        self.head_members = members
        self.head_fates = [] if fates is None else fates
        self.rewrites = [] if rewrites is None else rewrites
        self.diagnostics: list[Diagnostic] = []
        # Whether the pulled members, and the attributes their bodies access,
        # are their part of the next class's fixed point: not for a root, nor
        # where a pulled body's resolution changed here. Then the fates, one
        # level down where nothing touches them, of those pulled at this level.
        self.carries = False
        self.head_repulled: list[MemberFate] = []
        self.own = len(members)
        self.base: FlattenedClass | None = None
        self.parts: dict = {}  # each consumer's layout of the pulled part
        self.index: _PartIndex | None = None  # see `_part_index`

    def bases(self):
        """The views whose pulled parts this view ends with, nearest first."""
        view = self.base
        while view is not None:
            yield view
            view = view.base

    def carried_fates(self):
        """Where the view carries its pulled part down, that part's fates one level down."""
        if self.carries:
            for view in (self, *self.bases()):
                yield from view.head_repulled

    def whole(self, start: int = 0) -> list[MemberInfo]:
        """The view's members from `start` on, its bases' parts included."""
        members = self.head_members[start:]
        for view in self.bases():
            members += view.head_members[view.own:]
        return members

    @cached_property
    def members(self) -> list[MemberInfo]:
        # Kept for benchmark/tracing.py's pulled-member count (ROADMAP item 1) only.
        return self.whole()

    def pulled_part(self, key, build, empty):
        """The view's pulled part as one consumer lays it out, kept under `key`.

        `build(view, inherited)` lays out what `view` pulled at its level,
        `head_members[own:]`, followed by `inherited`: its base's layout, or
        `empty`. Each view's layout is built once, bases first.
        """
        views, view = [], self
        while view is not None and key not in view.parts:
            views.append(view)
            view = view.base
        part = empty if view is None else view.parts[key]
        for view in reversed(views):
            part = view.parts[key] = build(view, part)
        return part


class _PartIndex:
    """What the next class asks of a view's pulled part: its members' (kind,
    signature), their carried fates by (owner, declared signature), how many
    methods have each member name and the names that repeat, and the method
    names its bodies call bare or through `this`, the attributes they access
    there and the classes they qualify."""

    def __init__(self):
        self.keys: set[tuple[str, str]] = set()
        self.declared: dict[tuple[str, str], MemberFate] = {}
        self.names: dict[str, int] = {}
        self.repeated: set[str] = set()
        self.calls: set[str] = set()
        self.accessed: set[str] = set()
        self.qualifiers: set[str] = set()

    def add(self, members: list[MemberInfo], fates) -> None:
        self.declared.update(((f.member.owner, f.member.declared_signature), f) for f in fates)
        names, calls, accessed = self.names, self.calls, self.accessed
        for m in members:
            resolution = m.resolution
            self.keys.add((m.kind, m.signature))
            names[m.name] = count = names.get(m.name, 0) + (m.kind == METHOD)
            if count > 1:
                self.repeated.add(m.name)
            for s in resolution.sites.values():
                if s.kind == CALL:
                    if s.basis in LOCAL_BASES:
                        calls.add(s.to_member[:s.to_member.index("(")])
                elif s.to_class is None:
                    accessed.add(s.to_member)
            if resolution.class_refs:
                self.qualifiers.update(resolution.class_refs)


def _part_index(view: FlattenedClass) -> _PartIndex:
    """The index of `view`'s pulled part. A view that ends with its base's
    part and carries its own down takes the base's index over and adds what
    it pulled; where none did, or a view below took it, it is built here."""
    index = view.index
    if index is None:
        index = view.index = _PartIndex()
        index.add(view.whole(view.own), view.carried_fates())
    return index


def flatten_model(model: ClassModel) -> dict[str, FlattenedClass]:
    """Flatten every class bottom-up, in `model.order`; its member records
    carry their resolutions (`compute_access_graph`)."""
    flattened: dict[str, FlattenedClass] = {}
    for name in model.order:
        flattened[name] = flatten_class(name, model, flattened)
    return flattened


def flatten_class(name: str, model: ClassModel,
                  flattened: dict[str, FlattenedClass]) -> FlattenedClass:
    cls = model.classes[name]
    if cls.superclass is None:
        # A root flattens to itself, and so do its member records.
        return FlattenedClass(cls.name, cls.package, cls.decl.visibility, cls.members)
    if cls.superclass not in flattened:
        raise FlattenError(
            f"superclass {cls.superclass!r} of {name!r} has not been flattened "
            "yet; flatten classes in model order",
            cls.decl.name_span, cls.path, cls.text,
        )
    return _flatten_against_super(model, cls, flattened[cls.superclass])


def rename(member_name: str, owner: str, taken: set[str]) -> str:
    """`name$Owner`, with `$1`, `$2`, ... appended until the name is free."""
    base = f"{member_name}${owner}"
    candidate = base
    counter = 0
    while candidate in taken:
        counter += 1
        candidate = f"{base}${counter}"
    return candidate


# --- fate decisions ---------------------------------------------------------


def _method_fate(sub: ClassInfo, member: MemberInfo, pulled: set[tuple[str, str]]) -> MemberFate:
    overridden = _overridden(sub.methods.get(member.signature), member)
    if member.visible:
        if overridden:
            return MemberFate(member, PULL_DOWN_RENAMED, "R6")
        return MemberFate(member, PULL_DOWN, "R5")
    if (METHOD, member.signature) in pulled:
        return MemberFate(member, PULL_DOWN_RENAMED if overridden else PULL_DOWN, "R7")
    return MemberFate(member, DROP_ANOMALY, "R8")


def _attribute_fate(sub: ClassInfo, member: MemberInfo, accessed: set[str]) -> MemberFate:
    overridden = _overridden(sub.attributes.get(member.name), member)
    was_accessed = member.name in accessed
    if overridden:
        if was_accessed:
            return MemberFate(member, PULL_DOWN_RENAMED, "R4a")
        if member.visible:
            return MemberFate(member, PULL_DOWN_RENAMED, "R4b")
        return MemberFate(member, DROP_ANOMALY, "R4c")
    if member.visible:
        return MemberFate(member, PULL_DOWN, "R1")
    if was_accessed:
        return MemberFate(member, PULL_DOWN, "R2")
    return MemberFate(member, DROP_ANOMALY, "R3")


def _overridden(own: MemberInfo | None, member: MemberInfo) -> bool:
    """Whether the subclass's member `own`, if any, legally overrides `member`."""
    return own is not None and override_legality(own, member) == "ok"


def pulled_closure(fsuper: FlattenedClass,
                   walked: list[MemberInfo]) -> tuple[set[tuple[str, str]], set[str]]:
    """The one fixed point behind the attribute and method fates, over
    `walked`, fsuper's members that the next class decides (`_walked`).

    Visible members seed the pulled set. A worklist pulls in every member
    that a read, write or call edge reaches from a pulled source: a pulled
    method's body, or a pulled attribute's initializer. Returns the
    (kind, signature) of every pulled member, and the attributes that an
    edge from a pulled source reads or writes, which tells R4a from R4b.

    Each member fsuper pulled was reached from a visible member there, and
    still is: renames keep the edges, and pulled bodies, bound statically,
    reach no member fsuper declares itself. So where fsuper carries its
    pulled part down, the worklist walks only fsuper's own members, and
    returns only what they add: the rest of the fixed point is the carried
    part itself, its members and the attributes their bodies access, which
    its index holds (`_PartIndex.keys` and `accessed`).
    """
    sources = {(m.kind, m.signature): m.resolution for m in walked}
    work = [(m.kind, m.signature) for m in walked if m.kind != CTOR and m.visible]
    pulled, accessed = set(work), set()
    while work:
        for site in sources[work.pop()].sites.values():
            if site.to_class is not None and site.to_class != fsuper.name:
                continue
            if site.kind == CALL:
                target = (METHOD, site.to_member)
            else:
                target = (ATTRIBUTE, site.to_member)
                accessed.add(site.to_member)
            if target in sources and target not in pulled:
                pulled.add(target)
                work.append(target)
    return pulled, accessed


def _walked(fsuper: FlattenedClass) -> list[MemberInfo]:
    """The members of fsuper that the next class decides: its own where it
    carries its pulled part down, else all, assembled whole."""
    return fsuper.head_members[:fsuper.own] if fsuper.carries else fsuper.whole()


# --- flattening proper ------------------------------------------------------


def _flatten_against_super(model: ClassModel, cls: ClassInfo,
                           fsuper: FlattenedClass) -> FlattenedClass:
    diagnostics: list[Diagnostic] = []
    walked = _walked(fsuper)
    pulled, accessed = pulled_closure(fsuper, walked)

    def decide(member: MemberInfo) -> MemberFate:
        if member.kind == METHOD:
            return _method_fate(cls, member, pulled)
        if member.kind == ATTRIBUTE:
            return _attribute_fate(cls, member, accessed)
        return MemberFate(member, DROP, RULE_CTOR)

    fates = list(map(decide, walked))
    # Each member fsuper pulled keeps the fate fsuper carries down for it.
    pulls = fsuper.carries and (fsuper.base or len(fsuper.head_members) > fsuper.own)
    part = _part_index(fsuper) if pulls else None
    inline_inits = _analyze_super_ctors(cls, fsuper, walked,
                                        chain(fates, fsuper.carried_fates()), diagnostics)

    for fate in fates:
        if fate.decision == DROP_ANOMALY:
            diagnostics.append(
                Diagnostic(
                    ANOMALY_MEMBER,
                    f"{fate.member.owner}.{fate.member.signature} is invisible and "
                    f"inaccessible; not pulled down (rule {fate.rule})",
                    cls.name,
                    fate.member.decl.span,
                )
            )

    kept = part
    if part and not part.keys.isdisjoint((m.kind, m.signature) for m in cls.members):
        # The subclass declares a carried member's (kind, signature): every
        # carried member is decided afresh, against the whole fixed point.
        pulled.update(part.keys)
        accessed.update(part.accessed)
        fates += [decide(f.member) for f in fsuper.carried_fates()]
        kept = None
    elif part and inline_inits:
        fates += fsuper.carried_fates()  # a folded initializer changes what fsuper carried down
        kept = None
    _assign_names(cls, fates, part, diagnostics)
    flat = rewrite_references(model, cls, fsuper, fates, kept, inline_inits)
    flat.diagnostics[:0] = diagnostics
    return flat


def rewrite_references(
    model: ClassModel,
    cls: ClassInfo,
    fsuper: FlattenedClass,
    fates: list[MemberFate],
    kept: _PartIndex | None,
    inline_inits: dict[str, tree.Expr],
) -> FlattenedClass:
    """Take members into the subclass, fix every affected reference, and
    carry each body's resolution over to the flattened class.

    Inside pulled bodies, references to renamed members switch to the new
    names and class-qualified static references to pulled members collapse
    to local ones. In the subclass's own bodies, `super.` references become
    bare references to the pulled member, and bare or `this.` references to
    an inherited member follow it to the name it is pulled under. Either
    becomes a `this.` reference where a local would capture the bare name.

    Each body's resolution is read off its record: the subclass's own as
    written, and each pulled one from its fate's member. A pulled body is
    walked only when it references a member renamed or collapsed at this
    level; every other pulled member keeps its node and shares fsuper's
    resolution of it, whose sites are relative to the class that holds the
    body. A record is new only where its declaration or its resolution
    changes here. The few bodies whose resolution can change in the
    flattened class are resolved again there (see `_resolve_changed`), and
    the result's diagnostics are the calls that bind elsewhere there.

    `fates` are those of fsuper's members, but for fsuper's pulled part
    where it is `kept` with the fates fsuper carries down: the view then ends
    with that part as it is (`base`). The view carries down what it pulled,
    and the attributes their bodies access, unless a pulled body may reach
    other members here than it did in fsuper: its initializer was replaced
    by a folded constructor assignment, or it is resolved again.
    """
    rewrites: list[RewriteDirective] = []
    name = cls.name
    members: list[MemberInfo] = []
    unsure: list[int] = []  # members whose carried resolution may not hold

    # Rewrite the subclass's own bodies to reach inherited members by their final names.
    own_rewriter = _Carrier(_own_move(cls, fates, kept.declared if kept else {}), rewrites)
    for info in cls.members:
        source = info.resolution
        decl, sites = own_rewriter.rewrite(info.decl, source.sites)
        if _retyped(model, source, name):
            unsure.append(len(members))
        if sites is not source.sites:  # made relative, and the body rewritten if it moved
            info = info.with_body(decl, source.with_sites(sites))
        members.append(info)

    # Take the pulled members, apply renames and body rewrites.
    renames = {(f.member.kind, f.member.signature): f.new_name for f in fates if f.new_name}
    pulled_rewriter = _Carrier(_pulled_move(fsuper.name, renames), rewrites)
    own_count = len(members)
    repulled: list[MemberFate] = []
    carries = True
    sup = model.classes[fsuper.name]
    for fate in fates:
        if not fate.pulls:
            continue
        member = fate.member
        decl, resolution = member.decl, member.resolution
        if member.name in inline_inits and member.kind == ATTRIBUTE:
            decl = tree.replace(decl, init=inline_inits[member.name])
            resolution = MemberResolution()
            carries = False  # the initializer no longer reaches what it did
        elif resolution.sites:
            decl, sites = pulled_rewriter.rewrite(decl, resolution.sites)
            if decl is not member.decl:
                # The walk collapsed every static reference qualified by fsuper.
                resolution = resolution.with_sites(sites, resolution.class_refs - {fsuper.name})
        if fate.new_name:
            decl = tree.replace(decl, name=fate.new_name)
        if decl is not member.decl or not member.pulled:
            member = MemberInfo(
                member.owner, fate.new_name or member.name, member.kind, member.visibility,
                member.is_static, member.is_final, _final_signature(member, fate.new_name), decl,
                member.declared_signature, True, resolution,
            )
        # `this` changes type when a body moves down a level.
        if resolution.uses_this or _moved(model, resolution, sup, name):
            unsure.append(len(members))
        members.append(member)
        repulled.append(_repulled(fate, member))

    flat = FlattenedClass(name, cls.package, cls.decl.visibility, members, fates, rewrites)
    flat.own = own_count
    flat.base = fsuper if kept else None
    _resolve_changed(model, cls, flat, kept or _PartIndex(), unsure)
    # A pulled body resolved again may reach other members here.
    if carries and max(unsure, default=-1) < own_count:
        flat.carries, flat.head_repulled = True, repulled
        if flat.base:
            flat.index, fsuper.index = kept, None
            kept.add(members[own_count:], repulled)
    return flat


def _repulled(fate: MemberFate, member: MemberInfo) -> MemberFate:
    """The fate of `member`, pulled by `fate`, one level down where nothing touches it."""
    if member is fate.member:
        return fate  # pulled unchanged: a PullDown with no new name
    rules = ("R1", "R2") if member.kind == ATTRIBUTE else ("R5", "R7")
    return MemberFate(member, PULL_DOWN, rules[not member.visible])


def _assign_names(cls: ClassInfo, fates: list[MemberFate], part: _PartIndex | None,
                  diagnostics: list[Diagnostic]) -> None:
    """Pick final names in declaration order; rename on demand for collisions.

    The freshness ladder avoids every member name in the growing class, both
    attribute and method names, even of members pulled later under their own
    names, so renamed members read unambiguously. The members of fsuper's
    pulled part, which `part` indexes where fsuper carries it down, are all
    pulled under their own names, so their names are looked up there, and
    those whose fates are kept are not named again.
    """
    # A member pulled without a rename keeps its name, so no rename may take it.
    taken = _Reserved(chain((m.name for m in cls.members if m.kind != CTOR),
                            (f.member.name for f in fates if f.decision == PULL_DOWN)))
    taken.part_names = part.names if part else {}
    # (kind, signature) of every member in the growing class; an attribute's
    # signature is its name.
    keys = {(m.kind, m.signature) for m in cls.members}
    for fate in fates:
        if not fate.pulls:
            continue
        member = fate.member
        key = (member.kind, member.signature)
        if fate.decision == PULL_DOWN_RENAMED:
            fate.new_name = rename(member.name, member.owner, taken)
        elif key in keys:
            fate.new_name = rename(member.name, member.owner, taken)
            shared = "name" if member.kind == ATTRIBUTE else "signature"
            diagnostics.append(
                Diagnostic(
                    FORCED_RENAME,
                    f"{member.owner}.{member.signature} is not a legal override of the "
                    f"subclass member but shares its {shared}; pulled as {fate.new_name}",
                    cls.name,
                    member.decl.span,
                )
            )
        taken.add(fate.new_name or member.name)
        if fate.new_name:
            key = (member.kind, _final_signature(member, fate.new_name))
        keys.add(key)


class _Reserved(set):
    """Names reserved in the growing class, or in fsuper's pulled part (`part_names`)."""

    def __contains__(self, name) -> bool:
        return set.__contains__(self, name) or name in self.part_names


def _analyze_super_ctors(
    cls: ClassInfo,
    fsuper: FlattenedClass,
    walked: list[MemberInfo],
    fates: list[MemberFate],
    diagnostics: list[Diagnostic],
) -> dict[str, tree.Expr]:
    """Fold an inlinable no-arg superclass constructor into field initializers.

    `walked` is `_walked(fsuper)`, all of fsuper's view where it does not carry.
    """

    def unsupported(message: str, span) -> dict[str, tree.Expr]:
        diagnostics.append(Diagnostic(UNSUPPORTED_CTOR, message, cls.name, span))
        return {}

    ctors = [m for m in fsuper.head_members[:fsuper.own] if m.kind == CTOR]
    if not ctors:
        return {}
    no_arg = [c for c in ctors if not c.decl.params]
    if not no_arg:
        return unsupported(
            f"superclass {fsuper.name} declares only parameterized constructors; "
            "implicit constructor chaining cannot be flattened",
            ctors[0].decl.span,
        )
    ctor = no_arg[0]
    if not ctor.decl.body.statements:
        return {}  # nothing to fold: the view is not read in full
    members = fsuper.whole() if fsuper.carries else walked
    attr_names = {m.name for m in members if m.kind == ATTRIBUTE}
    assignments: list[tuple[str, tree.Expr]] = []
    for stmt in ctor.decl.body.statements:
        target_name = None
        if isinstance(stmt, tree.Assign):
            if isinstance(stmt.target, tree.Name):
                target_name = stmt.target.ident
            elif isinstance(stmt.target, tree.FieldAccess) and isinstance(
                stmt.target.receiver, tree.This
            ):
                target_name = stmt.target.name
        if (
            target_name is None
            or target_name not in attr_names
            or not isinstance(stmt.value, tree.Literal)
        ):
            return unsupported(
                f"constructor of superclass {fsuper.name} does more than assign "
                "literals to fields; its effects are not carried into the "
                "flattened class",
                stmt.span,
            )
        assignments.append((target_name, stmt.value))
    init_reads = {
        s.to_member
        for m in members if m.kind == ATTRIBUTE
        for s in m.resolution.sites.values()
        if s.kind == READ and s.to_class in (None, fsuper.name)
    }
    assigned = {name for name, _ in assignments}
    clashing = sorted(assigned & init_reads)
    if clashing:
        return unsupported(
            f"constructor of superclass {fsuper.name} assigns field(s) "
            f"{', '.join(clashing)} that field initializers read; inlining would "
            "reorder initialization",
            ctor.decl.span,
        )
    pulled = {f.member.name for f in fates if f.member.kind == ATTRIBUTE and f.pulls}
    return {name: expr for name, expr in assignments if name in pulled}


# --- body rewriting ---------------------------------------------------------


def _renamed_signature(signature: str, name: str) -> str:
    return name + signature[signature.index("("):]


def _final_signature(member: MemberInfo, new_name: str | None) -> str:
    if new_name is None:
        return member.signature
    if member.kind == ATTRIBUTE:
        return new_name
    return _renamed_signature(member.signature, new_name)


def _retyped(model: ClassModel, resolution: MemberResolution, root: str) -> bool:
    """Whether a receiver type or static qualifier of the body is `root` or
    one of its subclasses, whose member tables change when `root` is
    flattened."""
    if not (resolution.receiver_types or resolution.class_refs):
        return False
    for name in (*resolution.receiver_types, *resolution.class_refs):
        while name is not None:
            if name == root:
                return True
            name = model.classes[name].superclass
    return False


def _moved(model: ClassModel, resolution: MemberResolution, sup: ClassInfo, name: str) -> bool:
    """Whether a body pulled from `sup`'s view may resolve otherwise in `name`:
    a receiver type or static qualifier is at or below `sup`, whose view it
    was resolved in. A root's view is its class as written, so there only a
    type at or below `name`, or a private member of `sup` it reaches, counts."""
    if not (resolution.receiver_types or resolution.class_refs):
        return False
    tables = (sup.attributes, sup.methods)
    return _retyped(model, resolution, sup.name) and (
        sup.superclass is not None or _retyped(model, resolution, name) or any(
            s.to_class == sup.name
            and not getattr(tables[s.kind == CALL].get(s.to_member), "visible", True)
            for s in resolution.sites.values() if s.basis not in LOCAL_BASES))


def _resolve_changed(
    model: ClassModel,
    cls: ClassInfo,
    flat: FlattenedClass,
    part: _PartIndex,
    unsure: list[int],
) -> None:
    """Resolve again, in the flattened class, the bodies whose resolution can change there.

    A carried resolution holds unless the member is `unsure`, or its body
    calls a method by a name the flattened class overloads, or names a
    class as a static qualifier that is now also an attribute name. Only
    what `flat` built is tested: its base's part, which `part` indexes, was
    tested one level up, so only a name `flat` adds can change one of its
    bodies. Where one does, `flat` takes the part in and has no base. The
    bodies are resolved again in member order, in a declaration of the
    whole view, so the first error is the one a resolution of the class
    would raise; it names the file the body came from. Each index resolved
    again is added to `unsure`, and its record in `flat.head_members` is
    replaced by one with the new resolution. A call that binds elsewhere
    than its carried site is a `rebound-call`.
    """
    head, names = flat.head_members, part.names
    methods, attrs = {}, set()
    for m in head:
        if m.kind == METHOD:
            methods[m.name] = methods.get(m.name, 0) + 1
        elif m.kind == ATTRIBUTE:
            attrs.add(m.name)
    overloaded = {n for n, count in methods.items() if count + names.get(n, 0) > 1}
    if not (part.calls.isdisjoint(overloaded) and part.qualifiers.isdisjoint(attrs)):
        base, flat.base = flat.base, None
        head += base.whole(base.own)
        flat.head_fates += base.carried_fates()
    repeated = part.repeated
    for i, m in enumerate(head):
        resolution = m.resolution
        if (overloaded or repeated) and any(
            s.kind == CALL and s.basis in LOCAL_BASES
            and ((n := s.to_member[:s.to_member.index("(")]) in overloaded or n in repeated)
            for s in resolution.sites.values()
        ) or resolution.class_refs and any(
            c in attrs or (ATTRIBUTE, c) in part.keys for c in resolution.class_refs
        ):
            unsure.append(i)
    if unsure:
        decl = tree.ClassDecl(cls.decl.visibility, cls.name, None,
                              [m.decl for m in flat.whole()], cls.decl.span, cls.decl.name_span)
        flat_info = class_info_from_decl(decl, cls.package, cls.path, cls.text)
        flat_model = model.with_class(flat_info)
        for i in sorted(set(unsure)):
            member = head[i]
            resolution = resolve_member(
                flat_model, flat_info, flat_info.members[i], model.classes[member.owner]
            )
            head[i] = member.with_body(member.decl, resolution)
            carried = member.resolution.sites
            for node, site in resolution.sites.items():
                was = carried.get(node)
                if site.kind == CALL and was is not None and was.to_member != site.to_member:
                    old, new = (s.to_member if s.to_class is None else f"{s.to_class}.{s.to_member}"
                                for s in (was, site))
                    flat.diagnostics.append(Diagnostic(
                        REBOUND_CALL,
                        f"the call to {old} in {member.owner}.{member.declared_signature} "
                        f"binds to {new} in the flattened class",
                        cls.name,
                        site.span,
                    ))


class _Carrier(tree.BodyWalker):
    """Rewrites a body and carries the site of each reference it meets.

    `move(site)` is the new name and the owner of the member a reference
    reaches, where the reference changes, and None elsewhere. A bare or
    `this.` reference that moves is renamed; a `super.` or class-qualified
    one collapses to a bare one. Either becomes a `this.` reference where a
    local would capture the bare name. A carried site that is bare or
    through `this` targets the flattened class itself.

    The walk descends only into the statements and expressions whose span
    holds the offset of a site that moves, which spans nesting (see `tree`)
    makes the paths to those sites, and returns every other subtree as it
    is. A skipped local declaration still enters its scope, so that `local`
    sees it. The carried sites start as every site made relative to the
    flattened class; the walk replaces the entries of the nodes it rebuilds.
    """

    def __init__(self, move, rewrites: list[RewriteDirective]):
        super().__init__()
        self.move = move
        self.rewrites = rewrites
        self.sites: dict[int, Site] = {}
        self.carried: dict[int, Site] = {}
        self.offsets: list[int] = []  # where the sites that move start, in order

    def rewrite(self, decl, sites: dict[int, Site]):
        """The member rewritten from its `sites`, and its carried sites.

        Where no reference moves, the member is itself, and so are `sites`
        where they are relative to the flattened class already.
        """
        self.sites = self.carried = sites
        self.offsets = offsets = []
        inherited = []
        for node, s in sites.items():
            if self.move(s) is not None:
                offsets.append(s.span.start)
            if s.basis in LOCAL_BASES and s.to_class is not None:
                inherited.append(node)
        if offsets or inherited:
            offsets.sort()
            self.carried = carried = dict(sites)
            for node in inherited:
                carried[node] = carried[node]._replace(to_class=None)
        return self.member(decl) if offsets else decl, self.carried

    def holds(self, span) -> bool:
        """Whether `span` holds the offset of a site that moves."""
        offsets = self.offsets
        i = bisect_left(offsets, span.start)
        return i < len(offsets) and offsets[i] < span.end

    def stmt(self, stmt: tree.Stmt) -> tree.Stmt:
        if self.holds(stmt.span):
            return tree.BodyWalker.stmt(self, stmt)
        if isinstance(stmt, tree.LocalDecl):
            self.scopes[-1][stmt.name] = stmt.decl_type.text()
        return stmt

    def expr(self, e: tree.Expr) -> tree.Expr:
        if not self.holds(e.span):
            return e
        site = self.sites.get(id(e))
        if site is None:
            return tree.map_children(e, self.expr)
        moved = self.move(site)
        if moved is None:
            out, to_member, basis = tree.map_children(e, self.expr), site.to_member, site.basis
        else:
            out, to_member, basis = self.reference(e, site, *moved)
        if out is not e:
            del self.carried[id(e)]
            self.carried[id(out)] = Site(
                site.kind, None if basis in LOCAL_BASES else site.to_class,
                to_member, basis, getattr(out, "name_span", out.span),
            )
        return out

    def reference(self, e: tree.Expr, site: Site, new_name: str, owner: str):
        """The reference `e` rewritten to reach the member named `new_name`,
        declared by `owner`; the member it targets now, and its basis."""
        if site.basis in LOCAL_BASES:
            if isinstance(e, tree.Name):
                self.record(e.span, e.ident, new_name, owner)
                out, basis = self.local(new_name, e.span, e.span)
                return out, new_name, basis
            self.record(e.name_span, e.name, new_name, owner)
            if isinstance(e, tree.Call):
                # The receiver is absent or `this`, which holds no reference; the
                # arguments are mapped here, not through `map_children`, to keep
                # nested renamed calls at three frames per level.
                call = tree.replace(e, name=new_name, args=tree.mapped(self.expr, e.args))
                return call, _renamed_signature(site.to_member, new_name), site.basis
            return tree.replace(e, name=new_name), new_name, site.basis
        # A `super.` or class-qualified reference, whose class qualifier is a name.
        qualifier = "super" if site.basis == BASIS_SUPER else e.receiver.ident
        self.record(e.span, f"{qualifier}.{e.name}", new_name, owner)
        if isinstance(e, tree.Call):
            # `map`, not a comprehension, keeps nested collapsed calls at
            # two frames per level.
            call = tree.Call(None, new_name, list(map(self.expr, e.args)), e.span, e.name_span)
            return call, _renamed_signature(site.to_member, new_name), BASIS_BARE
        out, basis = self.local(new_name, e.span, e.name_span)
        return out, new_name, basis

    def record(self, span, old: str, new: str, owner: str) -> None:
        self.rewrites.append(RewriteDirective((span.start, span.end), old, new, owner))

    def local(self, name: str, span, name_span) -> tuple[tree.Expr, str]:
        """A bare reference to attribute `name`, and its basis.

        Where a local would capture the bare name, it goes through `this`.
        """
        if self.local_type(name) is not None:
            return tree.FieldAccess(tree.This(span), name, span, name_span), BASIS_THIS
        return tree.Name(name, span), BASIS_BARE


def _own_move(cls: ClassInfo, fates: list[MemberFate],
              carried: dict[tuple[str, str], MemberFate]):
    """The `move` of the subclass's own references to inherited members.

    A `super.` reference collapses, and a bare or `this.` one follows an
    inherited member that is pulled under another name or signature. Such a
    reference reaches a visible member, and every visible member is pulled.
    Each site names the member where it was declared, so a fate is looked up
    by that: among those decided here, or those fsuper carries down
    (`carried`, from its part index).
    """
    declared = {(f.member.owner, f.member.declared_signature): f for f in fates}

    def move(site: Site) -> tuple[str, str] | None:
        if site.to_class is None or site.basis not in (BASIS_BARE, BASIS_THIS, BASIS_SUPER):
            return None
        key = (site.to_class, site.to_member)
        fate = declared.get(key) or carried.get(key)
        if site.basis == BASIS_SUPER:
            if fate is None or not fate.pulls:
                raise DanglingSuperRef(
                    f"'super.{site.to_member}' in {cls.name} targets a member that "
                    "was not pulled down",
                    site.span, cls.path, cls.text,
                )
        elif not fate.new_name and fate.member.signature == site.to_member:
            return None
        return fate.new_name or fate.member.name, fate.member.owner

    return move


def _pulled_move(super_name: str, renames: dict[tuple[str, str], str]):
    """The `move` of references inside bodies pulled from `super_name`.

    A bare or `this.` reference to a member `renames` gives a new name follows
    it, and a static reference qualified by the superclass collapses to the
    member that now lives here: whatever a pulled body references is pulled
    (`pulled_closure`).
    """

    def move(site: Site) -> tuple[str, str] | None:
        key = (METHOD if site.kind == CALL else ATTRIBUTE, site.to_member)
        if site.to_class is None:
            return (renames[key], super_name) if key in renames else None
        if site.to_class == super_name and site.basis == BASIS_CLASS:
            return renames.get(key) or site.to_member.partition("(")[0], super_name
        return None

    return move
