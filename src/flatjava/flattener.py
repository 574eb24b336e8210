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
overrides calls the renamed superclass copy.
An overridden pairing with a static mismatch or a final superclass member
is treated as non-overriding; if the un-renamed pull would then collide, the
member is renamed anyway and a diagnostic records it.

Constructors are never pulled. A no-arg superclass constructor whose body
only assigns literals to fields (none of which any field initializer reads)
is folded into the pulled fields' initializers; anything else is reported
as unsupported for flattening.

Each class is resolved once, as written. A flattened class's resolution is
derived, not resolved again: from the superclass's flattened resolution, the
subclass's own resolution and the rename maps. A body's sites are relative
to the class that holds it, so only a pulled body that references a member
renamed or collapsed at this level is walked; every other pulled member
keeps its node and the superclass's resolution object of it. Likewise the
subclass's own body is walked only when one of its references changes. The
few bodies whose resolution can change in the flattened class are resolved
again there (`_resolve_changed`).
"""

from __future__ import annotations

import copy  # noqa: F401 - benchmark/tracing.py wraps flattener.copy.deepcopy
from collections import Counter
from itertools import takewhile

from . import tree
from .errors import (
    ANOMALY_MEMBER,
    DanglingSuperRef,
    Diagnostic,
    FlattenError,
    FORCED_RENAME,
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
    AccessGraph,
    ClassResolution,
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


class FlatMember:
    __slots__ = ("decl", "kind", "name", "signature", "declared_signature", "visibility",
                 "is_static", "is_final", "provenance", "pulled")

    def __init__(self, decl: tree.FieldDecl | tree.MethodDecl | tree.CtorDecl, kind: str,
                 name: str, signature: str, declared_signature: str, visibility: str,
                 is_static: bool, is_final: bool, provenance: str, pulled: bool):
        self.decl = decl
        self.kind = kind  # attribute | method | ctor
        self.name = name
        self.signature = signature
        # The signature `provenance` declares it under.
        self.declared_signature = declared_signature
        self.visibility = visibility
        self.is_static = is_static
        self.is_final = is_final
        self.provenance = provenance  # original declaring class
        self.pulled = pulled

    @property
    def visible(self) -> bool:
        return self.visibility != "private"


class MemberFate:
    __slots__ = ("member", "decision", "rule", "new_name", "plan")

    def __init__(self, member: FlatMember, decision: str, rule: str, new_name: str | None = None):
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
    def __init__(self, name: str, package: str | None, decl: tree.ClassDecl,
                 members: list[FlatMember], resolution: ClassResolution,
                 fates: list[MemberFate] | None = None,
                 rewrites: list[RewriteDirective] | None = None):
        self.name = name
        self.package = package
        self.decl = decl
        self.members = members
        self.resolution = resolution
        self.fates = [] if fates is None else fates
        self.rewrites = [] if rewrites is None else rewrites
        self.diagnostics: list[Diagnostic] = []
        # The attributes that the pulled members' bodies read or write, under
        # their names here: with the pulled members themselves, their part of
        # the superclass view's fixed point. None for a root, or where a pulled
        # body's resolution changed here (`rewrite_references`).
        self.carried: set[str] | None = None
        # Where `carried` is set, each pulled member's fate one level down, where
        # nothing touches it, by (kind, signature) in member order.
        self.repulled: dict[tuple[str, str], MemberFate] = {}

    def attributes(self) -> list[FlatMember]:
        return [m for m in self.members if m.kind == ATTRIBUTE]

    def methods(self) -> list[FlatMember]:
        return [m for m in self.members if m.kind == METHOD]


def flatten_model(model: ClassModel, graph: AccessGraph) -> dict[str, FlattenedClass]:
    """Flatten every class bottom-up, in `model.order`."""
    flattened: dict[str, FlattenedClass] = {}
    for name in model.order:
        flattened[name] = flatten_class(name, model, graph, flattened)
    return flattened


def flatten_class(
    name: str, model: ClassModel, graph: AccessGraph, flattened: dict[str, FlattenedClass]
) -> FlattenedClass:
    cls = model.classes[name]
    if cls.superclass is None:
        # A root flattens to itself, and so does its resolution.
        return FlattenedClass(
            cls.name, cls.package, cls.decl,
            [_flat_member(info, info.decl, cls.name, pulled=False)
             for info in cls.ordered_members()],
            graph.resolutions[name],
        )
    if cls.superclass not in flattened:
        raise FlattenError(
            f"superclass {cls.superclass!r} of {name!r} has not been flattened "
            "yet; flatten classes in model order",
            cls.decl.name_span,
            cls.path,
        )
    return _flatten_against_super(
        model, cls, graph.resolutions[name], flattened[cls.superclass]
    )


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


def _method_fate(sub: ClassInfo, member: FlatMember, pulled: set[tuple[str, str]]) -> MemberFate:
    overridden = _overridden(sub.methods.get(member.signature), member)
    if member.visible:
        if overridden:
            return MemberFate(member, PULL_DOWN_RENAMED, "R6")
        return MemberFate(member, PULL_DOWN, "R5")
    if (METHOD, member.signature) in pulled:
        return MemberFate(member, PULL_DOWN_RENAMED if overridden else PULL_DOWN, "R7")
    return MemberFate(member, DROP_ANOMALY, "R8")


def _attribute_fate(sub: ClassInfo, member: FlatMember, accessed: set[str]) -> MemberFate:
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


def _overridden(own: MemberInfo | None, member: FlatMember) -> bool:
    """Whether the subclass's member `own`, if any, legally overrides `member`."""
    return own is not None and override_legality(own, member) == "ok"


def pulled_closure(fsuper: FlattenedClass) -> tuple[set[tuple[str, str]], set[str]]:
    """The one fixed point behind the attribute and method fates.

    Visible members seed the pulled set. A worklist pulls in every member
    that a read, write or call edge reaches from a pulled source: a pulled
    method's body, or a pulled attribute's initializer. Returns the
    (kind, signature) of every pulled member, and the attributes that an
    edge from a pulled source reads or writes, which tells R4a from R4b.

    Each member fsuper pulled was reached from a visible member there, and
    still is: renames keep the edges, and pulled bodies, bound statically,
    reach no member fsuper declares itself. So where fsuper carries the
    attributes its pulled members access, the worklist starts from those
    and the pulled members, and walks only fsuper's own members, which come
    first in `fsuper.members`.
    """
    pulled, accessed = set(fsuper.repulled), set(fsuper.carried or ())
    members = {(m.kind, m.signature): m for m in fsuper.members[:len(fsuper.members) - len(pulled)]}
    work = [key for key, m in members.items() if m.kind != CTOR and m.visible]
    pulled.update(work)
    resolutions = fsuper.resolution.members
    while work:
        source = members[work.pop()]
        for site in resolutions[id(source.decl)].sites.values():
            if site.to_class is not None and site.to_class != fsuper.name:
                continue
            if site.kind == CALL:
                target = (METHOD, site.to_member)
            else:
                target = (ATTRIBUTE, site.to_member)
                accessed.add(site.to_member)
            if target in members and target not in pulled:
                pulled.add(target)
                work.append(target)
    return pulled, accessed


# --- flattening proper ------------------------------------------------------


def _flat_member(info: MemberInfo, decl, provenance: str, pulled: bool) -> FlatMember:
    return FlatMember(
        decl, info.kind, info.name, info.signature, info.signature, info.visibility,
        info.is_static, info.is_final, provenance, pulled,
    )


def _flatten_against_super(
    model: ClassModel, cls: ClassInfo, own: ClassResolution, fsuper: FlattenedClass
) -> FlattenedClass:
    diagnostics: list[Diagnostic] = []
    pulled, accessed = pulled_closure(fsuper)

    def decide(member: FlatMember) -> MemberFate:
        if member.kind == METHOD:
            return _method_fate(cls, member, pulled)
        if member.kind == ATTRIBUTE:
            return _attribute_fate(cls, member, accessed)
        return MemberFate(member, DROP, RULE_CTOR)

    # Each member fsuper pulled keeps the fate fsuper carries down for it.
    first = len(fsuper.members) - len(fsuper.repulled)
    fates = [*map(decide, fsuper.members[:first]), *fsuper.repulled.values()]
    inline_inits = _analyze_super_ctors(cls, fsuper, fates, diagnostics)

    for fate in fates[:first]:
        if fate.decision == DROP_ANOMALY:
            diagnostics.append(
                Diagnostic(
                    ANOMALY_MEMBER,
                    f"{fate.member.provenance}.{fate.member.signature} is invisible and "
                    f"inaccessible; not pulled down (rule {fate.rule})",
                    cls.name,
                    fate.member.decl.span,
                )
            )

    kept = _assign_names(cls, fates, fsuper.repulled, decide, diagnostics)
    flat = rewrite_references(model, cls, own, fsuper, fates, kept, inline_inits, accessed)
    flat.diagnostics = diagnostics
    return flat


def rewrite_references(
    model: ClassModel,
    cls: ClassInfo,
    own: ClassResolution,
    fsuper: FlattenedClass,
    fates: list[MemberFate],
    kept: dict[tuple[str, str], MemberFate],
    inline_inits: dict[str, tree.Expr],
    accessed: set[str] | None,
) -> FlattenedClass:
    """Take members into the subclass, fix every affected reference, and
    carry each body's resolution over to the flattened class.

    Inside pulled bodies, references to renamed members switch to the new
    names and class-qualified static references to pulled members collapse
    to local ones. In the subclass's own bodies, `super.` references become
    bare references to the pulled member, and bare or `this.` references to
    an inherited member follow it to the name it is pulled under. Either
    becomes a `this.` reference where a local would capture the bare name.

    `own` is the subclass's resolution. A pulled body is walked only when
    it references a member renamed or collapsed at this level; every other
    pulled member keeps its node and shares fsuper's resolution of it, whose
    sites are relative to the class that holds the body. The few bodies
    whose resolution can change in the flattened class are resolved again
    there (see `_resolve_changed`).

    `accessed` is the attribute set of fsuper's `pulled_closure`. The result
    carries it, renamed, unless a pulled body may reach other members here
    than the renamed ones it reached in fsuper: its initializer was replaced
    by a folded constructor assignment, or it is resolved again. Then it also
    carries the pulled members' fates; the last of them, `kept` by (kind,
    signature), fsuper carried down, and their members keep fsuper's nodes.
    """
    rewrites: list[RewriteDirective] = []
    name = cls.name
    members: list[FlatMember] = []
    resolutions: list[MemberResolution] = []
    unsure: list[int] = []  # members whose carried resolution may not hold

    if inline_inits:
        kept = {}  # a folded initializer changes what fsuper carried down
    walked = fates[:len(fates) - len(kept)]
    slots = dict(kept)  # fsuper's fates by their members' (kind, signature)
    slots.update(((f.member.kind, f.member.signature), f) for f in walked)

    # Rewrite the subclass's own bodies to reach inherited members by their final names.
    sub_rewriter = _SubBodyRewriter(cls, slots, rewrites)
    for info in cls.ordered_members():
        source = own.members[id(info.decl)]
        decl, sites, sure = sub_rewriter.rewrite(info.decl, source.sites)
        if not sure or _retyped(model, source, name):
            unsure.append(len(members))
        members.append(_flat_member(info, decl, name, pulled=False))
        resolutions.append(source if sites is source.sites else source.with_sites(sites))

    # Take the pulled members, apply renames and body rewrites.
    pulled_rewriter = _PulledBodyRewriter(fsuper.name, walked, rewrites)
    renamed = pulled_rewriter.renamed
    super_resolutions = fsuper.resolution.members
    own_count = len(members)
    repulled: dict[tuple[str, str], MemberFate] = {}
    for fate in walked:
        if not fate.pulls:
            continue
        member = fate.member
        decl = member.decl
        resolution = super_resolutions[id(decl)]
        if member.name in inline_inits and member.kind == ATTRIBUTE:
            decl = tree.replace(decl, init=inline_inits[member.name])
            resolution = MemberResolution()
            accessed = None  # the initializer no longer reaches what it did
        elif _touched(resolution, renamed, fsuper.name):
            decl, sites, _ = pulled_rewriter.rewrite(decl, resolution.sites)
            # The walk collapsed every static reference qualified by fsuper.
            resolution = resolution.with_sites(sites, resolution.class_refs - {fsuper.name})
        if fate.new_name:
            decl = tree.replace(decl, name=fate.new_name)
        if decl is not member.decl or not member.pulled:
            member = FlatMember(
                decl, member.kind, fate.new_name or member.name,
                _final_signature(member, fate.new_name), member.declared_signature,
                member.visibility, member.is_static, member.is_final, member.provenance, True,
            )
        # `this` changes type when a body moves down a level.
        if resolution.uses_this or _retyped(model, resolution, fsuper.name):
            unsure.append(len(members))
        members.append(member)
        resolutions.append(resolution)
        repulled[member.kind, member.signature] = _repulled(fate, member)
    members += fsuper.members[len(walked):]
    resolutions += list(super_resolutions.values())[len(walked):]
    repulled.update(kept)

    new_decl = tree.ClassDecl(
        cls.decl.visibility, name, None, [m.decl for m in members],
        cls.decl.span, cls.decl.name_span,
    )
    resolution = _resolve_changed(model, cls, new_decl, members, resolutions, unsure)
    flat = FlattenedClass(name, cls.package, new_decl, members, resolution, fates, rewrites)
    # A pulled body resolved again may reach other members here.
    if accessed is not None and max(unsure, default=-1) < own_count:
        attrs = pulled_rewriter.attr_renames
        flat.carried = (accessed - attrs.keys()) | {attrs[a] for a in accessed & attrs.keys()}
        flat.repulled = repulled
    return flat


def _repulled(fate: MemberFate, member: FlatMember) -> MemberFate:
    """The fate of `member`, pulled by `fate`, one level down where nothing touches it."""
    if member is fate.member:
        return fate  # pulled unchanged: a PullDown with no new name
    rules = ("R1", "R2") if member.kind == ATTRIBUTE else ("R5", "R7")
    return MemberFate(member, PULL_DOWN, rules[not member.visible])


def _assign_names(cls: ClassInfo, fates: list[MemberFate], carried: dict, decide,
                  diagnostics: list[Diagnostic]) -> dict:
    """Pick final names in declaration order; rename on demand for collisions.

    The freshness ladder avoids every member name in the growing class, both
    attribute and method names, so renamed members read unambiguously.
    Returns the last fates, `carried` down by fsuper, which keep their names
    unless the subclass declares one's (kind, signature) or a rename takes
    it: then `decide` decides them all afresh, and none is kept.
    """
    taken = {m.name for m in cls.all_members() if m.kind != CTOR}
    # (kind, signature) of every member in the growing class; an attribute's
    # signature is its name.
    keys = {(m.kind, m.signature) for m in cls.all_members()}
    first = len(fates) - len(carried)
    for i, fate in enumerate(fates):
        if i == first and keys.isdisjoint(carried):
            return carried
        if i >= first:
            fate = fates[i] = decide(fate.member)
        if not fate.pulls:
            continue
        member = fate.member
        key = (member.kind, member.signature)
        if fate.decision == PULL_DOWN_RENAMED:
            fate.new_name = rename(member.name, member.provenance, taken)
        elif key in keys:
            fate.new_name = rename(member.name, member.provenance, taken)
            shared = "name" if member.kind == ATTRIBUTE else "signature"
            diagnostics.append(
                Diagnostic(
                    FORCED_RENAME,
                    f"{member.provenance}.{member.signature} is not a legal override of the "
                    f"subclass member but shares its {shared}; pulled as {fate.new_name}",
                    cls.name,
                    member.decl.span,
                )
            )
        taken.add(fate.new_name or member.name)
        if fate.new_name:
            key = (member.kind, _final_signature(member, fate.new_name))
        keys.add(key)
    return {}


def _analyze_super_ctors(
    cls: ClassInfo,
    fsuper: FlattenedClass,
    fates: list[MemberFate],
    diagnostics: list[Diagnostic],
) -> dict[str, tree.Expr]:
    """Fold an inlinable no-arg superclass constructor into field initializers."""

    def unsupported(message: str, span) -> dict[str, tree.Expr]:
        diagnostics.append(Diagnostic(UNSUPPORTED_CTOR, message, cls.name, span))
        return {}

    ctors = [m for m in takewhile(lambda m: not m.pulled, fsuper.members) if m.kind == CTOR]
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
    attr_names = {m.name for m in fsuper.attributes()}
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
    resolutions = fsuper.resolution.members
    init_reads = {
        s.to_member
        for d in fsuper.resolution.decls if isinstance(d, tree.FieldDecl)
        for s in resolutions[id(d)].sites.values()
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


def _final_signature(member: FlatMember, new_name: str | None) -> str:
    if new_name is None:
        return member.signature
    if member.kind == ATTRIBUTE:
        return new_name
    return _renamed_signature(member.signature, new_name)


def _touched(resolution: MemberResolution, renamed: set[str], super_name: str) -> bool:
    """Whether a pulled body references a member that `renamed` holds or a
    static member of `super_name`: then the body changes, and must be walked."""
    if not resolution.sites:
        return False
    if resolution.reaches(renamed):
        return True
    return bool(resolution.class_refs) and any(
        s.basis == BASIS_CLASS and s.to_class == super_name for s in resolution.sites.values()
    )


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


def _resolve_changed(
    model: ClassModel,
    cls: ClassInfo,
    decl: tree.ClassDecl,
    members: list[FlatMember],
    resolutions: list[MemberResolution],
    unsure: list[int],
) -> ClassResolution:
    """The flattened class's resolution, from the carried member resolutions.

    A carried resolution holds unless the member is `unsure`, or its body
    calls a method by a name the flattened class overloads, or names a
    class as a static qualifier that is now also an attribute name. Those
    bodies are resolved again in the flattened class, in member order, so
    the first error is the one a resolution of the whole class would raise;
    it names the file the body came from. Each index resolved again is
    added to `unsure`.
    """
    names = Counter(m.name for m in members if m.kind == METHOD)
    overloaded = {name for name, count in names.items() if count > 1}
    attr_names = None
    for i, resolution in enumerate(resolutions):
        if overloaded and any(
            s.kind == CALL and s.basis in LOCAL_BASES
            and s.to_member[:s.to_member.index("(")] in overloaded
            for s in resolution.sites.values()
        ):
            unsure.append(i)
        elif resolution.class_refs:
            if attr_names is None:
                attr_names = {m.name for m in members if m.kind == ATTRIBUTE}
            if not attr_names.isdisjoint(resolution.class_refs):
                unsure.append(i)
    if unsure:
        flat_info = class_info_from_decl(decl, cls.package, cls.path)
        flat_model = model.with_class(flat_info)
        infos = {id(info.decl): info for info in flat_info.all_members()}
        for i in sorted(set(unsure)):
            member = members[i]
            resolutions[i] = resolve_member(
                flat_model, flat_info, infos[id(member.decl)],
                model.classes[member.provenance].path,
            )
    return ClassResolution(cls.name, decl.members, resolutions)


class _Carrier(tree.BodyWalker):
    """Rewrites a body and carries the site of each reference it meets.

    Subclasses supply `reference`, which returns a reference node's rewrite
    (or the node itself), the member it targets and the basis it has now.
    A carried site that is bare or through `this` targets the flattened
    class itself.
    """

    def __init__(self, rewrites: list[RewriteDirective]):
        super().__init__()
        self.rewrites = rewrites
        self.sites: dict[int, Site] = {}
        self.carried: dict[int, Site] = {}
        self.sure = True

    def rewrite(self, decl, sites: dict[int, Site]):
        """The member rewritten from its `sites`, its carried sites, and
        whether they are exact."""
        self.sites = sites
        self.carried = {}
        self.sure = True
        return self.member(decl), self.carried, self.sure

    def reference(self, e: tree.Expr, site: Site) -> tuple[tree.Expr, str, str]:
        raise NotImplementedError  # pragma: no cover - supplied by subclasses

    def expr(self, e: tree.Expr) -> tree.Expr:
        site = self.sites.get(id(e))
        if site is None:
            return tree.map_children(e, self.expr)
        out, to_member, basis = self.reference(e, site)
        self.carried[id(out)] = Site(
            site.kind, None if basis in LOCAL_BASES else site.to_class,
            to_member, basis, getattr(out, "name_span", out.span),
        )
        return out

    def record(self, span, old: str, new: str, owner: str) -> None:
        self.rewrites.append(RewriteDirective((span.start, span.end), old, new, owner))

    def local(self, name: str, span, name_span) -> tuple[tree.Expr, str]:
        """A bare reference to attribute `name`, and its basis.

        Where a local would capture the bare name, it goes through `this`.
        """
        if self.local_type(name) is not None:
            return tree.FieldAccess(tree.This(span), name, span, name_span), BASIS_THIS
        return tree.Name(name, span), BASIS_BARE

    def collapse(self, e: tree.Expr, site: Site, old: str, new_name: str, owner: str):
        """A qualified reference, written `old`, as a bare one to the member
        named `new_name`: a call, or an attribute reference from `local`."""
        self.record(e.span, old, new_name, owner)
        if isinstance(e, tree.Call):
            # `map`, not a comprehension, keeps nested collapsed calls at
            # three frames per level.
            call = tree.Call(None, new_name, list(map(self.expr, e.args)), e.span, e.name_span)
            return call, _renamed_signature(site.to_member, new_name), BASIS_BARE
        out, basis = self.local(new_name, e.span, e.name_span)
        return out, new_name, basis

    def rename_ref(self, e: tree.Expr, site: Site, new_name: str, owner: str):
        """A bare or `this.` reference, now to the member named `new_name`."""
        if isinstance(e, tree.Name):
            self.record(e.span, e.ident, new_name, owner)
            out, basis = self.local(new_name, e.span, e.span)
            return out, new_name, basis
        self.record(e.name_span, e.name, new_name, owner)
        if isinstance(e, tree.Call):
            # The receiver is absent or `this`, which holds no reference; the
            # arguments are mapped here, not through `map_children`, to keep
            # nested renamed calls at four frames per level.
            call = tree.replace(e, name=new_name, args=tree.mapped(self.expr, e.args))
            return call, _renamed_signature(site.to_member, new_name), site.basis
        return tree.replace(e, name=new_name), new_name, site.basis


class _SubBodyRewriter(_Carrier):
    """Rewrites the subclass's own references to inherited members.

    `super.` references become bare ones, and bare or `this.` references
    follow an inherited member that is pulled under another name. A
    reference to an inherited member that is not pulled makes the body
    unsure.
    """

    def __init__(self, cls: ClassInfo, slots: dict[tuple[str, str], MemberFate], rewrites):
        super().__init__(rewrites)
        self.cls = cls
        self.slots = slots  # fsuper's fates by their members' (kind, signature)

    def fate(self, site: Site) -> MemberFate | None:
        """The fate of fsuper's member declared where `site` says it was."""
        origin = (site.to_class, site.to_member)
        fate = self.slots.get((METHOD if site.kind == CALL else ATTRIBUTE, site.to_member))
        if fate is None or (fate.member.provenance, fate.member.declared_signature) != origin:
            # Renamed above fsuper: look for where it was declared.
            fate = next((f for f in self.slots.values()
                         if (f.member.provenance, f.member.declared_signature) == origin), None)
        return fate

    def rewrite(self, decl, sites: dict[int, Site]):
        """As `_Carrier.rewrite`, walking the body only when a reference in it
        changes: a `super.` one, or a bare or `this.` one to an inherited
        member pulled under another name or signature. Otherwise the member
        is itself, its sites made relative to the flattened class."""
        sure, inherited = True, False
        for site in sites.values():
            if site.basis == BASIS_SUPER:
                return super().rewrite(decl, sites)
            if site.basis in LOCAL_BASES and site.to_class is not None:
                fate = self.fate(site)
                if fate is None or not fate.pulls:
                    sure = False
                elif fate.new_name or fate.member.signature != site.to_member:
                    return super().rewrite(decl, sites)
                inherited = True
        if inherited:
            sites = {node: Site(s.kind, None, s.to_member, s.basis, s.span)
                     if s.basis in LOCAL_BASES else s for node, s in sites.items()}
        return decl, sites, sure

    def reference(self, e, site):
        if site.basis != BASIS_SUPER:
            if site.basis in LOCAL_BASES and site.to_class is not None:
                fate = self.fate(site)
                if fate is None or not fate.pulls:
                    self.sure = False
                elif fate.new_name or fate.member.signature != site.to_member:
                    pulled_as = fate.new_name or fate.member.name
                    return self.rename_ref(e, site, pulled_as, fate.member.provenance)
            return tree.map_children(e, self.expr), site.to_member, site.basis
        fate = self.fate(site)
        if fate is None or not fate.pulls:
            raise DanglingSuperRef(
                f"'super.{site.to_member}' in {self.cls.name} targets a member that "
                "was not pulled down",
                e.span,
                self.cls.path,
            )
        new_name = fate.new_name or fate.member.name
        return self.collapse(e, site, f"super.{e.name}", new_name, fate.member.provenance)


class _PulledBodyRewriter(_Carrier):
    """Rewrites references inside bodies taken down from the superclass."""

    def __init__(self, super_name: str, fates: list[MemberFate], rewrites):
        super().__init__(rewrites)
        self.super_name = super_name
        self.attr_renames: dict[str, str] = {}
        self.method_renames: dict[str, str] = {}
        for f in fates:
            if f.new_name is not None:
                if f.member.kind == ATTRIBUTE:
                    self.attr_renames[f.member.name] = f.new_name
                else:
                    self.method_renames[f.member.signature] = f.new_name
        # What a reference in a pulled body must target for the body to change.
        self.renamed = self.attr_renames.keys() | self.method_renames.keys()

    def reference(self, e, site):
        renames = self.method_renames if site.kind == CALL else self.attr_renames
        if site.to_class is None:
            new_name = renames.get(site.to_member)
            if new_name:
                return self.rename_ref(e, site, new_name, self.super_name)
        elif site.to_class == self.super_name and site.basis == BASIS_CLASS:
            # Qualified static access to a member that now lives here:
            # whatever a pulled body references is pulled (pulled_closure).
            # The qualifier of a class basis is a class name.
            old = f"{e.receiver.ident}.{e.name}"
            return self.collapse(e, site, old, renames.get(site.to_member, e.name), self.super_name)
        return tree.map_children(e, self.expr), site.to_member, site.basis
