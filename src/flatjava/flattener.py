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
Pulled bodies are bound statically: a self-call to a method the subclass
overrides calls the renamed superclass copy.
An overridden pairing with a static mismatch or a final superclass member
is treated as non-overriding; if the un-renamed pull would then collide, the
member is renamed anyway and a diagnostic records it.

Constructors are never pulled. A no-arg superclass constructor whose body
only assigns literals to fields (none of which any field initializer reads)
is folded into the pulled fields' initializers; anything else is reported
as unsupported for flattening.
"""

from __future__ import annotations

import copy  # noqa: F401 - benchmark/tracing.py wraps flattener.copy.deepcopy
from collections import defaultdict
from dataclasses import dataclass, field, replace

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
    BASIS_THIS,
    CALL,
    INIT_FIELDS,
    READ,
    AccessEdge,
    AccessGraph,
    ClassResolution,
    resolve_class,
)

PULL_DOWN = "PullDown"
PULL_DOWN_RENAMED = "PullDownRenamed"
DROP = "Drop"
DROP_ANOMALY = "DropAnomaly"

RULE_CTOR = "CTOR"


@dataclass
class FlatMember:
    decl: tree.FieldDecl | tree.MethodDecl | tree.CtorDecl
    kind: str  # attribute | method | ctor
    name: str
    signature: str
    visibility: str
    is_static: bool
    is_final: bool
    provenance: str  # original declaring class
    pulled: bool
    renamed: bool = False  # renamed at any flattening step

    @property
    def visible(self) -> bool:
        return self.visibility != "private"


@dataclass
class MemberFate:
    member: FlatMember
    decision: str  # PullDown | PullDownRenamed | Drop | DropAnomaly
    rule: str  # R1..R8 or CTOR
    new_name: str | None = None

    @property
    def pulls(self) -> bool:
        return self.decision in (PULL_DOWN, PULL_DOWN_RENAMED)


@dataclass(frozen=True)
class RewriteDirective:
    span: tuple[int, int]
    old: str
    new: str
    target_owner: str


@dataclass
class FlattenedClass:
    name: str
    package: str | None
    decl: tree.ClassDecl
    members: list[FlatMember]
    fates: list[MemberFate] = field(default_factory=list)
    rewrites: list[RewriteDirective] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    resolution: ClassResolution | None = None

    def member_decls(self) -> list:
        return [m.decl for m in self.members]

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
        flat = FlattenedClass(
            cls.name, cls.package, cls.decl,
            [_flat_member(info, info.decl, cls.name, pulled=False)
             for info in cls.ordered_members()],
        )
    else:
        if cls.superclass not in flattened:
            raise FlattenError(
                f"superclass {cls.superclass!r} of {name!r} has not been flattened "
                "yet; flatten classes in model order",
                cls.decl.name_span,
                cls.path,
            )
        flat = _flatten_against_super(
            cls, graph.resolutions[name], flattened[cls.superclass]
        )
    flat_info = class_info_from_decl(flat.decl, flat.package, cls.path)
    flat.resolution = resolve_class(model.with_class(flat_info), flat_info)
    return flat


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


def decide_method_fates(
    sub: ClassInfo, fsuper: FlattenedClass, pulled: set[tuple[str, str]]
) -> list[MemberFate]:
    fates = []
    for member in fsuper.members:
        if member.kind != METHOD:
            continue
        overridden = _method_overridden(sub, member)
        if member.visible:
            if overridden:
                fates.append(MemberFate(member, PULL_DOWN_RENAMED, "R6"))
            else:
                fates.append(MemberFate(member, PULL_DOWN, "R5"))
        elif (METHOD, member.signature) in pulled:
            decision = PULL_DOWN_RENAMED if overridden else PULL_DOWN
            fates.append(MemberFate(member, decision, "R7"))
        else:
            fates.append(MemberFate(member, DROP_ANOMALY, "R8"))
    return fates


def decide_attribute_fates(
    sub: ClassInfo, fsuper: FlattenedClass, accessed: set[str]
) -> list[MemberFate]:
    fates = []
    for member in fsuper.members:
        if member.kind != ATTRIBUTE:
            continue
        overridden = _attr_overridden(sub, member)
        was_accessed = member.name in accessed
        if overridden:
            if was_accessed:
                fates.append(MemberFate(member, PULL_DOWN_RENAMED, "R4a"))
            elif member.visible:
                fates.append(MemberFate(member, PULL_DOWN_RENAMED, "R4b"))
            else:
                fates.append(MemberFate(member, DROP_ANOMALY, "R4c"))
        elif member.visible:
            fates.append(MemberFate(member, PULL_DOWN, "R1"))
        elif was_accessed:
            fates.append(MemberFate(member, PULL_DOWN, "R2"))
        else:
            fates.append(MemberFate(member, DROP_ANOMALY, "R3"))
    return fates


def _attr_overridden(sub: ClassInfo, member: FlatMember) -> bool:
    own = sub.attributes.get(member.name)
    if own is None:
        return False
    return override_legality(own, _as_member_info(member)) == "ok"


def _method_overridden(sub: ClassInfo, member: FlatMember) -> bool:
    own = sub.methods.get(member.signature)
    if own is None:
        return False
    return override_legality(own, _as_member_info(member)) == "ok"


def _as_member_info(member: FlatMember) -> MemberInfo:
    return MemberInfo(
        member.provenance, member.name, member.kind, member.visibility,
        member.is_static, member.is_final, member.signature, member.decl,
        member.decl.span,
    )


def pulled_closure(fsuper: FlattenedClass) -> tuple[set[tuple[str, str]], set[str]]:
    """The one fixed point behind the attribute and method fates.

    Visible members seed the pulled set. A worklist pulls in every member
    that a read, write or call edge reaches from a pulled source: a pulled
    method's body, or a pulled attribute's initializer. Returns the
    (kind, signature) of every pulled member, and the attributes that an
    edge from a pulled source reads or writes, which tells R4a from R4b.
    """
    by_source: dict[tuple[str, str], list[AccessEdge]] = defaultdict(list)
    for edge in fsuper.resolution.edges:
        if edge.to_class != fsuper.name:
            continue
        if edge.from_member == INIT_FIELDS:
            by_source[(ATTRIBUTE, edge.initializer_of)].append(edge)
        else:
            by_source[(METHOD, edge.from_member)].append(edge)
    members = {(m.kind, m.signature) for m in fsuper.members}
    pulled = {(m.kind, m.signature) for m in fsuper.members if m.kind != CTOR and m.visible}
    accessed: set[str] = set()
    work = list(pulled)
    while work:
        for edge in by_source[work.pop()]:
            if edge.kind == CALL:
                target = (METHOD, edge.to_member)
            else:
                target = (ATTRIBUTE, edge.to_member)
                accessed.add(edge.to_member)
            if target in members and target not in pulled:
                pulled.add(target)
                work.append(target)
    return pulled, accessed


# --- flattening proper ------------------------------------------------------


def _flat_member(info: MemberInfo, decl, provenance: str, pulled: bool) -> FlatMember:
    return FlatMember(
        decl, info.kind, info.name, info.signature, info.visibility,
        info.is_static, info.is_final, provenance, pulled,
    )


def _flatten_against_super(
    cls: ClassInfo, own: ClassResolution, fsuper: FlattenedClass
) -> FlattenedClass:
    diagnostics: list[Diagnostic] = []
    pulled, accessed = pulled_closure(fsuper)
    method_fates = decide_method_fates(cls, fsuper, pulled)
    attr_fates = decide_attribute_fates(cls, fsuper, accessed)
    ctor_fates = [
        MemberFate(m, DROP, RULE_CTOR) for m in fsuper.members if m.kind == CTOR
    ]
    inline_inits = _analyze_super_ctors(cls, fsuper, attr_fates, diagnostics)

    fate_by_decl = {id(f.member.decl): f for f in method_fates + attr_fates + ctor_fates}
    ordered_fates = [fate_by_decl[id(m.decl)] for m in fsuper.members]

    for fate in ordered_fates:
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

    _assign_names(cls, ordered_fates, diagnostics)
    flat = rewrite_references(cls, own, fsuper, ordered_fates, inline_inits)
    flat.diagnostics = diagnostics
    return flat


def rewrite_references(
    cls: ClassInfo,
    own: ClassResolution,
    fsuper: FlattenedClass,
    fates: list[MemberFate],
    inline_inits: dict[str, tree.Expr],
) -> FlattenedClass:
    """Take members into the subclass and fix every affected reference.

    Inside pulled bodies, references to renamed members switch to the new
    names and class-qualified static references to pulled members collapse
    to local ones. In the subclass's own bodies, `super.` references become
    bare references to the pulled (possibly renamed) member, or `this.`
    references when a local would capture the bare name. `own` is the
    subclass's resolution; a body that needs no rewrite is shared, not
    copied.
    """
    rewrites: list[RewriteDirective] = []

    # Rewrite the subclass's own bodies: super references become local ones.
    sub_rewriter = _SubBodyRewriter(cls, own.sites, fates, rewrites)
    own_members = [
        _flat_member(info, sub_rewriter.member(info.decl), cls.name, pulled=False)
        for info in cls.ordered_members()
    ]

    # Take the pulled members, apply renames and body rewrites.
    pulled_rewriter = _PulledBodyRewriter(fsuper, fates, rewrites)
    pulled_members = []
    for fate in fates:
        if not fate.pulls:
            continue
        member = fate.member
        decl = member.decl
        if isinstance(decl, tree.FieldDecl) and member.name in inline_inits:
            decl = replace(decl, init=inline_inits[member.name])
        decl = pulled_rewriter.member(decl)
        final_name = fate.new_name or member.name
        if fate.new_name:
            decl = replace(decl, name=final_name)
        signature = decl.signature() if isinstance(decl, tree.MethodDecl) else final_name
        pulled_members.append(
            FlatMember(
                decl, member.kind, final_name, signature, member.visibility,
                member.is_static, member.is_final, member.provenance, True,
                renamed=member.renamed or fate.new_name is not None,
            )
        )

    members = own_members + pulled_members
    new_decl = tree.ClassDecl(
        cls.decl.visibility, cls.name, None, [m.decl for m in members],
        cls.decl.span, cls.decl.name_span,
    )
    return FlattenedClass(cls.name, cls.package, new_decl, members, fates, rewrites)


def _assign_names(cls: ClassInfo, fates: list[MemberFate], diagnostics: list[Diagnostic]) -> None:
    """Pick final names in declaration order; rename on demand for collisions.

    The freshness ladder avoids every member name in the growing class, both
    attribute and method names, so renamed members read unambiguously.
    """
    taken = {m.name for m in cls.all_members() if m.kind != CTOR}
    attr_names = set(cls.attributes)
    method_sigs = set(cls.methods)
    for fate in fates:
        if not fate.pulls:
            continue
        member = fate.member
        if fate.decision == PULL_DOWN_RENAMED:
            fate.new_name = rename(member.name, member.provenance, taken)
        elif member.kind == ATTRIBUTE and member.name in attr_names:
            fate.new_name = rename(member.name, member.provenance, taken)
            diagnostics.append(
                Diagnostic(
                    FORCED_RENAME,
                    f"{member.provenance}.{member.name} is not a legal override of the "
                    f"subclass member but shares its name; pulled as {fate.new_name}",
                    cls.name,
                    member.decl.span,
                )
            )
        elif member.kind == METHOD and member.signature in method_sigs:
            fate.new_name = rename(member.name, member.provenance, taken)
            diagnostics.append(
                Diagnostic(
                    FORCED_RENAME,
                    f"{member.provenance}.{member.signature} is not a legal override of the "
                    f"subclass member but shares its signature; pulled as {fate.new_name}",
                    cls.name,
                    member.decl.span,
                )
            )
        final_name = fate.new_name or member.name
        taken.add(final_name)
        if member.kind == ATTRIBUTE:
            attr_names.add(final_name)
        elif member.kind == METHOD:
            method_sigs.add(
                tree.method_signature(
                    final_name, [p.decl_type.text() for p in member.decl.params]
                )
            )


def _analyze_super_ctors(
    cls: ClassInfo,
    fsuper: FlattenedClass,
    attr_fates: list[MemberFate],
    diagnostics: list[Diagnostic],
) -> dict[str, tree.Expr]:
    """Fold an inlinable no-arg superclass constructor into field initializers."""
    ctors = [m for m in fsuper.members if m.kind == CTOR]
    if not ctors:
        return {}
    no_arg = [c for c in ctors if not c.decl.params]
    if not no_arg:
        diagnostics.append(
            Diagnostic(
                UNSUPPORTED_CTOR,
                f"superclass {fsuper.name} declares only parameterized constructors; "
                "implicit constructor chaining cannot be flattened",
                cls.name,
                ctors[0].decl.span,
            )
        )
        return {}
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
            diagnostics.append(
                Diagnostic(
                    UNSUPPORTED_CTOR,
                    f"constructor of superclass {fsuper.name} does more than assign "
                    "literals to fields; its effects are not carried into the "
                    "flattened class",
                    cls.name,
                    stmt.span,
                )
            )
            return {}
        assignments.append((target_name, stmt.value))
    init_reads = {
        e.to_member
        for e in fsuper.resolution.edges
        if e.from_member == INIT_FIELDS and e.kind == READ and e.to_class == fsuper.name
    }
    assigned = {name for name, _ in assignments}
    clashing = sorted(assigned & init_reads)
    if clashing:
        diagnostics.append(
            Diagnostic(
                UNSUPPORTED_CTOR,
                f"constructor of superclass {fsuper.name} assigns field(s) "
                f"{', '.join(clashing)} that field initializers read; inlining would "
                "reorder initialization",
                cls.name,
                ctor.decl.span,
            )
        )
        return {}
    pulled = {f.member.name for f in attr_fates if f.pulls}
    return {name: expr for name, expr in assignments if name in pulled}


# --- body rewriting ---------------------------------------------------------


class _SubBodyRewriter(tree.BodyWalker):
    """Rewrites `super.` references in the subclass's own bodies."""

    def __init__(self, cls, sites, fates, rewrites):
        super().__init__()
        self.cls = cls
        self.sites = sites
        self.rewrites = rewrites
        self.fate_index = {
            (f.member.kind, f.member.provenance, f.member.signature): f for f in fates
        }

    def expr(self, e: tree.Expr) -> tree.Expr:
        if not (
            isinstance(e, (tree.FieldAccess, tree.Call)) and isinstance(e.receiver, tree.Super)
        ):
            return tree.map_children(e, self.expr)
        edge = self.sites[id(e)]
        kind = ATTRIBUTE if isinstance(e, tree.FieldAccess) else METHOD
        fate = self.fate_index.get((kind, edge.to_class, edge.to_member))
        if fate is None or not fate.pulls:
            raise DanglingSuperRef(
                f"'super.{edge.to_member}' in {self.cls.name} targets a member that "
                "was not pulled down",
                e.span,
                self.cls.path,
            )
        new_name = fate.new_name or fate.member.name
        self.rewrites.append(
            RewriteDirective(
                (e.span.start, e.span.end), f"super.{e.name}", new_name, fate.member.provenance
            )
        )
        if isinstance(e, tree.Call):
            return tree.Call(None, new_name, [self.expr(a) for a in e.args], e.span, e.name_span)
        if self.local_type(new_name) is not None:
            # A local would capture the bare name; go through `this`.
            return tree.FieldAccess(tree.This(e.span), new_name, e.span, e.name_span)
        return tree.Name(new_name, e.span)


class _PulledBodyRewriter(tree.BodyWalker):
    """Rewrites references inside bodies taken down from the superclass."""

    def __init__(self, fsuper: FlattenedClass, fates: list[MemberFate], rewrites):
        super().__init__()
        self.super_name = fsuper.name
        self.sites = fsuper.resolution.sites
        self.rewrites = rewrites
        self.attr_renames = {
            f.member.name: f.new_name for f in fates if f.member.kind == ATTRIBUTE and f.new_name
        }
        self.method_renames = {
            f.member.signature: f.new_name for f in fates if f.member.kind == METHOD and f.new_name
        }
        self.pulled = {(f.member.kind, f.member.signature) for f in fates if f.pulls}

    def _record(self, span, old: str, new: str) -> None:
        self.rewrites.append(
            RewriteDirective((span.start, span.end), old, new, self.super_name)
        )

    def expr(self, e: tree.Expr) -> tree.Expr:
        edge = self.sites.get(id(e))
        if edge is None or edge.to_class != self.super_name:
            return tree.map_children(e, self.expr)
        if isinstance(e, tree.Name):
            new_name = self.attr_renames.get(edge.to_member)
            if new_name:
                self._record(e.span, e.ident, new_name)
                return tree.Name(new_name, e.span)
            return e
        if isinstance(e, tree.FieldAccess):
            if edge.basis == BASIS_THIS:
                new_name = self.attr_renames.get(edge.to_member)
                if new_name:
                    self._record(e.name_span, e.name, new_name)
                    return replace(e, name=new_name)
                return e
            if edge.basis == BASIS_CLASS and (ATTRIBUTE, edge.to_member) in self.pulled:
                # Qualified static access to a member that now lives here.
                new_name = self.attr_renames.get(edge.to_member, edge.to_member)
                self._record(e.span, f"{_receiver_text(e.receiver)}.{e.name}", new_name)
                return tree.Name(new_name, e.span)
        if isinstance(e, tree.Call):
            if edge.basis in (BASIS_BARE, BASIS_THIS):
                new_name = self.method_renames.get(edge.to_member)
                if new_name:
                    self._record(e.name_span, e.name, new_name)
                    e = replace(e, name=new_name)
            elif edge.basis == BASIS_CLASS and (METHOD, edge.to_member) in self.pulled:
                new_name = self.method_renames.get(edge.to_member, e.name)
                self._record(e.span, f"{_receiver_text(e.receiver)}.{e.name}", new_name)
                args = [self.expr(a) for a in e.args]
                return tree.Call(None, new_name, args, e.span, e.name_span)
        return tree.map_children(e, self.expr)


def _receiver_text(receiver: tree.Expr) -> str:
    if isinstance(receiver, tree.Name):
        return receiver.ident
    return "<receiver>"
