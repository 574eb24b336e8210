"""Class model: inheritance graph, member records, override classification.

A class holds one `MemberInfo` per member, in declaration order, and
indexes of them by attribute name and method signature. The same record
type describes the members of a flattened view (see `flattener`), and each
record carries the resolution of its body (see `resolver`).

Visibility follows the single rule used throughout the tool: a member is
visible to subclasses unless it is private. Package boundaries do not
restrict visibility here; crossing one only produces a diagnostic.

Classification costs time in proportion to the declared members and the
diagnostics it makes: each class looks its members up in an index of its
ancestors' members by name, carried down from its superclass and split so
that a member meets only the ancestors whose pairing with it is illegal.
The full override pairings, whose number grows with the square of a
chain's depth, are built only when something reads them.
"""

from __future__ import annotations

import heapq
from functools import cached_property

from . import tree
from .errors import (
    Diagnostic,
    DuplicateClassName,
    DuplicateMember,
    ILLEGAL_OVERRIDE_FINAL,
    ILLEGAL_OVERRIDE_STATIC,
    InheritanceCycle,
    PACKAGE_VISIBILITY_DIVERGENCE,
    UnknownSuperclass,
)
from .spans import EMPTY_SPAN

ATTRIBUTE = "attribute"
METHOD = "method"
CTOR = "ctor"

OBJECT_ROOT = "Object"


class MemberInfo:
    __slots__ = ("owner", "name", "kind", "visibility", "is_static", "is_final", "signature",
                 "decl", "declared_signature", "pulled", "resolution")

    def __init__(self, owner: str, name: str, kind: str, visibility: str, is_static: bool,
                 is_final: bool, signature: str,
                 decl: tree.FieldDecl | tree.MethodDecl | tree.CtorDecl,
                 declared_signature: str | None = None, pulled: bool = False,
                 resolution=None):
        self.owner = owner  # the declaring class, also in a flattened view
        self.name = name
        self.kind = kind  # attribute | method | ctor
        self.visibility = visibility
        self.is_static = is_static
        self.is_final = is_final
        self.signature = signature  # attributes: the name; methods/ctors: name(paramtypes)
        self.decl = decl
        # The signature `owner` declares it under; a rename in a view changes `signature`.
        self.declared_signature = signature if declared_signature is None else declared_signature
        self.pulled = pulled  # taken down from a superclass into a flattened view
        # The `MemberResolution` of `decl`'s body or initializer: `resolve_class`
        # sets it for a class as written, and a view's record brings its own.
        self.resolution = resolution

    def with_body(self, decl, resolution) -> MemberInfo:
        """This record with another declaration or resolution."""
        return MemberInfo(self.owner, self.name, self.kind, self.visibility, self.is_static,
                          self.is_final, self.signature, decl, self.declared_signature,
                          self.pulled, resolution)

    @property
    def visible(self) -> bool:
        return self.visibility != "private"


class ClassInfo:
    def __init__(self, name: str, package: str | None, superclass: str | None,
                 decl: tree.ClassDecl, path: str | None = None, synthetic: bool = False,
                 text: str | None = None):
        self.name = name
        self.package = package
        self.superclass = superclass
        self.decl = decl
        self.path = path
        self.text = text  # of the file at `path`, for errors
        self.synthetic = synthetic
        # Every member, in declaration order: `members[i].decl` is `decl.members[i]`.
        self.members: list[MemberInfo] = []
        self.attributes: dict[str, MemberInfo] = {}  # by name
        self.methods: dict[str, MemberInfo] = {}  # by signature
        self.ctors: list[MemberInfo] = []


class OverrideRelation:
    def __init__(self, sub: MemberInfo, sup: MemberInfo, kind: str, legality: str):
        self.sub = sub
        self.sup = sup
        self.kind = kind  # attribute-override | method-override
        self.legality = legality  # ok | illegal-static-mismatch | illegal-final

    @property
    def legal(self) -> bool:
        return self.legality == "ok"


class ClassModel:
    def __init__(self, classes: dict[str, ClassInfo], order: list[str],
                 diagnostics: list[Diagnostic] | None = None):
        self.classes = classes
        self.order = order  # topological: superclasses first, lexicographic ties
        self.diagnostics = [] if diagnostics is None else diagnostics

    @cached_property
    def overrides(self) -> list[OverrideRelation]:
        """Each subclass member paired with the matching member of every
        direct or transitive superclass (see `classify_members`). Built on
        first read: no command reads them."""
        return _pair_members(self)

    def superclass_chain(self, name: str) -> list[ClassInfo]:
        """Superclasses of `name`, nearest first."""
        chain = []
        current = self.classes[name].superclass
        while current is not None:
            info = self.classes[current]
            chain.append(info)
            current = info.superclass
        return chain

    def with_class(self, info: ClassInfo) -> "ClassModel":
        """A shallow variant with one class replaced (or added)."""
        classes = dict(self.classes)
        classes[info.name] = info
        order = list(self.order)
        if info.name not in order:
            order.append(info.name)
        return ClassModel(classes, order, self.diagnostics)


def override_legality(sub: MemberInfo, sup: MemberInfo) -> str:
    """Legality of an override pairing per the static/final constraints."""
    if sup.is_final:
        return "illegal-final"
    if sub.is_static != sup.is_static:
        return "illegal-static-mismatch"
    return "ok"


def class_info_from_decl(
    decl: tree.ClassDecl,
    package: str | None = None,
    path: str | None = None,
    text: str | None = None,
) -> ClassInfo:
    info = ClassInfo(
        name=decl.name,
        package=package,
        superclass=decl.superclass,
        decl=decl,
        path=path,
        text=text,
    )
    for member in decl.members:
        if isinstance(member, tree.FieldDecl):
            if member.name in info.attributes:
                raise DuplicateMember(
                    f"duplicate attribute {member.name!r} in class {decl.name}",
                    member.name_span, path, text,
                )
            info.attributes[member.name] = record = MemberInfo(
                decl.name, member.name, ATTRIBUTE, member.visibility,
                member.is_static, member.is_final, member.name, member,
            )
        elif isinstance(member, tree.MethodDecl):
            sig = member.signature()
            if sig in info.methods:
                raise DuplicateMember(
                    f"duplicate method {sig!r} in class {decl.name}",
                    member.name_span, path, text,
                )
            info.methods[sig] = record = MemberInfo(
                decl.name, member.name, METHOD, member.visibility,
                member.is_static, member.is_final, sig, member,
            )
        else:
            sig = member.signature()
            if any(c.signature == sig for c in info.ctors):
                raise DuplicateMember(
                    f"duplicate constructor {sig.replace('<init>', member.name)!r} in class "
                    f"{decl.name}",
                    member.name_span, path, text,
                )
            record = MemberInfo(
                decl.name, member.name, CTOR, member.visibility, False, False, sig, member,
            )
            info.ctors.append(record)
        info.members.append(record)
    return info


def build_model(
    units: list[tree.CompilationUnit], include_object_root: bool = False
) -> ClassModel:
    """Register classes, resolve inheritance edges, compute the flattening order."""
    classes: dict[str, ClassInfo] = {}
    for unit in units:
        decl = unit.class_decl
        if decl.name in classes:
            raise DuplicateClassName(
                f"class {decl.name!r} is declared more than once",
                decl.name_span, unit.path, unit.text,
            )
        classes[decl.name] = class_info_from_decl(decl, unit.package, unit.path, unit.text)

    if include_object_root:
        if OBJECT_ROOT not in classes:
            root_decl = tree.ClassDecl("package", OBJECT_ROOT, None, [], EMPTY_SPAN, EMPTY_SPAN)
            classes[OBJECT_ROOT] = ClassInfo(
                OBJECT_ROOT, None, None, root_decl, synthetic=True
            )
        for info in classes.values():
            if info.superclass is None and info.name != OBJECT_ROOT:
                info.superclass = OBJECT_ROOT

    for info in classes.values():
        if info.superclass is not None:
            if info.superclass == info.name:
                raise InheritanceCycle(
                    f"class {info.name!r} extends itself",
                    info.decl.name_span, info.path, info.text,
                )
            if info.superclass not in classes:
                raise UnknownSuperclass(
                    f"class {info.name!r} extends unknown class {info.superclass!r}",
                    info.decl.name_span, info.path, info.text,
                )

    order = _topological_order(classes)
    return ClassModel(classes, order)


def _topological_order(classes: dict[str, ClassInfo]) -> list[str]:
    children: dict[str, list[str]] = {name: [] for name in classes}
    pending: dict[str, int] = {}
    for name, info in classes.items():
        pending[name] = 1 if info.superclass is not None else 0
        if info.superclass is not None:
            children[info.superclass].append(name)
    ready = [name for name, deps in pending.items() if deps == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        name = heapq.heappop(ready)
        order.append(name)
        for child in children[name]:
            pending[child] -= 1
            if pending[child] == 0:
                heapq.heappush(ready, child)
    if len(order) != len(classes):
        stuck = sorted(set(classes) - set(order))
        info = classes[stuck[0]]
        raise InheritanceCycle(
            f"inheritance cycle involving {', '.join(stuck)}",
            info.decl.name_span, info.path, info.text,
        )
    return order


def classify_members(model: ClassModel) -> ClassModel:
    """Annotate the model with override/overload relations and diagnostics.

    Overrides pair a subclass member with the matching member of every
    direct or transitive superclass: attributes match by name regardless of
    type, methods by full signature. Same-name methods with different
    signatures are overloads, never overrides. Illegal pairings (static
    mismatch, final superclass member) are diagnostics; flattening treats
    them as non-overriding. The override pairings themselves are built on
    first read of `model.overrides`.
    """
    model.diagnostics.extend(_illegal_overrides(model))
    for name in model.order:
        info = model.classes[name]
        for sup_info in model.superclass_chain(name):
            if sup_info.package == info.package:
                continue
            for member in sup_info.attributes.values():
                if member.visibility == "package":
                    model.diagnostics.append(_divergence(info, member))
            for member in sup_info.methods.values():
                if member.visibility == "package":
                    model.diagnostics.append(_divergence(info, member))
    return model


def _pair_members(model: ClassModel) -> list[OverrideRelation]:
    """Every override pairing: classes in model order, each with its
    superclasses nearest first, attributes before methods."""
    overrides: list[OverrideRelation] = []
    for name in model.order:
        info = model.classes[name]
        for sup_info in model.superclass_chain(name):
            for attr in info.attributes.values():
                sup_attr = sup_info.attributes.get(attr.name)
                if sup_attr is not None:
                    overrides.append(
                        OverrideRelation(
                            attr, sup_attr, "attribute-override",
                            override_legality(attr, sup_attr),
                        )
                    )
            for method in info.methods.values():
                sup_method = sup_info.methods.get(method.signature)
                if sup_method is not None:
                    overrides.append(
                        OverrideRelation(
                            method, sup_method, "method-override",
                            override_legality(method, sup_method),
                        )
                    )
    return overrides


def _illegal_overrides(model: ClassModel) -> list[Diagnostic]:
    """A diagnostic per illegal override pairing, in the order of
    `model.overrides`.

    Each class's members find their same-named ancestors in an index
    carried down from the superclass. An entry keeps apart the ancestors a
    pairing with which is illegal, so the cost is one lookup per declared
    member plus one step per illegal pairing.
    """
    parents = {info.superclass for info in model.classes.values()}
    depth: dict[str, int] = {}
    # Per class with subclasses: its own and its ancestors' attributes by
    # name and methods by signature. An entry holds the members under one
    # key, nearest first, as three linked lists `(member, rest)`: the final
    # ones, the other static ones and the rest. A pairing with a final member
    # is illegal, and so is one with a member of the other staticness.
    index: dict[str, tuple[dict, dict]] = {}
    diagnostics: list[Diagnostic] = []
    for name in model.order:
        info = model.classes[name]
        groups = (info.attributes.values(), info.methods.values())
        if info.superclass is None:
            depth[name] = 0
            above: tuple[dict, dict] = ({}, {})
        else:
            depth[name] = depth[info.superclass] + 1
            above = index[info.superclass]
            found = []
            for group, (members, entries) in enumerate(zip(groups, above)):
                for position, member in enumerate(members):
                    entry = entries.get(member.signature)
                    if entry is None:
                        continue
                    finals, statics, others = entry
                    for legality, node in (
                        ("illegal-final", finals),
                        ("illegal-static-mismatch", others if member.is_static else statics),
                    ):
                        while node is not None:
                            sup, node = node
                            found.append((depth[name] - depth[sup.owner], group, position,
                                          legality, member, sup))
            found.sort(key=lambda f: f[:3])
            diagnostics.extend(_illegal(legality, sub, sup) for *_, legality, sub, sup in found)
        if name in parents:
            index[name] = tuple(
                _indexed(dict(entries), members) for members, entries in zip(groups, above)
            )
    return diagnostics


def _indexed(entries: dict, members) -> dict:
    for member in members:
        finals, statics, others = entries.get(member.signature) or (None, None, None)
        if member.is_final:
            finals = (member, finals)
        elif member.is_static:
            statics = (member, statics)
        else:
            others = (member, others)
        entries[member.signature] = (finals, statics, others)
    return entries


def _illegal(legality: str, sub: MemberInfo, sup: MemberInfo) -> Diagnostic:
    if legality == "illegal-static-mismatch":
        return Diagnostic(
            ILLEGAL_OVERRIDE_STATIC,
            f"{sub.owner}.{sub.signature} and {sup.owner}.{sup.signature} differ in "
            "staticness; treated as non-overriding",
            sub.owner,
            sub.decl.span,
        )
    return Diagnostic(
        ILLEGAL_OVERRIDE_FINAL,
        f"{sup.owner}.{sup.signature} is final and cannot be overridden by "
        f"{sub.owner}; treated as non-overriding",
        sub.owner,
        sub.decl.span,
    )


def _divergence(info: ClassInfo, member: MemberInfo) -> Diagnostic:
    return Diagnostic(
        PACKAGE_VISIBILITY_DIVERGENCE,
        f"{member.owner}.{member.signature} has package visibility but "
        f"{info.name} is in a different package; treating it as visible anyway",
        info.name,
        member.decl.span,
    )
