"""Class model: inheritance graph, member tables, override classification.

Visibility follows the single rule used throughout the tool: a member is
visible to subclasses unless it is private. Package boundaries do not
restrict visibility here; crossing one only produces a diagnostic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

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
from .spans import EMPTY_SPAN, Span

ATTRIBUTE = "attribute"
METHOD = "method"
CTOR = "ctor"

OBJECT_ROOT = "Object"


@dataclass
class MemberInfo:
    owner: str
    name: str
    kind: str  # attribute | method | ctor
    visibility: str
    is_static: bool
    is_final: bool
    signature: str  # attributes: the name; methods/ctors: name(paramtypes)
    decl: tree.FieldDecl | tree.MethodDecl | tree.CtorDecl
    span: Span

    @property
    def visible(self) -> bool:
        return self.visibility != "private"


@dataclass
class ClassInfo:
    name: str
    package: str | None
    superclass: str | None
    decl: tree.ClassDecl
    path: str | None = None
    synthetic: bool = False
    attributes: dict[str, MemberInfo] = field(default_factory=dict)
    methods: dict[str, MemberInfo] = field(default_factory=dict)
    ctors: list[MemberInfo] = field(default_factory=list)

    def ordered_members(self) -> list[MemberInfo]:
        by_id = {id(m.decl): m for m in self.all_members()}
        return [by_id[id(d)] for d in self.decl.members]

    def all_members(self) -> list[MemberInfo]:
        return list(self.attributes.values()) + list(self.methods.values()) + self.ctors


@dataclass(frozen=True)
class OverrideRelation:
    sub: MemberInfo
    sup: MemberInfo
    kind: str  # attribute-override | method-override
    legality: str  # ok | illegal-static-mismatch | illegal-final

    @property
    def legal(self) -> bool:
        return self.legality == "ok"


@dataclass
class ClassModel:
    classes: dict[str, ClassInfo]
    order: list[str]  # topological: superclasses first, lexicographic ties
    overrides: list[OverrideRelation] = field(default_factory=list)
    overloads: list[tuple[MemberInfo, MemberInfo]] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

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
        return ClassModel(classes, order, self.overrides, self.overloads, self.diagnostics)


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
) -> ClassInfo:
    info = ClassInfo(
        name=decl.name,
        package=package,
        superclass=decl.superclass,
        decl=decl,
        path=path,
    )
    for member in decl.members:
        if isinstance(member, tree.FieldDecl):
            if member.name in info.attributes:
                raise DuplicateMember(
                    f"duplicate attribute {member.name!r} in class {decl.name}",
                    member.name_span,
                    path,
                )
            info.attributes[member.name] = MemberInfo(
                decl.name, member.name, ATTRIBUTE, member.visibility,
                member.is_static, member.is_final, member.name, member, member.span,
            )
        elif isinstance(member, tree.MethodDecl):
            sig = member.signature()
            if sig in info.methods:
                raise DuplicateMember(
                    f"duplicate method {sig!r} in class {decl.name}",
                    member.name_span,
                    path,
                )
            info.methods[sig] = MemberInfo(
                decl.name, member.name, METHOD, member.visibility,
                member.is_static, member.is_final, sig, member, member.span,
            )
        else:
            info.ctors.append(
                MemberInfo(
                    decl.name, member.name, CTOR, member.visibility,
                    False, False, member.signature(), member, member.span,
                )
            )
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
                decl.name_span,
                unit.path,
            )
        classes[decl.name] = class_info_from_decl(decl, unit.package, unit.path)

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
                    info.decl.name_span,
                    info.path,
                )
            if info.superclass not in classes:
                raise UnknownSuperclass(
                    f"class {info.name!r} extends unknown class {info.superclass!r}",
                    info.decl.name_span,
                    info.path,
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
            info.decl.name_span,
            info.path,
        )
    return order


def classify_members(model: ClassModel) -> ClassModel:
    """Annotate the model with override/overload relations and diagnostics.

    Overrides pair a subclass member with the matching member of every
    direct or transitive superclass: attributes match by name regardless of
    type, methods by full signature. Same-name methods with different
    signatures are overloads, never overrides. Illegal pairings (static
    mismatch, final superclass member) are diagnostics; flattening treats
    them as non-overriding.
    """
    model.overrides = []
    model.overloads = []
    # Each class's methods grouped by name, in declaration order.
    by_name: dict[str, dict[str, list[MemberInfo]]] = {}
    for name in model.order:
        groups: dict[str, list[MemberInfo]] = {}
        for method in model.classes[name].methods.values():
            groups.setdefault(method.name, []).append(method)
        by_name[name] = groups
    for name in model.order:
        info = model.classes[name]
        for sup_info in model.superclass_chain(name):
            for attr in info.attributes.values():
                sup_attr = sup_info.attributes.get(attr.name)
                if sup_attr is not None:
                    model.overrides.append(
                        OverrideRelation(
                            attr, sup_attr, "attribute-override",
                            override_legality(attr, sup_attr),
                        )
                    )
            for method in info.methods.values():
                sup_method = sup_info.methods.get(method.signature)
                if sup_method is not None:
                    model.overrides.append(
                        OverrideRelation(
                            method, sup_method, "method-override",
                            override_legality(method, sup_method),
                        )
                    )
                for other in by_name[sup_info.name].get(method.name, ()):
                    if other.signature != method.signature:
                        model.overloads.append((method, other))

    for relation in model.overrides:
        if relation.legality == "illegal-static-mismatch":
            model.diagnostics.append(
                Diagnostic(
                    ILLEGAL_OVERRIDE_STATIC,
                    f"{relation.sub.owner}.{relation.sub.signature} and "
                    f"{relation.sup.owner}.{relation.sup.signature} differ in staticness; "
                    "treated as non-overriding",
                    relation.sub.owner,
                    relation.sub.span,
                )
            )
        elif relation.legality == "illegal-final":
            model.diagnostics.append(
                Diagnostic(
                    ILLEGAL_OVERRIDE_FINAL,
                    f"{relation.sup.owner}.{relation.sup.signature} is final and cannot be "
                    f"overridden by {relation.sub.owner}; treated as non-overriding",
                    relation.sub.owner,
                    relation.sub.span,
                )
            )

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


def _divergence(info: ClassInfo, member: MemberInfo) -> Diagnostic:
    return Diagnostic(
        PACKAGE_VISIBILITY_DIVERGENCE,
        f"{member.owner}.{member.signature} has package visibility but "
        f"{info.name} is in a different package; treating it as visible anyway",
        info.name,
        member.span,
    )
