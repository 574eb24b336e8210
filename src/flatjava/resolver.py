"""Name resolution and the member-access graph.

Resolution order inside a method body: locals and parameters, then the
class's own members (private included), then visible members walking up the
superclass chain. `super.x` starts the walk at the direct superclass and
sees visible members only. Locals shadow fields and never produce edges.

Overload resolution is exact-match: filter by arity, then require parameter
type names to equal the computed argument type names. A lone arity match
wins without type checks; anything else unresolvable is an error.

Each body resolves to a `MemberResolution` whose sites are relative to the
class that holds the body: a bare or `this.` reference to that class's own
member names no class, and no site names the member it comes from. So a
body pulled unchanged into a subclass keeps its resolution object. A
`ClassResolution` holds one per member, in a list parallel to the class's
member declarations; the absolute `AccessEdge`s of the class are built from
them only when something asks for them.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import tree
from .errors import AmbiguousCall, UnresolvedName
from .model import ClassInfo, ClassModel, MemberInfo
from .spans import Span

INIT_FIELDS = "<init-fields>()"

READ = "read"
WRITE = "write"
CALL = "call"

BASIS_BARE = "bare"
BASIS_THIS = "this"
BASIS_SUPER = "super"
BASIS_CLASS = "class"
BASIS_RECEIVER = "receiver"
# Bases whose references reach the holding class's own members.
LOCAL_BASES = (BASIS_BARE, BASIS_THIS)

_PRIMITIVES = frozenset({"int", "long", "double", "boolean", "void"})
_BOOLEAN_OPS = frozenset({"&&", "||", "==", "!=", "<", "<=", ">", ">="})
_new_tuple = tuple.__new__  # a NamedTuple without its Python-level __new__


class AccessEdge(NamedTuple):
    from_class: str
    from_member: str  # method signature, <init-fields>(), or <init>(...)
    kind: str  # read | write | call
    to_class: str
    to_member: str  # attribute name or method signature
    basis: str  # bare | this | super | class | receiver
    span: Span
    initializer_of: str | None = None

    def key(self) -> tuple[str, str, str, str, str, str]:
        return self[:6]


class Site(NamedTuple):
    """One reference in a body, relative to the class that holds the body.

    A bare or `this.` reference to a member of that class has no `to_class`:
    like the edge's source, it follows the body into whichever class holds
    it, so a body pulled unchanged into a subclass keeps its sites.
    """

    kind: str  # read | write | call
    to_class: str | None  # None: the holder's own member, reached bare or through `this`
    to_member: str  # attribute name or method signature
    basis: str  # bare | this | super | class | receiver
    span: Span


class MemberResolution:
    """The resolution of one field initializer or body.

    It holds nothing about the member or class that holds the body, so a
    flattened class shares it with its superclass for every pulled member
    that no rename touches.
    """

    __slots__ = ("sites", "receiver_types", "new_types", "class_refs", "uses_this", "used")

    def __init__(self, sites: dict[int, Site] | None = None,
                 receiver_types: set[str] | None = None, new_types: set[str] | None = None,
                 class_refs: set[str] | None = None, uses_this: bool = False):
        # The site of each reference node (Name, FieldAccess, Call, New or
        # assignment target), keyed by the node's identity: offsets are not
        # unique once bodies from several files share one flattened class.
        # The resolved declaration keeps every keyed node alive.
        self.sites = {} if sites is None else sites
        self.receiver_types = set() if receiver_types is None else receiver_types
        self.new_types = set() if new_types is None else new_types
        # Classes named as the qualifier of a static access.
        self.class_refs = set() if class_refs is None else class_refs
        # Whether `this` is used as a value, not as a receiver: its type is the
        # class, which changes when the body is pulled into a subclass.
        self.uses_this = uses_this
        # The attributes that sites with no `to_class` read or write, built by
        # the metrics on first use.
        self.used: tuple[str, ...] | None = None

    def with_sites(self, sites: dict[int, Site], class_refs: set[str] | None = None):
        """This resolution with other sites, for a body rewritten in another class."""
        return MemberResolution(
            sites, self.receiver_types, self.new_types,
            self.class_refs if class_refs is None else class_refs, self.uses_this,
        )


class ClassResolution:
    """The resolution of every member of a class.

    The union over the members (`sites`, `edges`, `receiver_types`,
    `new_types`) is built on first use: flattening and the metrics read the
    member resolutions themselves.
    """

    def __init__(self, class_name: str, decls: list | None = None,
                 resolutions: list[MemberResolution] | None = None):
        self.class_name = class_name
        # The members' declarations, in member order.
        self.decls = decls or []
        # Each member's own resolution: `members[i]` resolves `decls[i]`.
        self.members: list[MemberResolution] = resolutions or []

    @cached_property
    def sites(self) -> dict[int, AccessEdge]:
        """The absolute edge of every reference node, in member order."""
        name = self.class_name
        sites: dict[int, AccessEdge] = {}
        for decl, resolution in zip(self.decls, self.members):
            if isinstance(decl, tree.FieldDecl):
                from_member, initializer_of = INIT_FIELDS, decl.name
            else:
                from_member, initializer_of = decl.signature(), None
            for node, s in resolution.sites.items():
                sites[node] = AccessEdge(
                    name, from_member, s.kind, s.to_class or name, s.to_member, s.basis,
                    s.span, initializer_of,
                )
        return sites

    @cached_property
    def edges(self) -> list[AccessEdge]:
        return list(self.sites.values())

    @cached_property
    def receiver_types(self) -> set[str]:
        return set().union(*(r.receiver_types for r in self.members))

    @cached_property
    def new_types(self) -> set[str]:
        return set().union(*(r.new_types for r in self.members))


class AccessGraph:
    def __init__(self, resolutions: dict[str, ClassResolution]):
        self.resolutions = resolutions

    @cached_property
    def edges(self) -> list[AccessEdge]:
        return [e for name in self.resolutions for e in self.resolutions[name].edges]

    def edges_from(self, class_name: str) -> list[AccessEdge]:
        edges = self.resolutions[class_name].edges if class_name in self.resolutions else []
        return list(edges)


def compute_access_graph(model: ClassModel) -> AccessGraph:
    resolutions = {}
    for name in model.order:
        info = model.classes[name]
        if info.synthetic:
            resolutions[name] = ClassResolution(name)
            continue
        resolutions[name] = resolve_class(model, info)
    return AccessGraph(resolutions)


def resolve_class(model: ClassModel, cls: ClassInfo) -> ClassResolution:
    """Resolve every body in one class, collecting access edges."""
    walker = _Walker(model, cls)
    return ClassResolution(
        cls.name, cls.decl.members, [walker.resolve(m, cls.path) for m in cls.members]
    )


def resolve_member(
    model: ClassModel, cls: ClassInfo, member: MemberInfo, path: str | None
) -> MemberResolution:
    """Resolve one member of `cls`; errors name `path`, the file of its body."""
    return _Walker(model, cls).resolve(member, path)


class _Walker(tree.BodyWalker):
    def __init__(self, model: ClassModel, cls: ClassInfo):
        super().__init__()
        self.model = model
        self.cls = cls
        self.path = cls.path
        self.res = MemberResolution()

    def resolve(self, member: MemberInfo, path: str | None) -> MemberResolution:
        self.res = MemberResolution()
        self.path = path
        self.member(member.decl)
        return self.res

    def fail(self, message: str, span: Span) -> UnresolvedName:
        return UnresolvedName(message, span, self.path)

    def edge(self, kind: str, target: MemberInfo, basis: str, span: Span, node: tree.Expr) -> None:
        local = basis in LOCAL_BASES and target.owner == self.cls.name
        self.res.sites[id(node)] = _new_tuple(
            Site, (kind, None if local else target.owner, target.signature, basis, span)
        )

    # -- walker hooks -----------------------------------------------------

    def expr(self, e: tree.Expr) -> tree.Expr:
        self.type_of(e)
        return e

    def target(self, target: tree.Expr) -> tree.Expr:
        if isinstance(target, tree.Name):
            if self.local_type(target.ident) is None:  # a local write makes no edge
                found = self.lookup_attribute(target.ident)
                if found is None:
                    raise self.fail(f"cannot resolve name {target.ident!r}", target.span)
                self.edge(WRITE, found, BASIS_BARE, target.span, target)
        elif isinstance(target, tree.FieldAccess):
            self.field_access(target, kind=WRITE)
        else:  # pragma: no cover - parser rejects other targets
            raise TypeError("invalid assignment target")
        return target

    # -- expressions ------------------------------------------------------

    def type_of(self, e: tree.Expr) -> str | None:
        """Walk an expression, record edges, and return its static type name."""
        return self.types_by_node[type(e)](self, e)

    def name_type(self, e: tree.Name) -> str | None:
        local = self.local_type(e.ident)
        if local is not None:
            return local
        found = self.lookup_attribute(e.ident)
        if found is None:
            raise self.fail(f"cannot resolve name {e.ident!r}", e.span)
        self.edge(READ, found, BASIS_BARE, e.span, e)
        return found.decl.decl_type.text()

    def this_type(self, e: tree.This) -> str:
        self.res.uses_this = True
        return self.cls.name

    def binary_type(self, e: tree.Binary) -> str:
        left = self.type_of(e.left)
        right = self.type_of(e.right)
        if e.op in _BOOLEAN_OPS:
            return "boolean"
        if "String" in (left, right):
            return "String"
        if "double" in (left, right):
            return "double"
        if "long" in (left, right):
            return "long"
        return "int"

    def qualifier(self, receiver: tree.Expr | None) -> tuple[str, ClassInfo | None]:
        """The basis of a member access and the class its lookup starts at.

        The class is None for `super` in a root class and for a receiver of
        an unmodeled class or array type; a primitive receiver is an error.
        A name that no local or attribute shadows qualifies a static access
        when it names a class.
        """
        if receiver is None:
            return BASIS_BARE, self.cls
        if isinstance(receiver, tree.This):
            return BASIS_THIS, self.cls
        if isinstance(receiver, tree.Super):
            superclass = self.cls.superclass
            return BASIS_SUPER, None if superclass is None else self.model.classes[superclass]
        if isinstance(receiver, tree.Name):
            name = receiver.ident
            if self.local_type(name) is None and self.lookup_attribute(name) is None:
                if name not in self.model.classes:
                    raise self.fail(f"cannot resolve name {name!r}", receiver.span)
                self.res.class_refs.add(name)
                return BASIS_CLASS, self.model.classes[name]
        receiver_type = self.type_of(receiver)
        if receiver_type in _PRIMITIVES:
            raise self.fail(f"{receiver_type} cannot be dereferenced", receiver.span)
        if receiver_type is None or receiver_type not in self.model.classes:
            return BASIS_RECEIVER, None  # external receiver type: unmodeled, no edge
        self.res.receiver_types.add(receiver_type)
        return BASIS_RECEIVER, self.model.classes[receiver_type]

    def field_access(self, e: tree.FieldAccess, kind: str = READ) -> str | None:
        basis, owner = self.qualifier(e.receiver)
        if basis == BASIS_THIS:
            member = self.lookup_attribute(e.name)
            message = f"class {self.cls.name} has no attribute {e.name!r}"
        elif basis == BASIS_SUPER:
            member = self.lookup_super_attribute(e.name)
            message = f"no visible attribute {e.name!r} in superclasses of {self.cls.name}"
        elif owner is None:
            return None
        else:
            member = self.attr_on_type(owner.name, e.name)
            message = f"class {owner.name} has no accessible attribute {e.name!r}"
        if member is None:
            raise self.fail(message, e.name_span)
        if basis == BASIS_CLASS and not member.is_static:
            raise self.fail(f"attribute {owner.name}.{e.name} is not static", e.name_span)
        self.edge(kind, member, basis, e.name_span, e)
        return member.decl.decl_type.text()

    def attr_on_type(self, type_name: str, name: str) -> MemberInfo | None:
        """Nearest accessible attribute walking `type_name`'s chain.

        Private members are accessible only when declared by the accessing
        class itself. Unlike `lookup_attribute`, the walk stops at the nearest
        declaration even when it is inaccessible.
        """
        current: str | None = type_name
        while current is not None:
            info = self.model.classes[current]
            member = info.attributes.get(name)
            if member is not None:
                if member.visible or member.owner == self.cls.name:
                    return member
                return None  # nearest declaration is inaccessible
            current = info.superclass
        return None

    def call(self, e: tree.Call) -> str | None:
        arg_types = [self.type_of(a) for a in e.args]
        basis, owner = self.qualifier(e.receiver)
        if owner is None:
            if basis == BASIS_SUPER:
                raise self.fail("'super' used in a class with no superclass", e.receiver.span)
            return None
        # Private methods are candidates only in the accessing class itself;
        # a superclass never has its subclass's name.
        candidates = self.method_candidates(owner, e.name, own_class=owner.name == self.cls.name)
        member = self.pick_overload(candidates, e, arg_types)
        if basis == BASIS_CLASS and not member.is_static:
            raise self.fail(f"method {owner.name}.{member.signature} is not static", e.name_span)
        self.edge(CALL, member, basis, e.name_span, e)
        return _return_type(member)

    def new_expr(self, e: tree.New) -> str:
        arg_types = [self.type_of(a) for a in e.args]
        self.res.new_types.add(e.type_name)
        if e.type_name not in self.model.classes:
            return e.type_name  # external constructor: allowed, unresolved
        target_cls = self.model.classes[e.type_name]
        matching = [c for c in target_cls.ctors if len(c.decl.params) == len(e.args)]
        if not matching:
            if not target_cls.ctors and not e.args:
                return e.type_name  # the implicit no-arg constructor: no edge
            raise self.fail(
                f"class {e.type_name} has no constructor taking {len(e.args)} argument(s)",
                e.span,
            )
        if len(matching) > 1:
            exact = [c for c in matching if _types_match(c, arg_types)]
            if len(exact) != 1:
                raise AmbiguousCall(
                    f"constructor call new {e.type_name}({', '.join(t or '?' for t in arg_types)}) "
                    f"matches {len(exact) or len(matching)} overloads",
                    e.span,
                    self.path,
                )
            matching = exact
        self.edge(CALL, matching[0], BASIS_RECEIVER, e.span, e)
        return e.type_name

    # -- lookup helpers ---------------------------------------------------

    def lookup_attribute(self, name: str) -> MemberInfo | None:
        """The class's own attribute, else the nearest visible inherited one."""
        return self.cls.attributes.get(name) or self.lookup_super_attribute(name)

    def lookup_super_attribute(self, name: str) -> MemberInfo | None:
        current = self.cls.superclass
        while current is not None:
            info = self.model.classes[current]
            member = info.attributes.get(name)
            if member is not None and member.visible:
                return member
            current = info.superclass
        return None

    def method_candidates(self, start: ClassInfo, name: str, own_class: bool) -> list[MemberInfo]:
        """Nearest declaration per signature, walking the chain from `start`."""
        seen: dict[str, MemberInfo] = {}
        info: ClassInfo | None = start
        first = True
        while info is not None:
            for member in info.methods.values():
                if member.name != name:
                    continue
                if not member.visible and not (own_class and first):
                    continue
                if member.signature not in seen:
                    seen[member.signature] = member
            first = False
            info = self.model.classes[info.superclass] if info.superclass else None
        return list(seen.values())

    def pick_overload(self, candidates: list[MemberInfo], e: tree.Call, arg_types) -> MemberInfo:
        # No method of this name at all: an unresolved identifier. A known
        # name with no applicable or no unique overload: an ambiguous call.
        if not candidates:
            raise self.fail(f"cannot resolve method {e.name!r}", e.name_span)
        arity = [c for c in candidates if len(c.decl.params) == len(e.args)]
        if not arity:
            raise AmbiguousCall(
                f"no overload of {e.name!r} takes {len(e.args)} argument(s)",
                e.name_span,
                self.path,
            )
        if len(arity) == 1:
            return arity[0]
        exact = [c for c in arity if _types_match(c, arg_types)]
        if len(exact) == 1:
            return exact[0]
        raise AmbiguousCall(
            f"call {e.name!r} with argument types "
            f"({', '.join(t or '?' for t in arg_types)}) matches "
            f"{len(exact) or len(arity)} overloads",
            e.name_span,
            self.path,
        )

    # The handler of each expression node type, for `type_of`. The parser
    # makes `super` only a receiver, which `qualifier` takes.
    types_by_node = {
        tree.Literal: lambda self, e: "String" if e.kind == "string" else e.kind,
        tree.Name: name_type,
        tree.This: this_type,
        tree.Paren: lambda self, e: self.type_of(e.inner),
        tree.Unary: lambda self, e: self.type_of(e.operand),
        tree.Binary: binary_type,
        tree.FieldAccess: field_access,
        tree.Call: call,
        tree.New: new_expr,
    }


def _types_match(member: MemberInfo, arg_types: list[str | None]) -> bool:
    for param, arg in zip(member.decl.params, arg_types):
        expected = param.decl_type.text()
        if arg == "null":
            if expected in _PRIMITIVES:
                return False
            continue
        if arg != expected:
            return False
    return True


def _return_type(member: MemberInfo) -> str:
    return_type = member.decl.return_type
    return "void" if return_type is None else return_type.text()
