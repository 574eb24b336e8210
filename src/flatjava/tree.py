"""AST node types for the Java subset, and the one traversal of member bodies.

Nodes are plain dataclasses. Every node keeps the span of the source text it
was parsed from; nodes synthesized by the flattener reuse the span of the
construct they replace.

The AST is never mutated after parsing, except that a member declaration
keeps the emitter's lines for it. A rewrite builds new nodes only along a
changed path and shares every untouched subtree, so a flattened class shares
its unchanged bodies with its superclass's flattened view and with the
classes as written, and each distinct member is emitted once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

from .spans import Span

VISIBILITIES = ("public", "package", "protected", "private")


class Node:
    pass


class Expr(Node):
    pass


class Stmt(Node):
    pass


# --- expressions -----------------------------------------------------------


@dataclass
class Literal(Expr):
    kind: str  # int | long | double | string | boolean | null
    lexeme: str
    span: Span


@dataclass
class Name(Expr):
    ident: str
    span: Span


@dataclass
class This(Expr):
    span: Span


@dataclass
class Super(Expr):
    span: Span


@dataclass
class FieldAccess(Expr):
    receiver: Expr
    name: str
    span: Span
    name_span: Span


@dataclass
class Call(Expr):
    receiver: Expr | None  # None means a bare call
    name: str
    args: list[Expr]
    span: Span
    name_span: Span


@dataclass
class New(Expr):
    type_name: str
    args: list[Expr]
    span: Span


@dataclass
class Unary(Expr):
    op: str
    operand: Expr
    span: Span


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    span: Span


@dataclass
class Paren(Expr):
    inner: Expr
    span: Span


# --- statements ------------------------------------------------------------


@dataclass
class TypeRef(Node):
    name: str
    is_array: bool
    span: Span

    def text(self) -> str:
        return self.name + "[]" if self.is_array else self.name


@dataclass
class LocalDecl(Stmt):
    decl_type: TypeRef
    name: str
    init: Expr | None
    span: Span


@dataclass
class ExprStmt(Stmt):
    expr: Expr
    span: Span


@dataclass
class Assign(Stmt):
    target: Expr  # Name or FieldAccess
    value: Expr
    span: Span


@dataclass
class If(Stmt):
    cond: Expr
    then_branch: Stmt
    else_branch: Stmt | None
    span: Span


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt
    span: Span


@dataclass
class Return(Stmt):
    value: Expr | None
    span: Span


@dataclass
class Block(Stmt):
    statements: list[Stmt]
    span: Span


# --- declarations ----------------------------------------------------------


def _emitted():
    """The emitter's lines for a member, kept on the node for as long as it
    lives. A rewrite (`dataclasses.replace`) starts a new node without them."""
    return field(default=None, init=False, repr=False, compare=False)


@dataclass
class Param(Node):
    decl_type: TypeRef
    name: str
    span: Span


@dataclass
class FieldDecl(Node):
    visibility: str
    is_static: bool
    is_final: bool
    decl_type: TypeRef
    name: str
    init: Expr | None
    span: Span
    name_span: Span
    emitted: list[str] | None = _emitted()


@dataclass
class MethodDecl(Node):
    visibility: str
    is_static: bool
    is_final: bool
    return_type: TypeRef | None  # None means void
    name: str
    params: list[Param]
    body: Block
    span: Span
    name_span: Span
    emitted: list[str] | None = _emitted()

    def signature(self) -> str:
        return method_signature(self.name, [p.decl_type.text() for p in self.params])


@dataclass
class CtorDecl(Node):
    visibility: str
    name: str
    params: list[Param]
    body: Block
    span: Span
    name_span: Span
    emitted: list[str] | None = _emitted()

    def signature(self) -> str:
        return method_signature("<init>", [p.decl_type.text() for p in self.params])


@dataclass
class ClassDecl(Node):
    visibility: str
    name: str
    superclass: str | None
    members: list[FieldDecl | MethodDecl | CtorDecl]
    span: Span
    name_span: Span


@dataclass
class CompilationUnit(Node):
    package: str | None
    class_decl: ClassDecl
    span: Span
    path: str | None = field(default=None, compare=False)


def method_signature(name: str, param_types: list[str]) -> str:
    return f"{name}({','.join(param_types)})"


# --- traversal -------------------------------------------------------------


def rebuilt(node: Node, **fields) -> Node:
    """`node` itself when every field still holds the same object, else a copy."""
    for name, value in fields.items():
        if getattr(node, name) is not value:
            return replace(node, **fields)
    return node


def mapped(fn, items: list) -> list:
    """`items` itself when `fn` returns every item unchanged, else the new list."""
    new = [fn(item) for item in items]
    return items if all(map(operator.is_, new, items)) else new


def map_children(e: Expr, fn) -> Expr:
    """`e` with `fn` applied to its direct subexpressions, copy-on-write."""
    if isinstance(e, Paren):
        return rebuilt(e, inner=fn(e.inner))
    if isinstance(e, Unary):
        return rebuilt(e, operand=fn(e.operand))
    if isinstance(e, Binary):
        return rebuilt(e, left=fn(e.left), right=fn(e.right))
    if isinstance(e, FieldAccess):
        return rebuilt(e, receiver=fn(e.receiver))
    if isinstance(e, Call):
        receiver = None if e.receiver is None else fn(e.receiver)
        return rebuilt(e, receiver=receiver, args=mapped(fn, e.args))
    if isinstance(e, New):
        return rebuilt(e, args=mapped(fn, e.args))
    return e


class BodyWalker:
    """Scope-tracking, copy-on-write traversal of field initializers and bodies.

    Subclasses supply `expr`, and may override `target` for assignment
    targets; each returns the expression it was given or a replacement. A
    statement, block or member comes back as the same object unless
    something below it was replaced. `local_type` looks a name up among the
    enclosing parameters and locals, innermost scope first.
    """

    def __init__(self):
        self.scopes: list[dict[str, str]] = []

    def expr(self, e: Expr) -> Expr:  # pragma: no cover - supplied by subclasses
        raise NotImplementedError

    def target(self, e: Expr) -> Expr:
        return self.expr(e)

    def local_type(self, name: str) -> str | None:
        for frame in reversed(self.scopes):
            if name in frame:
                return frame[name]
        return None

    def member(self, decl: FieldDecl | MethodDecl | CtorDecl):
        if isinstance(decl, FieldDecl):
            self.scopes = [{}]
            return decl if decl.init is None else rebuilt(decl, init=self.expr(decl.init))
        self.scopes = [{p.name: p.decl_type.text() for p in decl.params}]
        return rebuilt(decl, body=self.block(decl.body))

    def block(self, block: Block) -> Block:
        self.scopes.append({})
        statements = mapped(self.stmt, block.statements)
        self.scopes.pop()
        return rebuilt(block, statements=statements)

    def stmt(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, LocalDecl):
            init = None if stmt.init is None else self.expr(stmt.init)
            self.scopes[-1][stmt.name] = stmt.decl_type.text()
            return rebuilt(stmt, init=init)
        if isinstance(stmt, ExprStmt):
            return rebuilt(stmt, expr=self.expr(stmt.expr))
        if isinstance(stmt, Assign):
            return rebuilt(stmt, value=self.expr(stmt.value), target=self.target(stmt.target))
        if isinstance(stmt, If):
            cond = self.expr(stmt.cond)
            then_branch = self.nested(stmt.then_branch)
            else_branch = None if stmt.else_branch is None else self.nested(stmt.else_branch)
            return rebuilt(stmt, cond=cond, then_branch=then_branch, else_branch=else_branch)
        if isinstance(stmt, While):
            return rebuilt(stmt, cond=self.expr(stmt.cond), body=self.nested(stmt.body))
        if isinstance(stmt, Return):
            return stmt if stmt.value is None else rebuilt(stmt, value=self.expr(stmt.value))
        if isinstance(stmt, Block):
            return self.block(stmt)
        raise TypeError(f"unknown statement {type(stmt).__name__}")  # pragma: no cover

    def nested(self, stmt: Stmt) -> Stmt:
        """A branch or loop body, which scopes its locals even without braces."""
        if isinstance(stmt, Block):
            return self.block(stmt)
        self.scopes.append({})
        stmt = self.stmt(stmt)
        self.scopes.pop()
        return stmt
