"""AST node types for the Java subset, and the one traversal of member bodies.

Nodes are plain classes. Each one's fields are the parameters of its
`__init__`, in order, and are listed in its `__match_args__`, which drives
`repr`, `==` and `replace`. Nodes compare by value and are unhashable. Every
node keeps the span of the source text it was parsed from; nodes synthesized
by the flattener reuse the span of the construct they replace. Spans nest:
every node's span encloses its children's spans and its own name span, in
parsed trees and in the bodies the flattener rewrites. So the nodes whose
span holds an offset are the path from a body's root to the reference there,
which is all that a rewrite of that reference descends into.

The AST is never mutated after parsing, except that a member declaration
keeps the emitter's lines for it and the number of lines. A rewrite builds
new nodes only along a changed path and shares every untouched subtree, so a
flattened class shares its unchanged bodies with its superclass's flattened
view and with the classes as written, and each distinct member is emitted
and counted once.
"""

from __future__ import annotations

import operator

from .spans import Span

VISIBILITIES = ("public", "package", "protected", "private")


class Node:
    __match_args__: tuple[str, ...] = ()
    __hash__ = None  # compared by value, so never a key

    def __init_subclass__(cls):
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            cls.__match_args__ = code.co_varnames[1:code.co_argcount]

    def _compared(self) -> list:
        return [getattr(self, name) for name in self.__match_args__]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


def replace(node: Node, **fields) -> Node:
    """A new node of `node`'s type, with `fields` changed and the others kept.

    It goes through `__init__`, so a member declaration starts without the
    emitter's lines (`emitted`) of the node it was made from.
    """
    for name in node.__match_args__:
        if name not in fields:
            fields[name] = getattr(node, name)
    return type(node)(**fields)


class Expr(Node):
    pass


class Stmt(Node):
    pass


# --- expressions -----------------------------------------------------------


class Literal(Expr):
    def __init__(self, kind: str, lexeme: str, span: Span):
        self.kind = kind  # int | long | double | string | boolean | null
        self.lexeme = lexeme
        self.span = span


class Name(Expr):
    def __init__(self, ident: str, span: Span):
        self.ident = ident
        self.span = span


class This(Expr):
    def __init__(self, span: Span):
        self.span = span


class Super(Expr):
    def __init__(self, span: Span):
        self.span = span


class FieldAccess(Expr):
    def __init__(self, receiver: Expr, name: str, span: Span, name_span: Span):
        self.receiver = receiver
        self.name = name
        self.span = span
        self.name_span = name_span


class Call(Expr):
    def __init__(self, receiver: Expr | None, name: str, args: list[Expr], span: Span,
                 name_span: Span):
        self.receiver = receiver  # None means a bare call
        self.name = name
        self.args = args
        self.span = span
        self.name_span = name_span


class New(Expr):
    def __init__(self, type_name: str, args: list[Expr], span: Span):
        self.type_name = type_name
        self.args = args
        self.span = span


class Unary(Expr):
    def __init__(self, op: str, operand: Expr, span: Span):
        self.op = op
        self.operand = operand
        self.span = span


class Binary(Expr):
    def __init__(self, op: str, left: Expr, right: Expr, span: Span):
        self.op = op
        self.left = left
        self.right = right
        self.span = span


class Paren(Expr):
    def __init__(self, inner: Expr, span: Span):
        self.inner = inner
        self.span = span


# --- statements ------------------------------------------------------------


class TypeRef(Node):
    def __init__(self, name: str, is_array: bool, span: Span):
        self.name = name
        self.is_array = is_array
        self.span = span

    def text(self) -> str:
        return self.name + "[]" if self.is_array else self.name


class LocalDecl(Stmt):
    def __init__(self, decl_type: TypeRef, name: str, init: Expr | None, span: Span):
        self.decl_type = decl_type
        self.name = name
        self.init = init
        self.span = span


class ExprStmt(Stmt):
    def __init__(self, expr: Expr, span: Span):
        self.expr = expr
        self.span = span


class Assign(Stmt):
    def __init__(self, target: Expr, value: Expr, span: Span):
        self.target = target  # Name or FieldAccess
        self.value = value
        self.span = span


class If(Stmt):
    def __init__(self, cond: Expr, then_branch: Stmt, else_branch: Stmt | None, span: Span):
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch
        self.span = span


class While(Stmt):
    def __init__(self, cond: Expr, body: Stmt, span: Span):
        self.cond = cond
        self.body = body
        self.span = span


class Return(Stmt):
    def __init__(self, value: Expr | None, span: Span):
        self.value = value
        self.span = span


class Block(Stmt):
    def __init__(self, statements: list[Stmt], span: Span):
        self.statements = statements
        self.span = span


# --- declarations ----------------------------------------------------------
#
# A member declaration's `emitted` holds the emitter's lines for it, and a
# method's or constructor's `line_count` their number, for as long as the
# node lives. Neither is a field: `repr` and `==` leave them out.


class Param(Node):
    def __init__(self, decl_type: TypeRef, name: str, span: Span):
        self.decl_type = decl_type
        self.name = name
        self.span = span


class FieldDecl(Node):
    def __init__(self, visibility: str, is_static: bool, is_final: bool, decl_type: TypeRef,
                 name: str, init: Expr | None, span: Span, name_span: Span):
        self.visibility = visibility
        self.is_static = is_static
        self.is_final = is_final
        self.decl_type = decl_type
        self.name = name
        self.init = init
        self.span = span
        self.name_span = name_span
        self.emitted = None


class MethodDecl(Node):
    def __init__(self, visibility: str, is_static: bool, is_final: bool,
                 return_type: TypeRef | None, name: str, params: list[Param], body: Block,
                 span: Span, name_span: Span):
        self.visibility = visibility
        self.is_static = is_static
        self.is_final = is_final
        self.return_type = return_type  # None means void
        self.name = name
        self.params = params
        self.body = body
        self.span = span
        self.name_span = name_span
        self.emitted = None
        self.line_count = None

    def signature(self) -> str:
        return method_signature(self.name, [p.decl_type.text() for p in self.params])


class CtorDecl(Node):
    def __init__(self, visibility: str, name: str, params: list[Param], body: Block, span: Span,
                 name_span: Span):
        self.visibility = visibility
        self.name = name
        self.params = params
        self.body = body
        self.span = span
        self.name_span = name_span
        self.emitted = None
        self.line_count = None

    def signature(self) -> str:
        return method_signature("<init>", [p.decl_type.text() for p in self.params])


class ClassDecl(Node):
    def __init__(self, visibility: str, name: str, superclass: str | None,
                 members: list[FieldDecl | MethodDecl | CtorDecl], span: Span, name_span: Span):
        self.visibility = visibility
        self.name = name
        self.superclass = superclass
        self.members = members
        self.span = span
        self.name_span = name_span


class CompilationUnit(Node):
    def __init__(self, package: str | None, class_decl: ClassDecl, span: Span,
                 path: str | None = None):
        self.package = package
        self.class_decl = class_decl
        self.span = span
        self.path = path

    def _compared(self) -> list:
        # Where the unit was read from is not part of its value.
        return [self.package, self.class_decl, self.span]


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
    # A loop, not a comprehension: a comprehension is one more frame for
    # each level of nested call arguments.
    new = []
    for item in items:
        new.append(fn(item))
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
