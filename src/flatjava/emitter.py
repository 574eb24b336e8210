"""Canonical source emission.

Formatting is fixed so output is byte-stable: K&R braces, one member per
block with a blank line between members, single spaces around binary
operators, no trailing whitespace. Emitted text re-lexes to the same
(kind, lexeme) token stream as the AST it came from; original trivia is not
preserved.
"""

from __future__ import annotations

from . import tree


class EmitOptions:
    def __init__(self, provenance: bool = False):
        self.provenance = provenance


def emit(target, options: EmitOptions | None = None) -> str:
    """Emit a CompilationUnit, ClassDecl, or FlattenedClass as source text."""
    options = options or EmitOptions()
    writer = _Writer(options)
    if isinstance(target, tree.CompilationUnit):
        writer.unit(target.package, target.class_decl, {})
    elif isinstance(target, tree.ClassDecl):
        writer.unit(None, target, {})
    else:
        # FlattenedClass (duck-typed to avoid a circular import): carries the
        # package, the rewritten ClassDecl, and per-member provenance.
        provenance = {}
        if options.provenance:
            provenance = {
                id(m.decl): m.provenance for m in target.members if m.pulled
            }
        writer.unit(target.package, target.decl, provenance)
    return writer.text()


class _Writer:
    def __init__(self, options: EmitOptions):
        self.options = options
        self.lines: list[str] = []

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def line(self, level: int, content: str) -> None:
        self.lines.append("    " * level + content if content else "")

    def unit(self, package: str | None, decl: tree.ClassDecl, provenance: dict[int, str]) -> None:
        if package:
            self.line(0, f"package {package};")
            self.line(0, "")
        head = _vis_prefix(decl.visibility) + f"class {decl.name}"
        if decl.superclass:
            head += f" extends {decl.superclass}"
        self.line(0, head + " {")
        for i, member in enumerate(decl.members):
            if i:
                self.line(0, "")
            owner = provenance.get(id(member))
            if owner:
                self.line(1, f"// pulled from {owner}")
            self.member(member)
        self.line(0, "}")

    def member(self, member) -> None:
        """Write a member. Its lines depend on the node alone, so they are
        built once and kept on the node, which flattened classes share."""
        if member.emitted is None:
            start = len(self.lines)
            self.write_member(member)
            member.emitted = self.lines[start:]
        else:
            self.lines.extend(member.emitted)

    def write_member(self, member) -> None:
        if isinstance(member, tree.FieldDecl):
            text = (
                _vis_prefix(member.visibility)
                + ("static " if member.is_static else "")
                + ("final " if member.is_final else "")
                + f"{member.decl_type.text()} {member.name}"
            )
            if member.init is not None:
                text += f" = {_expr(member.init)}"
            self.line(1, text + ";")
        elif isinstance(member, tree.MethodDecl):
            ret = member.return_type.text() if member.return_type else "void"
            head = (
                _vis_prefix(member.visibility)
                + ("static " if member.is_static else "")
                + ("final " if member.is_final else "")
                + f"{ret} {member.name}({_params(member.params)})"
            )
            self.line(1, head + " {")
            for stmt in member.body.statements:
                self.stmt(stmt, 2)
            self.line(1, "}")
        elif isinstance(member, tree.CtorDecl):
            head = _vis_prefix(member.visibility) + f"{member.name}({_params(member.params)})"
            self.line(1, head + " {")
            for stmt in member.body.statements:
                self.stmt(stmt, 2)
            self.line(1, "}")
        else:  # pragma: no cover - guarded by the parser
            raise TypeError(f"unknown member node {type(member).__name__}")

    def stmt(self, stmt: tree.Stmt, level: int) -> None:
        if isinstance(stmt, tree.LocalDecl):
            text = f"{stmt.decl_type.text()} {stmt.name}"
            if stmt.init is not None:
                text += f" = {_expr(stmt.init)}"
            self.line(level, text + ";")
        elif isinstance(stmt, tree.ExprStmt):
            self.line(level, _expr(stmt.expr) + ";")
        elif isinstance(stmt, tree.Assign):
            self.line(level, f"{_expr(stmt.target)} = {_expr(stmt.value)};")
        elif isinstance(stmt, tree.Return):
            self.line(level, "return;" if stmt.value is None else f"return {_expr(stmt.value)};")
        elif isinstance(stmt, tree.Block):
            self.line(level, "{")
            for inner in stmt.statements:
                self.stmt(inner, level + 1)
            self.line(level, "}")
        elif isinstance(stmt, tree.While):
            head = f"while ({_expr(stmt.cond)})"
            if isinstance(stmt.body, tree.Block):
                self.line(level, head + " {")
                for inner in stmt.body.statements:
                    self.stmt(inner, level + 1)
                self.line(level, "}")
            else:
                self.line(level, head)
                self.stmt(stmt.body, level + 1)
        elif isinstance(stmt, tree.If):
            self.if_stmt(stmt, level, "")
        else:  # pragma: no cover
            raise TypeError(f"unknown statement node {type(stmt).__name__}")

    def if_stmt(self, stmt: tree.If, level: int, lead: str) -> None:
        head = lead + f"if ({_expr(stmt.cond)})"
        then_is_block = isinstance(stmt.then_branch, tree.Block)
        if then_is_block:
            self.line(level, head + " {")
            for inner in stmt.then_branch.statements:
                self.stmt(inner, level + 1)
            if stmt.else_branch is None:
                self.line(level, "}")
                return
            close = "} else"
        else:
            self.line(level, head)
            self.stmt(stmt.then_branch, level + 1)
            if stmt.else_branch is None:
                return
            close = "else"
        els = stmt.else_branch
        if isinstance(els, tree.If):
            self.if_stmt(els, level, close + " ")
        elif isinstance(els, tree.Block):
            self.line(level, close + " {")
            for inner in els.statements:
                self.stmt(inner, level + 1)
            self.line(level, "}")
        else:
            self.line(level, close)
            self.stmt(els, level + 1)


def _vis_prefix(visibility: str) -> str:
    return "" if visibility == "package" else visibility + " "


def _params(params: list[tree.Param]) -> str:
    return ", ".join(f"{p.decl_type.text()} {p.name}" for p in params)


def _expr(e: tree.Expr) -> str:
    if isinstance(e, tree.Literal):
        return e.lexeme
    if isinstance(e, tree.Name):
        return e.ident
    if isinstance(e, tree.This):
        return "this"
    if isinstance(e, tree.Super):
        return "super"
    if isinstance(e, tree.FieldAccess):
        return f"{_expr(e.receiver)}.{e.name}"
    if isinstance(e, tree.Call):
        args = ", ".join(_expr(a) for a in e.args)
        if e.receiver is None:
            return f"{e.name}({args})"
        return f"{_expr(e.receiver)}.{e.name}({args})"
    if isinstance(e, tree.New):
        args = ", ".join(_expr(a) for a in e.args)
        return f"new {e.type_name}({args})"
    if isinstance(e, tree.Unary):
        return e.op + _expr(e.operand)
    if isinstance(e, tree.Binary):
        return f"{_expr(e.left)} {e.op} {_expr(e.right)}"
    if isinstance(e, tree.Paren):
        return f"({_expr(e.inner)})"
    raise TypeError(f"unknown expression node {type(e).__name__}")  # pragma: no cover
