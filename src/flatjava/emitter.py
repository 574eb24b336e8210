"""Canonical source emission.

Formatting is fixed so output is byte-stable: K&R braces, one member per
block with a blank line between members, single spaces around binary
operators, no trailing whitespace. Emitted text re-lexes to the same
(kind, lexeme) token stream as the AST it came from; original trivia is not
preserved. The number of lines a member takes is known from the shape of its
statements alone (`member_line_count`), which is what the metrics count.
A flattened view's text is its head, its own members, and its pulled part
as one chunk per level: the members pulled at that level, written once,
then the chunks of its `base`, which every view below shares.
"""

from __future__ import annotations

from . import tree


def emit(target, *, provenance: bool = False) -> str:
    """Emit a CompilationUnit, ClassDecl, or FlattenedClass as source text.

    With `provenance`, each member a FlattenedClass pulled down is preceded
    by a comment naming its origin.
    """
    package, pulled = None, ()
    if isinstance(target, tree.CompilationUnit):
        package, target = target.package, target.class_decl
    if isinstance(target, tree.ClassDecl):
        own, superclass = target.members, target.superclass
    else:
        # FlattenedClass (duck-typed to avoid a circular import): its own
        # members, then the text of its pulled part. It extends nothing.
        package, superclass = target.package, None
        own = [m.decl for m in target.head_members[:target.own]]
        pulled = target.pulled_part(
            ("text", provenance), lambda view, inherited: _pulled(view, inherited, provenance), ()
        )
    head = f"package {package};\n\n" if package else ""
    head += _vis_prefix(target.visibility) + f"class {target.name}"
    if superclass:
        head += f" extends {superclass}"
    return "".join([head, " {", _chunk(own), *pulled, "}\n" if own or pulled else "\n}\n"])


def _pulled(view, inherited: tuple[str, ...], provenance: bool) -> tuple[str, ...]:
    """The text of what `view` pulled at its level, as one chunk, before the
    chunks `inherited` from further up."""
    members = view.head_members[view.own:]
    chunk = _chunk([m.decl for m in members], [m.owner for m in members] if provenance else ())
    return (chunk, *inherited) if chunk else inherited


def _chunk(decls: list, owners=()) -> str:
    """`decls` one after another, each after a blank line and, with
    `owners`, a comment naming the class it was pulled from."""
    writer = _Writer()
    for i, decl in enumerate(decls):
        writer.line(0, "")
        if owners:
            writer.line(1, f"// pulled from {owners[i]}")
        writer.member(decl)
    return "\n".join(writer.lines) + "\n" if decls else ""


def member_line_count(member) -> int:
    """The number of lines `emit` writes for a member declaration.

    It is counted from the shape of the member's statements, without
    formatting an expression, and kept on the member's node, which
    flattened classes share.
    """
    if isinstance(member, tree.FieldDecl):
        return 1
    if member.line_count is None:
        member.line_count = _nested_lines(member.body)
    return member.line_count


def _stmt_lines(stmt: tree.Stmt) -> int:
    """The lines `_Writer.stmt` writes for `stmt`."""
    if isinstance(stmt, tree.Block):
        return _nested_lines(stmt)
    if isinstance(stmt, tree.While):
        return _nested_lines(stmt.body)
    if isinstance(stmt, tree.If):
        els = stmt.else_branch
        if els is None:
            return _nested_lines(stmt.then_branch)
        # A braced `then` shares its closing line with the `else`.
        lines = _nested_lines(stmt.then_branch, close=False)
        return lines + (_stmt_lines(els) if isinstance(els, tree.If) else _nested_lines(els))
    return 1


def _nested_lines(body: tree.Stmt, close: bool = True) -> int:
    """The lines `_Writer.nested` writes for a head and `body`."""
    if isinstance(body, tree.Block):
        return 1 + sum(map(_stmt_lines, body.statements)) + close
    return 1 + _stmt_lines(body)


class _Writer:
    def __init__(self):
        self.lines: list[str] = []

    def line(self, level: int, content: str) -> None:
        self.lines.append("    " * level + content if content else "")

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
        prefix = _vis_prefix(member.visibility)
        if not isinstance(member, tree.CtorDecl):
            if member.is_static:
                prefix += "static "
            if member.is_final:
                prefix += "final "
        if isinstance(member, tree.FieldDecl):
            text = prefix + f"{member.decl_type.text()} {member.name}"
            if member.init is not None:
                text += f" = {_expr(member.init)}"
            self.line(1, text + ";")
            return
        if isinstance(member, tree.MethodDecl):
            prefix += (member.return_type.text() if member.return_type else "void") + " "
        self.nested(1, f"{prefix}{member.name}({_params(member.params)})", member.body)

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
            self.nested(level, "", stmt)
        elif isinstance(stmt, tree.While):
            self.nested(level, f"while ({_expr(stmt.cond)})", stmt.body)
        elif isinstance(stmt, tree.If):
            self.if_stmt(stmt, level, "")
        else:  # pragma: no cover
            raise TypeError(f"unknown statement node {type(stmt).__name__}")

    def if_stmt(self, stmt: tree.If, level: int, lead: str) -> None:
        els = stmt.else_branch
        self.nested(level, lead + f"if ({_expr(stmt.cond)})", stmt.then_branch, els is None)
        if els is not None:
            # A braced `then` closes on the line that starts the `else`.
            lead = "} else" if isinstance(stmt.then_branch, tree.Block) else "else"
            if isinstance(els, tree.If):
                self.if_stmt(els, level, lead + " ")
            else:
                self.nested(level, lead, els)

    def nested(self, level: int, head: str, body: tree.Stmt, close: bool = True) -> None:
        """`head`, then `body` one level in. A block's statements go between
        `head {` and a closing brace, which `close` false leaves out.

        A method body, a bare block, and each branch of a `while` or `if`
        are written here, at three frames per nesting level at most
        (`stmt`, `if_stmt`, `nested`).
        """
        if isinstance(body, tree.Block):
            self.line(level, f"{head} {{" if head else "{")
            for inner in body.statements:
                self.stmt(inner, level + 1)
            if close:
                self.line(level, "}")
        else:
            self.line(level, head)
            self.stmt(body, level + 1)


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
