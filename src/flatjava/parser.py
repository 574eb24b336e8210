"""Recursive-descent parser for the Java subset.

The grammar is deliberately closed: one top-level class per file, fields,
methods, constructors, and a small statement/expression language. Anything
legal in full Java but outside the subset raises UnsupportedFeature with the
offending span; malformed input raises ParseError at the first error.

The parser reads the lexer's lists of kinds, lexemes and start offsets
through one index, and tests the current token by its lexeme. A node's span
is the offsets of its first token's start and its last token's end. Binary
operators are parsed by precedence climbing, and one call parses an operand
with its prefix operators, member accesses and calls, so an operand costs
two calls whatever its precedence level.

Nesting is bounded: the syntax tree of a field initializer or of a method or
constructor body may be at most MAX_NESTING nodes deep, counting each block,
statement and expression (operator, parenthesis, member access, call) on its
longest path. Deeper input raises UnsupportedFeature at the construct that
goes past the limit. A level costs the parser at most three Python frames
(`parse_expr`, `parse_operand` and `parse_args` for the arguments of a call
or `new`), two for a parenthesis, block or statement, and none for a prefix
operator, a member access or an operator chaining to the left, which are
loops. Later walkers of the tree take more: up to four frames a level in the
flattener's body rewrite (nested blocks), and three in the resolver (call
arguments, receivers), the rewrite of renamed call arguments and the emitter
(`stmt`, `if_stmt` and `nested` for an `if`; two for a `while` or a block).
That is about 600 frames at the limit, inside Python's default recursion
limit of 1000.
"""

from __future__ import annotations

from . import tree
from .errors import FlatJavaError, ParseError, UnsupportedFeature
from .lexer import EOI, IDENTIFIER, KEYWORD, LITERAL, Tokens, tokenize
from .spans import Span

PRIMITIVE_TYPES = frozenset({"int", "long", "double", "boolean"})
UNSUPPORTED_TYPE_KEYWORDS = frozenset({"byte", "short", "char", "float"})
UNSUPPORTED_UNIT_KEYWORDS = frozenset({"import", "interface", "enum", "abstract"})
UNSUPPORTED_MEMBER_KEYWORDS = frozenset(
    {"abstract", "synchronized", "native", "strictfp", "transient", "volatile"}
)
UNSUPPORTED_STMT_KEYWORDS = frozenset(
    {"for", "do", "switch", "try", "throw", "break", "continue", "assert", "synchronized"}
)

_BINARY_LEVELS = (
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("+", "-"),
    ("*", "/", "%"),
)
_PRECEDENCE = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}
_UNARY_OPS = frozenset({"-", "!", "+"})
_VISIBILITIES = frozenset({"public", "protected", "private"})

MAX_NESTING = 150

_new = tuple.__new__  # `_new(Span, (start, end))` skips Span's Python-level __new__


def parse(tokens: Tokens, path: str | None = None) -> tree.CompilationUnit:
    return _Parser(tokens, path).parse_unit()


def parse_source(source: str, path: str | None = None) -> tree.CompilationUnit:
    """The unit parsed from `source`, which keeps the text for its errors."""
    try:
        unit = parse(tokenize(source), path)
    except FlatJavaError as err:
        err.path, err.text = err.path or path, source
        raise
    unit.text = source
    return unit


class _Parser:
    """Reads the lists of `tokens` through the index `pos` of the current token.

    A lexeme tells the kind of every keyword, punctuation mark and operator
    (string literals keep their quotes, and the end-of-input lexeme is
    empty), so tests of the current token compare lexemes only.
    """

    def __init__(self, tokens: Tokens, path: str | None = None):
        self.kinds = tokens.kinds
        self.lexemes = tokens.lexemes
        self.starts = tokens.starts
        self.pos = 0
        self.path = path
        # Level of the node being parsed, 1 at the root of an initializer or
        # body. Counted on the way down, so inside an expression it is a lower
        # bound: the parents a left-associative chain adds come later.
        self.depth = 0
        # Levels in the expression parsed last, counted on the way up.
        self.height = 0

    # -- token plumbing ------------------------------------------------

    def span(self, i: int) -> Span:
        start = self.starts[i]
        return _new(Span, (start, start + len(self.lexemes[i])))

    def expect(self, lexeme: str) -> int:
        """Moves past the current token, which must be `lexeme`; returns where it ends."""
        pos = self.pos
        if self.lexemes[pos] != lexeme:
            raise self.error(f"expected '{lexeme}'", expected={lexeme})
        self.pos = pos + 1
        return self.starts[pos] + len(lexeme)

    def expect_identifier(self, what: str = "identifier") -> int:
        """Moves past the current token, which must be an identifier; its index."""
        pos = self.pos
        if self.kinds[pos] != IDENTIFIER:
            raise self.error(f"expected {what}", expected={"identifier"})
        self.pos = pos + 1
        return pos

    def error(self, message: str, expected: set[str] | None = None) -> ParseError:
        pos = self.pos
        found = self.lexemes[pos] if self.kinds[pos] != EOI else "end of input"
        return ParseError(
            f"{message}, found {found!r}",
            self.span(pos),
            frozenset(expected or ()),
            self.path,
        )

    def unsupported(self, feature: str, span: Span | None = None) -> UnsupportedFeature:
        return UnsupportedFeature(
            f"unsupported feature: {feature}", span or self.span(self.pos), self.path
        )

    def nest(self) -> None:
        """Go down one level; past MAX_NESTING the input is refused."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.too_deep(self.span(self.pos))

    def too_deep(self, span: Span) -> UnsupportedFeature:
        return self.unsupported(f"nesting deeper than {MAX_NESTING} levels", span)

    # -- declarations ---------------------------------------------------

    def parse_unit(self) -> tree.CompilationUnit:
        lexemes = self.lexemes
        package = None
        if lexemes[0] == "package":
            self.pos = 1
            parts = [lexemes[self.expect_identifier("package name")]]
            while lexemes[self.pos] == ".":
                self.pos += 1
                parts.append(lexemes[self.expect_identifier("package name")])
            self.expect(";")
            package = ".".join(parts)
        word = lexemes[self.pos]
        if word in UNSUPPORTED_UNIT_KEYWORDS:
            raise self.unsupported(f"'{word}' declarations")
        class_decl = self.parse_class()
        if self.kinds[self.pos] != EOI:
            raise self.error("expected end of input after class declaration")
        return tree.CompilationUnit(
            package, class_decl, _new(Span, (self.starts[0], class_decl.span.end)), self.path
        )

    def parse_class(self) -> tree.ClassDecl:
        lexemes = self.lexemes
        start = self.starts[self.pos]
        visibility = self.parse_visibility()
        self.expect("class")
        name = self.expect_identifier("class name")
        if lexemes[self.pos] == "<":
            raise self.unsupported("generic type parameters")
        superclass = None
        if lexemes[self.pos] == "extends":
            self.pos += 1
            superclass = lexemes[self.expect_identifier("superclass name")]
            if lexemes[self.pos] == "<":
                raise self.unsupported("generic type arguments")
        if lexemes[self.pos] == "implements":
            raise self.unsupported("'implements' clauses")
        self.expect("{")
        members: list[tree.FieldDecl | tree.MethodDecl | tree.CtorDecl] = []
        while lexemes[self.pos] != "}":
            if self.kinds[self.pos] == EOI:
                raise self.error("expected '}' before end of input", expected={"}"})
            members.append(self.parse_member(lexemes[name]))
        end = self.expect("}")
        return tree.ClassDecl(
            visibility, lexemes[name], superclass, members, _new(Span, (start, end)),
            self.span(name),
        )

    def parse_visibility(self) -> str:
        word = self.lexemes[self.pos]
        if word in _VISIBILITIES:
            self.pos += 1
            return word
        return "package"

    def parse_member(self, class_name: str):
        lexemes = self.lexemes
        word = lexemes[self.pos]
        start = self.starts[self.pos]
        if word == "class":
            raise self.unsupported("nested classes")
        if word in UNSUPPORTED_MEMBER_KEYWORDS:
            raise self.unsupported(f"'{word}' modifier")
        visibility = self.parse_visibility()
        is_static = lexemes[self.pos] == "static"
        if is_static:
            self.pos += 1
        is_final = lexemes[self.pos] == "final"
        if is_final:
            self.pos += 1

        pos = self.pos
        word = lexemes[pos]
        if word == "void":
            self.pos += 1
            name = self.expect_identifier("method name")
            return self.parse_method(start, visibility, is_static, is_final, None, name)

        if self.kinds[pos] == IDENTIFIER and lexemes[pos + 1] == "(":
            # Constructor: a bare identifier directly followed by '('.
            if is_static or is_final:
                raise ParseError(
                    "constructors cannot be static or final", self.span(pos), path=self.path
                )
            self.pos += 1
            if word != class_name:
                raise ParseError(
                    f"constructor name {word!r} does not match class {class_name!r}",
                    self.span(pos),
                    path=self.path,
                )
            params = self.parse_params()
            body = self.parse_block()
            return tree.CtorDecl(
                visibility, word, params, body, _new(Span, (start, body.span.end)),
                self.span(pos),
            )

        decl_type = self.parse_type("member type")
        name = self.expect_identifier("member name")
        follow = lexemes[self.pos]
        if follow == "(":
            return self.parse_method(start, visibility, is_static, is_final, decl_type, name)
        init = None
        if follow == "=":
            self.pos += 1
            init = self.parse_expr()
        end = self.expect(";")
        return tree.FieldDecl(
            visibility, is_static, is_final, decl_type, lexemes[name], init,
            _new(Span, (start, end)), self.span(name),
        )

    def parse_method(self, start, visibility, is_static, is_final, return_type, name):
        params = self.parse_params()
        body = self.parse_block()
        return tree.MethodDecl(
            visibility, is_static, is_final, return_type, self.lexemes[name], params, body,
            _new(Span, (start, body.span.end)), self.span(name),
        )

    def parse_params(self) -> list[tree.Param]:
        lexemes = self.lexemes
        self.expect("(")
        params: list[tree.Param] = []
        if lexemes[self.pos] != ")":
            while True:
                start = self.starts[self.pos]
                decl_type = self.parse_type("parameter type")
                name = self.expect_identifier("parameter name")
                end = self.starts[name] + len(lexemes[name])
                params.append(tree.Param(decl_type, lexemes[name], _new(Span, (start, end))))
                if lexemes[self.pos] != ",":
                    break
                self.pos += 1
        self.expect(")")
        return params

    def parse_type(self, what: str) -> tree.TypeRef:
        lexemes = self.lexemes
        pos = self.pos
        word = lexemes[pos]
        if self.kinds[pos] == IDENTIFIER or word in PRIMITIVE_TYPES:
            self.pos = pos + 1
        elif word in UNSUPPORTED_TYPE_KEYWORDS:
            raise self.unsupported(f"'{word}' type")
        else:
            raise self.error(f"expected {what}", expected={"type"})
        follow = lexemes[pos + 1]
        if follow == "<":
            raise self.unsupported("generic type arguments")
        start = self.starts[pos]
        if follow == "[":
            self.pos += 1
            end = self.expect("]")
            return tree.TypeRef(word, True, _new(Span, (start, end)))
        return tree.TypeRef(word, False, _new(Span, (start, start + len(word))))

    # -- statements -----------------------------------------------------

    def parse_block(self) -> tree.Block:
        lexemes = self.lexemes
        self.nest()
        start = self.starts[self.pos]
        self.expect("{")
        statements: list[tree.Stmt] = []
        while lexemes[self.pos] != "}":
            if self.kinds[self.pos] == EOI:
                raise self.error("expected '}' before end of input", expected={"}"})
            statements.append(self.parse_stmt())
        end = self.expect("}")
        self.depth -= 1
        return tree.Block(statements, _new(Span, (start, end)))

    def parse_stmt(self) -> tree.Stmt:
        lexemes = self.lexemes
        pos = self.pos
        word = lexemes[pos]
        if word == "{":
            return self.parse_block()
        self.nest()
        kind = self.kinds[pos]
        if kind == KEYWORD:
            if word in UNSUPPORTED_STMT_KEYWORDS:
                raise self.unsupported(f"'{word}' statements")
            if word == "if":
                stmt = self.parse_if()
            elif word == "while":
                stmt = self.parse_while()
            elif word == "return":
                stmt = self.parse_return()
            elif word in PRIMITIVE_TYPES:
                stmt = self.parse_local_decl()
            elif word in UNSUPPORTED_TYPE_KEYWORDS:
                raise self.unsupported(f"'{word}' type")
            else:
                stmt = self.parse_expr_or_assign()
        elif kind == IDENTIFIER and (
            self.kinds[pos + 1] == IDENTIFIER
            or lexemes[pos + 1] == "[" and lexemes[pos + 2] == "]"
        ):
            stmt = self.parse_local_decl()
        else:
            stmt = self.parse_expr_or_assign()
        self.depth -= 1
        return stmt

    def parse_local_decl(self) -> tree.LocalDecl:
        start = self.starts[self.pos]
        decl_type = self.parse_type("local variable type")
        name = self.lexemes[self.expect_identifier("variable name")]
        init = None
        if self.lexemes[self.pos] == "=":
            self.pos += 1
            init = self.parse_expr()
        end = self.expect(";")
        return tree.LocalDecl(decl_type, name, init, _new(Span, (start, end)))

    def parse_if(self) -> tree.If:
        start = self.starts[self.pos]  # 'if'
        self.pos += 1
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_branch = self.parse_stmt()
        else_branch = None
        end = then_branch.span.end
        if self.lexemes[self.pos] == "else":
            self.pos += 1
            else_branch = self.parse_stmt()
            end = else_branch.span.end
        return tree.If(cond, then_branch, else_branch, _new(Span, (start, end)))

    def parse_while(self) -> tree.While:
        start = self.starts[self.pos]  # 'while'
        self.pos += 1
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_stmt()
        return tree.While(cond, body, _new(Span, (start, body.span.end)))

    def parse_return(self) -> tree.Return:
        start = self.starts[self.pos]  # 'return'
        self.pos += 1
        value = None
        if self.lexemes[self.pos] != ";":
            value = self.parse_expr()
        end = self.expect(";")
        return tree.Return(value, _new(Span, (start, end)))

    def parse_expr_or_assign(self) -> tree.Stmt:
        start = self.starts[self.pos]
        expr = self.parse_expr()
        if self.lexemes[self.pos] == "=":
            if not isinstance(expr, (tree.Name, tree.FieldAccess)):
                raise ParseError(
                    "invalid assignment target", expr.span, path=self.path
                )
            self.pos += 1
            value = self.parse_expr()
            end = self.expect(";")
            return tree.Assign(expr, value, _new(Span, (start, end)))
        end = self.expect(";")
        return tree.ExprStmt(expr, _new(Span, (start, end)))

    # -- expressions ----------------------------------------------------

    def parse_expr(self, level: int = 0) -> tree.Expr:
        """An expression whose binary operators bind at `level` or tighter.

        Precedence climbing: each operator's right operand is parsed at the
        next tighter level, and operators of one level associate to the left.
        """
        lexemes = self.lexemes
        above = self.depth
        if above >= MAX_NESTING:
            raise self.too_deep(self.span(self.pos))
        self.depth = above + 1
        left = self.parse_operand()
        height = self.height
        while (prec := _PRECEDENCE.get(op := lexemes[self.pos], -1)) >= level:
            self.pos += 1
            right = self.parse_expr(prec + 1)
            height = max(height, self.height) + 1
            left = tree.Binary(op, left, right, _new(Span, (left.span[0], right.span[1])))
        self.depth = above
        if above + height > MAX_NESTING:
            raise self.too_deep(left.span)
        self.height = height
        return left

    def parse_operand(self) -> tree.Expr:
        """Prefix operators, a primary, then its member accesses and calls.

        Each prefix operator is a level above its operand, and each access
        or call a level above its receiver; sets `height` to the levels in
        the operand. One frame parses all of it, so an operand costs one
        call beside its `parse_expr`.
        """
        lexemes, starts = self.lexemes, self.starts
        pos = self.pos
        word = lexemes[pos]
        prefixes = []
        while word in _UNARY_OPS:
            prefixes.append(pos)
            self.pos = pos = pos + 1
            self.nest()
            word = lexemes[pos]

        self.height = 1
        kind = self.kinds[pos]
        start = starts[pos]
        if kind == IDENTIFIER:
            self.pos = pos + 1
            name_span = _new(Span, (start, start + len(word)))
            if lexemes[pos + 1] == "(":
                args, end = self.parse_args()
                self.height += 1
                expr = tree.Call(None, word, args, _new(Span, (start, end)), name_span)
            else:
                expr = tree.Name(word, name_span)
        elif kind == LITERAL:
            self.pos = pos + 1
            expr = tree.Literal(_literal_kind(word), word, _new(Span, (start, start + len(word))))
        elif word == "(":
            self.pos = pos + 1
            inner = self.parse_expr()
            end = self.expect(")")
            self.height += 1
            expr = tree.Paren(inner, _new(Span, (start, end)))
        elif word == "this":
            self.pos = pos + 1
            expr = tree.This(self.span(pos))
        elif word == "super":
            self.pos = pos + 1
            if lexemes[pos + 1] != ".":
                raise self.error("expected '.' after 'super'", expected={"."})
            expr = tree.Super(self.span(pos))
        elif word == "new":
            self.pos = pos + 1
            type_name = lexemes[self.expect_identifier("class name after 'new'")]
            if lexemes[self.pos] == "[":
                raise self.unsupported("array creation")
            args, end = self.parse_args()
            self.height += 1
            expr = tree.New(type_name, args, _new(Span, (start, end)))
        elif word in UNSUPPORTED_STMT_KEYWORDS or word == "instanceof":
            raise self.unsupported(f"'{word}' expressions")
        else:
            raise self.error("expected expression", expected={"expression"})

        while lexemes[self.pos] == ".":
            self.pos += 1
            name = self.expect_identifier("member name")
            name_span = self.span(name)
            height = self.height
            if lexemes[self.pos] == "(":
                args, end = self.parse_args()
                self.height = max(height, self.height) + 1
                expr = tree.Call(
                    expr, lexemes[name], args, _new(Span, (expr.span[0], end)), name_span,
                )
            else:
                self.height = height + 1
                expr = tree.FieldAccess(
                    expr, lexemes[name], _new(Span, (expr.span[0], name_span[1])), name_span,
                )
        if prefixes:
            for op in reversed(prefixes):
                expr = tree.Unary(lexemes[op], expr, _new(Span, (starts[op], expr.span[1])))
            self.depth -= len(prefixes)
            self.height += len(prefixes)
        return expr

    def parse_args(self) -> tuple[list[tree.Expr], int]:
        """The arguments and the closing offset; sets `height` to the deepest argument's."""
        lexemes = self.lexemes
        self.expect("(")
        args: list[tree.Expr] = []
        height = 0
        if lexemes[self.pos] != ")":
            while True:
                args.append(self.parse_expr())
                height = max(height, self.height)
                if lexemes[self.pos] != ",":
                    break
                self.pos += 1
        end = self.expect(")")
        self.height = height
        return args, end


def _literal_kind(lexeme: str) -> str:
    if lexeme.startswith('"'):
        return "string"
    if lexeme in ("true", "false"):
        return "boolean"
    if lexeme == "null":
        return "null"
    if lexeme[-1] in "lL":
        return "long"
    if "." in lexeme or "e" in lexeme or "E" in lexeme or lexeme[-1] in "dD":
        return "double"
    return "int"
