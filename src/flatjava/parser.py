"""Recursive-descent parser for the Java subset.

The grammar is deliberately closed: one top-level class per file, fields,
methods, constructors, and a small statement/expression language. Anything
legal in full Java but outside the subset raises UnsupportedFeature with the
offending span; malformed input raises ParseError at the first error.

The parser reads the token list through an index, and tests the current
token by its lexeme. Binary operators are parsed by precedence climbing, and
one call parses an operand with its prefix operators, member accesses and
calls, so an operand costs two calls whatever its precedence level.

Nesting is bounded: the syntax tree of a field initializer or of a method or
constructor body may be at most MAX_NESTING nodes deep, counting each block,
statement and expression (operator, parenthesis, member access, call) on its
longest path. Deeper input raises UnsupportedFeature at the construct that
goes past the limit. A level costs the parser at most three Python frames
(`parse_expr`, `parse_operand` and `parse_args` for the arguments of a call
or `new`), two for a parenthesis, block or statement, and none for a prefix
operator, a member access or an operator chaining to the left, which are
loops. Later walkers of the tree take more: up to four frames a level in the
resolver (nested blocks) and in the flattener's rewrite of a pulled body
(renamed call arguments), about 600 frames at the limit, inside Python's
default recursion limit of 1000.
"""

from __future__ import annotations

from . import tree
from .errors import FlatJavaError, ParseError, UnsupportedFeature
from .lexer import EOI, IDENTIFIER, KEYWORD, LITERAL, Token, tokenize
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


def parse(tokens: list[Token], path: str | None = None) -> tree.CompilationUnit:
    return _Parser(tokens, path).parse_unit()


def parse_source(source: str, path: str | None = None) -> tree.CompilationUnit:
    try:
        return parse(tokenize(source), path)
    except FlatJavaError as err:
        err.path = err.path or path
        raise


class _Parser:
    """Reads `tokens` through the index `pos` of the current token.

    A lexeme tells the kind of every keyword, punctuation mark and operator
    (string literals keep their quotes, and the end-of-input lexeme is
    empty), so tests of the current token compare lexemes only.
    """

    def __init__(self, tokens: list[Token], path: str | None = None):
        self.tokens = tokens
        self.pos = 0
        self.path = path
        # Level of the node being parsed, 1 at the root of an initializer or
        # body. Counted on the way down, so inside an expression it is a lower
        # bound: the parents a left-associative chain adds come later.
        self.depth = 0
        # Levels in the expression parsed last, counted on the way up.
        self.height = 0

    # -- token plumbing ------------------------------------------------

    def expect(self, lexeme: str) -> Token:
        """The current token, which must be the punctuation or keyword `lexeme`; moves past it."""
        tok = self.tokens[self.pos]
        if tok.lexeme != lexeme:
            raise self.error(f"expected '{lexeme}'", expected={lexeme})
        self.pos += 1
        return tok

    def expect_identifier(self, what: str = "identifier") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != IDENTIFIER:
            raise self.error(f"expected {what}", expected={"identifier"})
        self.pos += 1
        return tok

    def error(self, message: str, expected: set[str] | None = None) -> ParseError:
        tok = self.tokens[self.pos]
        found = tok.lexeme if tok.kind != EOI else "end of input"
        return ParseError(
            f"{message}, found {found!r}",
            tok.span,
            frozenset(expected or ()),
            self.path,
        )

    def unsupported(self, feature: str, span: Span | None = None) -> UnsupportedFeature:
        return UnsupportedFeature(
            f"unsupported feature: {feature}", span or self.tokens[self.pos].span, self.path
        )

    def nest(self) -> None:
        """Go down one level; past MAX_NESTING the input is refused."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.too_deep(self.tokens[self.pos].span)

    def too_deep(self, span: Span) -> UnsupportedFeature:
        return self.unsupported(f"nesting deeper than {MAX_NESTING} levels", span)

    # -- declarations ---------------------------------------------------

    def parse_unit(self) -> tree.CompilationUnit:
        tokens = self.tokens
        start = tokens[0].span
        package = None
        if tokens[0].lexeme == "package":
            self.pos = 1
            parts = [self.expect_identifier("package name").lexeme]
            while tokens[self.pos].lexeme == ".":
                self.pos += 1
                parts.append(self.expect_identifier("package name").lexeme)
            self.expect(";")
            package = ".".join(parts)
        word = tokens[self.pos].lexeme
        if word in UNSUPPORTED_UNIT_KEYWORDS:
            raise self.unsupported(f"'{word}' declarations")
        class_decl = self.parse_class()
        if tokens[self.pos].kind != EOI:
            raise self.error("expected end of input after class declaration")
        return tree.CompilationUnit(
            package, class_decl, _join(start, class_decl.span), self.path
        )

    def parse_class(self) -> tree.ClassDecl:
        tokens = self.tokens
        start = tokens[self.pos].span
        visibility = self.parse_visibility()
        self.expect("class")
        name_tok = self.expect_identifier("class name")
        if tokens[self.pos].lexeme == "<":
            raise self.unsupported("generic type parameters")
        superclass = None
        if tokens[self.pos].lexeme == "extends":
            self.pos += 1
            superclass = self.expect_identifier("superclass name").lexeme
            if tokens[self.pos].lexeme == "<":
                raise self.unsupported("generic type arguments")
        if tokens[self.pos].lexeme == "implements":
            raise self.unsupported("'implements' clauses")
        self.expect("{")
        members: list[tree.FieldDecl | tree.MethodDecl | tree.CtorDecl] = []
        while (tok := tokens[self.pos]).lexeme != "}":
            if tok.kind == EOI:
                raise self.error("expected '}' before end of input", expected={"}"})
            members.append(self.parse_member(name_tok.lexeme))
        self.pos += 1
        return tree.ClassDecl(
            visibility, name_tok.lexeme, superclass, members,
            _join(start, tok.span), name_tok.span,
        )

    def parse_visibility(self) -> str:
        word = self.tokens[self.pos].lexeme
        if word in _VISIBILITIES:
            self.pos += 1
            return word
        return "package"

    def parse_member(self, class_name: str):
        tokens = self.tokens
        tok = tokens[self.pos]
        start = tok.span
        if tok.lexeme == "class":
            raise self.unsupported("nested classes")
        if tok.lexeme in UNSUPPORTED_MEMBER_KEYWORDS:
            raise self.unsupported(f"'{tok.lexeme}' modifier")
        visibility = self.parse_visibility()
        is_static = tokens[self.pos].lexeme == "static"
        if is_static:
            self.pos += 1
        is_final = tokens[self.pos].lexeme == "final"
        if is_final:
            self.pos += 1

        tok = tokens[self.pos]
        if tok.lexeme == "void":
            self.pos += 1
            name_tok = self.expect_identifier("method name")
            return self.parse_method(start, visibility, is_static, is_final, None, name_tok)

        if tok.kind == IDENTIFIER and tokens[self.pos + 1].lexeme == "(":
            # Constructor: a bare identifier directly followed by '('.
            if is_static or is_final:
                raise ParseError(
                    "constructors cannot be static or final", tok.span, path=self.path
                )
            self.pos += 1
            if tok.lexeme != class_name:
                raise ParseError(
                    f"constructor name {tok.lexeme!r} does not match class "
                    f"{class_name!r}",
                    tok.span,
                    path=self.path,
                )
            params = self.parse_params()
            body = self.parse_block()
            return tree.CtorDecl(
                visibility, tok.lexeme, params, body, _join(start, body.span), tok.span,
            )

        decl_type = self.parse_type("member type")
        name_tok = self.expect_identifier("member name")
        follow = tokens[self.pos].lexeme
        if follow == "(":
            return self.parse_method(start, visibility, is_static, is_final, decl_type, name_tok)
        init = None
        if follow == "=":
            self.pos += 1
            init = self.parse_expr()
        end = self.expect(";")
        return tree.FieldDecl(
            visibility, is_static, is_final, decl_type, name_tok.lexeme, init,
            _join(start, end.span), name_tok.span,
        )

    def parse_method(self, start, visibility, is_static, is_final, return_type, name_tok):
        params = self.parse_params()
        body = self.parse_block()
        return tree.MethodDecl(
            visibility, is_static, is_final, return_type, name_tok.lexeme, params, body,
            _join(start, body.span), name_tok.span,
        )

    def parse_params(self) -> list[tree.Param]:
        tokens = self.tokens
        self.expect("(")
        params: list[tree.Param] = []
        if tokens[self.pos].lexeme != ")":
            while True:
                p_start = tokens[self.pos].span
                decl_type = self.parse_type("parameter type")
                name_tok = self.expect_identifier("parameter name")
                params.append(
                    tree.Param(decl_type, name_tok.lexeme, _join(p_start, name_tok.span))
                )
                if tokens[self.pos].lexeme != ",":
                    break
                self.pos += 1
        self.expect(")")
        return params

    def parse_type(self, what: str) -> tree.TypeRef:
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok.kind == IDENTIFIER or tok.lexeme in PRIMITIVE_TYPES:
            self.pos += 1
        elif tok.lexeme in UNSUPPORTED_TYPE_KEYWORDS:
            raise self.unsupported(f"'{tok.lexeme}' type")
        else:
            raise self.error(f"expected {what}", expected={"type"})
        follow = tokens[self.pos].lexeme
        if follow == "<":
            raise self.unsupported("generic type arguments")
        if follow == "[":
            self.pos += 1
            end = self.expect("]")
            return tree.TypeRef(tok.lexeme, True, _join(tok.span, end.span))
        return tree.TypeRef(tok.lexeme, False, tok.span)

    # -- statements -----------------------------------------------------

    def parse_block(self) -> tree.Block:
        tokens = self.tokens
        self.nest()
        start = self.expect("{").span
        statements: list[tree.Stmt] = []
        while (tok := tokens[self.pos]).lexeme != "}":
            if tok.kind == EOI:
                raise self.error("expected '}' before end of input", expected={"}"})
            statements.append(self.parse_stmt())
        self.pos += 1
        self.depth -= 1
        return tree.Block(statements, _join(start, tok.span))

    def parse_stmt(self) -> tree.Stmt:
        tokens = self.tokens
        tok = tokens[self.pos]
        word = tok.lexeme
        if word == "{":
            return self.parse_block()
        self.nest()
        kind = tok.kind
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
            (nxt := tokens[self.pos + 1]).kind == IDENTIFIER
            or nxt.lexeme == "[" and tokens[self.pos + 2].lexeme == "]"
        ):
            stmt = self.parse_local_decl()
        else:
            stmt = self.parse_expr_or_assign()
        self.depth -= 1
        return stmt

    def parse_local_decl(self) -> tree.LocalDecl:
        start = self.tokens[self.pos].span
        decl_type = self.parse_type("local variable type")
        name_tok = self.expect_identifier("variable name")
        init = None
        if self.tokens[self.pos].lexeme == "=":
            self.pos += 1
            init = self.parse_expr()
        end = self.expect(";")
        return tree.LocalDecl(decl_type, name_tok.lexeme, init, _join(start, end.span))

    def parse_if(self) -> tree.If:
        start = self.tokens[self.pos].span  # 'if'
        self.pos += 1
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_branch = self.parse_stmt()
        else_branch = None
        end_span = then_branch.span
        if self.tokens[self.pos].lexeme == "else":
            self.pos += 1
            else_branch = self.parse_stmt()
            end_span = else_branch.span
        return tree.If(cond, then_branch, else_branch, _join(start, end_span))

    def parse_while(self) -> tree.While:
        start = self.tokens[self.pos].span  # 'while'
        self.pos += 1
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_stmt()
        return tree.While(cond, body, _join(start, body.span))

    def parse_return(self) -> tree.Return:
        start = self.tokens[self.pos].span  # 'return'
        self.pos += 1
        value = None
        if self.tokens[self.pos].lexeme != ";":
            value = self.parse_expr()
        end = self.expect(";")
        return tree.Return(value, _join(start, end.span))

    def parse_expr_or_assign(self) -> tree.Stmt:
        start = self.tokens[self.pos].span
        expr = self.parse_expr()
        if self.tokens[self.pos].lexeme == "=":
            if not isinstance(expr, (tree.Name, tree.FieldAccess)):
                raise ParseError(
                    "invalid assignment target", expr.span, path=self.path
                )
            self.pos += 1
            value = self.parse_expr()
            end = self.expect(";")
            return tree.Assign(expr, value, _join(start, end.span))
        end = self.expect(";")
        return tree.ExprStmt(expr, _join(start, end.span))

    # -- expressions ----------------------------------------------------

    def parse_expr(self, level: int = 0) -> tree.Expr:
        """An expression whose binary operators bind at `level` or tighter.

        Precedence climbing: each operator's right operand is parsed at the
        next tighter level, and operators of one level associate to the left.
        """
        tokens = self.tokens
        above = self.depth
        if above >= MAX_NESTING:
            raise self.too_deep(tokens[self.pos].span)
        self.depth = above + 1
        left = self.parse_operand()
        height = self.height
        while (prec := _PRECEDENCE.get((tok := tokens[self.pos]).lexeme, -1)) >= level:
            self.pos += 1
            right = self.parse_expr(prec + 1)
            height = max(height, self.height) + 1
            left = tree.Binary(tok.lexeme, left, right, _join(left.span, right.span))
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
        tokens = self.tokens
        tok = tokens[self.pos]
        prefixes = []
        while tok.lexeme in _UNARY_OPS:
            prefixes.append(tok)
            self.pos += 1
            self.nest()
            tok = tokens[self.pos]

        self.height = 1
        kind = tok.kind
        word = tok.lexeme
        if kind == IDENTIFIER:
            self.pos += 1
            if tokens[self.pos].lexeme == "(":
                args, end_span = self.parse_args()
                self.height += 1
                expr = tree.Call(None, word, args, _join(tok.span, end_span), tok.span)
            else:
                expr = tree.Name(word, tok.span)
        elif kind == LITERAL:
            self.pos += 1
            expr = tree.Literal(_literal_kind(word), word, tok.span)
        elif word == "(":
            self.pos += 1
            inner = self.parse_expr()
            end = self.expect(")")
            self.height += 1
            expr = tree.Paren(inner, _join(tok.span, end.span))
        elif word == "this":
            self.pos += 1
            expr = tree.This(tok.span)
        elif word == "super":
            self.pos += 1
            if tokens[self.pos].lexeme != ".":
                raise self.error("expected '.' after 'super'", expected={"."})
            expr = tree.Super(tok.span)
        elif word == "new":
            self.pos += 1
            type_tok = self.expect_identifier("class name after 'new'")
            if tokens[self.pos].lexeme == "[":
                raise self.unsupported("array creation")
            args, end_span = self.parse_args()
            self.height += 1
            expr = tree.New(type_tok.lexeme, args, _join(tok.span, end_span))
        elif word in UNSUPPORTED_STMT_KEYWORDS or word == "instanceof":
            raise self.unsupported(f"'{word}' expressions")
        else:
            raise self.error("expected expression", expected={"expression"})

        while tokens[self.pos].lexeme == ".":
            self.pos += 1
            name_tok = self.expect_identifier("member name")
            height = self.height
            if tokens[self.pos].lexeme == "(":
                args, end_span = self.parse_args()
                self.height = max(height, self.height) + 1
                expr = tree.Call(
                    expr, name_tok.lexeme, args, _join(expr.span, end_span), name_tok.span,
                )
            else:
                self.height = height + 1
                expr = tree.FieldAccess(
                    expr, name_tok.lexeme, _join(expr.span, name_tok.span), name_tok.span,
                )
        if prefixes:
            for op in reversed(prefixes):
                expr = tree.Unary(op.lexeme, expr, _join(op.span, expr.span))
            self.depth -= len(prefixes)
            self.height += len(prefixes)
        return expr

    def parse_args(self) -> tuple[list[tree.Expr], Span]:
        """The arguments and the closing span; sets `height` to the deepest argument's."""
        tokens = self.tokens
        self.expect("(")
        args: list[tree.Expr] = []
        height = 0
        if tokens[self.pos].lexeme != ")":
            while True:
                args.append(self.parse_expr())
                height = max(height, self.height)
                if tokens[self.pos].lexeme != ",":
                    break
                self.pos += 1
        end = self.expect(")")
        self.height = height
        return args, end.span


def _join(start: Span, end: Span) -> Span:
    # tuple.__new__ builds the Span without its Python-level __new__.
    return tuple.__new__(Span, (start.start, end.end, start.line, start.column))


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
