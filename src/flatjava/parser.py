"""Recursive-descent parser for the Java subset.

The grammar is deliberately closed: one top-level class per file, fields,
methods, constructors, and a small statement/expression language. Anything
legal in full Java but outside the subset raises UnsupportedFeature with the
offending span; malformed input raises ParseError at the first error.

Binary operators are parsed by precedence climbing, so an operand costs one
call whatever its precedence level.

Nesting is bounded: the syntax tree of a field initializer or of a method or
constructor body may be at most MAX_NESTING nodes deep, counting each block,
statement and expression (operator, parenthesis, member access, call) on its
longest path. Deeper input raises UnsupportedFeature at the construct that
goes past the limit. Each level costs at most five Python frames in the
parser and in every later walker of the tree (resolver, rewriters, emitter),
so at the limit they all stay well inside Python's default recursion limit.
"""

from __future__ import annotations

from . import tree
from .errors import FlatJavaError, ParseError, UnsupportedFeature
from .lexer import EOI, IDENTIFIER, KEYWORD, LITERAL, OPERATOR, PUNCT, Token, tokenize
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
_UNARY_OPS = ("-", "!", "+")

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

    def peek(self, ahead: int = 0) -> Token:
        # `advance` never moves past EOI, so only lookahead needs the clamp.
        if not ahead:
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOI:
            self.pos += 1
        return tok

    def at_keyword(self, word: str) -> bool:
        return self.peek().is_keyword(word)

    def at_punct(self, lexeme: str) -> bool:
        tok = self.peek()
        return tok.kind == PUNCT and tok.lexeme == lexeme

    def at_operator(self, lexeme: str) -> bool:
        tok = self.peek()
        return tok.kind == OPERATOR and tok.lexeme == lexeme

    def expect_punct(self, lexeme: str) -> Token:
        if not self.at_punct(lexeme):
            raise self.error(f"expected '{lexeme}'", expected={lexeme})
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.error(f"expected '{word}'", expected={word})
        return self.advance()

    def expect_identifier(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != IDENTIFIER:
            raise self.error(f"expected {what}", expected={"identifier"})
        return self.advance()

    def error(self, message: str, expected: set[str] | None = None) -> ParseError:
        tok = self.peek()
        found = tok.lexeme if tok.kind != EOI else "end of input"
        return ParseError(
            f"{message}, found {found!r}",
            tok.span,
            frozenset(expected or ()),
            self.path,
        )

    def unsupported(self, feature: str, span: Span | None = None) -> UnsupportedFeature:
        return UnsupportedFeature(
            f"unsupported feature: {feature}", span or self.peek().span, self.path
        )

    def nest(self) -> None:
        """Go down one level; past MAX_NESTING the input is refused."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.too_deep(self.peek().span)

    def too_deep(self, span: Span) -> UnsupportedFeature:
        return self.unsupported(f"nesting deeper than {MAX_NESTING} levels", span)

    @staticmethod
    def join(start: Span, end: Span) -> Span:
        return Span(start.start, end.end, start.line, start.column)

    # -- declarations ---------------------------------------------------

    def parse_unit(self) -> tree.CompilationUnit:
        start = self.peek().span
        package = None
        if self.at_keyword("package"):
            self.advance()
            parts = [self.expect_identifier("package name").lexeme]
            while self.at_punct("."):
                self.advance()
                parts.append(self.expect_identifier("package name").lexeme)
            self.expect_punct(";")
            package = ".".join(parts)
        for word in UNSUPPORTED_UNIT_KEYWORDS:
            if self.at_keyword(word):
                raise self.unsupported(f"'{word}' declarations")
        class_decl = self.parse_class()
        if self.peek().kind != EOI:
            raise self.error("expected end of input after class declaration")
        return tree.CompilationUnit(
            package, class_decl, self.join(start, class_decl.span), self.path
        )

    def parse_class(self) -> tree.ClassDecl:
        start = self.peek().span
        visibility = self.parse_visibility()
        self.expect_keyword("class")
        name_tok = self.expect_identifier("class name")
        if self.at_operator("<"):
            raise self.unsupported("generic type parameters")
        superclass = None
        if self.at_keyword("extends"):
            self.advance()
            superclass = self.expect_identifier("superclass name").lexeme
            if self.at_operator("<"):
                raise self.unsupported("generic type arguments")
        if self.at_keyword("implements"):
            raise self.unsupported("'implements' clauses")
        self.expect_punct("{")
        members: list[tree.FieldDecl | tree.MethodDecl | tree.CtorDecl] = []
        while not self.at_punct("}"):
            if self.peek().kind == EOI:
                raise self.error("expected '}' before end of input", expected={"}"})
            members.append(self.parse_member(name_tok.lexeme))
        end = self.advance()  # '}'
        return tree.ClassDecl(
            visibility, name_tok.lexeme, superclass, members,
            self.join(start, end.span), name_tok.span,
        )

    def parse_visibility(self) -> str:
        for vis in ("public", "protected", "private"):
            if self.at_keyword(vis):
                self.advance()
                return vis
        return "package"

    def parse_member(self, class_name: str):
        start = self.peek().span
        if self.at_keyword("class"):
            raise self.unsupported("nested classes")
        for word in UNSUPPORTED_MEMBER_KEYWORDS:
            if self.at_keyword(word):
                raise self.unsupported(f"'{word}' modifier")
        visibility = self.parse_visibility()
        is_static = False
        is_final = False
        if self.at_keyword("static"):
            self.advance()
            is_static = True
        if self.at_keyword("final"):
            self.advance()
            is_final = True

        if self.at_keyword("void"):
            void_tok = self.advance()
            name_tok = self.expect_identifier("method name")
            return self.parse_method(
                start, visibility, is_static, is_final, None, name_tok, void_tok
            )

        tok = self.peek()
        if tok.kind == IDENTIFIER and self.peek(1).kind == PUNCT and self.peek(1).lexeme == "(":
            # Constructor: a bare identifier directly followed by '('.
            if is_static or is_final:
                raise ParseError(
                    "constructors cannot be static or final", tok.span, path=self.path
                )
            name_tok = self.advance()
            if name_tok.lexeme != class_name:
                raise ParseError(
                    f"constructor name {name_tok.lexeme!r} does not match class "
                    f"{class_name!r}",
                    name_tok.span,
                    path=self.path,
                )
            params = self.parse_params()
            body = self.parse_block()
            return tree.CtorDecl(
                visibility, name_tok.lexeme, params, body,
                self.join(start, body.span), name_tok.span,
            )

        decl_type = self.parse_type("member type")
        name_tok = self.expect_identifier("member name")
        if self.at_punct("("):
            return self.parse_method(
                start, visibility, is_static, is_final, decl_type, name_tok, None
            )
        init = None
        if self.at_operator("="):
            self.advance()
            init = self.parse_expr()
        end = self.expect_punct(";")
        return tree.FieldDecl(
            visibility, is_static, is_final, decl_type, name_tok.lexeme, init,
            self.join(start, end.span), name_tok.span,
        )

    def parse_method(self, start, visibility, is_static, is_final, return_type, name_tok, _void):
        params = self.parse_params()
        body = self.parse_block()
        return tree.MethodDecl(
            visibility, is_static, is_final, return_type, name_tok.lexeme, params, body,
            self.join(start, body.span), name_tok.span,
        )

    def parse_params(self) -> list[tree.Param]:
        self.expect_punct("(")
        params: list[tree.Param] = []
        if not self.at_punct(")"):
            while True:
                p_start = self.peek().span
                decl_type = self.parse_type("parameter type")
                name_tok = self.expect_identifier("parameter name")
                params.append(
                    tree.Param(decl_type, name_tok.lexeme, self.join(p_start, name_tok.span))
                )
                if self.at_punct(","):
                    self.advance()
                    continue
                break
        self.expect_punct(")")
        return params

    def parse_type(self, what: str) -> tree.TypeRef:
        tok = self.peek()
        if tok.kind == KEYWORD:
            if tok.lexeme in PRIMITIVE_TYPES:
                self.advance()
            elif tok.lexeme in UNSUPPORTED_TYPE_KEYWORDS:
                raise self.unsupported(f"'{tok.lexeme}' type")
            else:
                raise self.error(f"expected {what}", expected={"type"})
        elif tok.kind == IDENTIFIER:
            self.advance()
        else:
            raise self.error(f"expected {what}", expected={"type"})
        if self.at_operator("<"):
            raise self.unsupported("generic type arguments")
        is_array = False
        end_span = tok.span
        if self.at_punct("["):
            self.advance()
            end_span = self.expect_punct("]").span
            is_array = True
        return tree.TypeRef(tok.lexeme, is_array, self.join(tok.span, end_span))

    # -- statements -----------------------------------------------------

    def parse_block(self) -> tree.Block:
        self.nest()
        start = self.expect_punct("{").span
        statements: list[tree.Stmt] = []
        while not self.at_punct("}"):
            if self.peek().kind == EOI:
                raise self.error("expected '}' before end of input", expected={"}"})
            statements.append(self.parse_stmt())
        end = self.advance()
        self.depth -= 1
        return tree.Block(statements, self.join(start, end.span))

    def parse_stmt(self) -> tree.Stmt:
        tok = self.peek()
        if tok.kind == PUNCT and tok.lexeme == "{":
            return self.parse_block()
        self.nest()
        stmt = self.parse_non_block(tok)
        self.depth -= 1
        return stmt

    def parse_non_block(self, tok: Token) -> tree.Stmt:
        if tok.kind == KEYWORD:
            if tok.lexeme in UNSUPPORTED_STMT_KEYWORDS:
                raise self.unsupported(f"'{tok.lexeme}' statements")
            if tok.lexeme == "if":
                return self.parse_if()
            if tok.lexeme == "while":
                return self.parse_while()
            if tok.lexeme == "return":
                return self.parse_return()
            if tok.lexeme in PRIMITIVE_TYPES:
                return self.parse_local_decl()
            if tok.lexeme in UNSUPPORTED_TYPE_KEYWORDS:
                raise self.unsupported(f"'{tok.lexeme}' type")
        if tok.kind == IDENTIFIER:
            nxt = self.peek(1)
            if nxt.kind == IDENTIFIER:
                return self.parse_local_decl()
            if (
                nxt.kind == PUNCT
                and nxt.lexeme == "["
                and self.peek(2).kind == PUNCT
                and self.peek(2).lexeme == "]"
            ):
                return self.parse_local_decl()
        return self.parse_expr_or_assign()

    def parse_local_decl(self) -> tree.LocalDecl:
        start = self.peek().span
        decl_type = self.parse_type("local variable type")
        name_tok = self.expect_identifier("variable name")
        init = None
        if self.at_operator("="):
            self.advance()
            init = self.parse_expr()
        end = self.expect_punct(";")
        return tree.LocalDecl(decl_type, name_tok.lexeme, init, self.join(start, end.span))

    def parse_if(self) -> tree.If:
        start = self.advance().span  # 'if'
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        then_branch = self.parse_stmt()
        else_branch = None
        end_span = _stmt_span(then_branch)
        if self.at_keyword("else"):
            self.advance()
            else_branch = self.parse_stmt()
            end_span = _stmt_span(else_branch)
        return tree.If(cond, then_branch, else_branch, self.join(start, end_span))

    def parse_while(self) -> tree.While:
        start = self.advance().span
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_stmt()
        return tree.While(cond, body, self.join(start, _stmt_span(body)))

    def parse_return(self) -> tree.Return:
        start = self.advance().span
        value = None
        if not self.at_punct(";"):
            value = self.parse_expr()
        end = self.expect_punct(";")
        return tree.Return(value, self.join(start, end.span))

    def parse_expr_or_assign(self) -> tree.Stmt:
        start = self.peek().span
        expr = self.parse_expr()
        if self.at_operator("="):
            if not isinstance(expr, (tree.Name, tree.FieldAccess)):
                raise ParseError(
                    "invalid assignment target", expr.span, path=self.path
                )
            self.advance()
            value = self.parse_expr()
            end = self.expect_punct(";")
            return tree.Assign(expr, value, self.join(start, end.span))
        end = self.expect_punct(";")
        return tree.ExprStmt(expr, self.join(start, end.span))

    # -- expressions ----------------------------------------------------

    def parse_expr(self, level: int = 0) -> tree.Expr:
        """An expression whose binary operators bind at `level` or tighter.

        Precedence climbing: each operator's right operand is parsed at the
        next tighter level, and operators of one level associate to the left.
        """
        above = self.depth
        if above >= MAX_NESTING:
            raise self.too_deep(self.peek().span)
        self.depth = above + 1
        left = self.parse_unary()
        height = self.height
        while True:
            tok = self.peek()
            prec = _PRECEDENCE.get(tok.lexeme, -1) if tok.kind == OPERATOR else -1
            if prec < level:
                break
            self.advance()
            right = self.parse_expr(prec + 1)
            height = max(height, self.height) + 1
            left = tree.Binary(tok.lexeme, left, right, self.join(left.span, right.span))
        self.depth = above
        if above + height > MAX_NESTING:
            raise self.too_deep(left.span)
        self.height = height
        return left

    def parse_unary(self) -> tree.Expr:
        tok = self.peek()
        if tok.kind == OPERATOR and tok.lexeme in _UNARY_OPS:
            self.advance()
            self.nest()
            operand = self.parse_unary()
            self.depth -= 1
            self.height += 1
            return tree.Unary(tok.lexeme, operand, self.join(tok.span, operand.span))
        return self.parse_postfix()

    def parse_postfix(self) -> tree.Expr:
        expr = self.parse_primary()
        while self.at_punct("."):
            self.advance()
            name_tok = self.expect_identifier("member name")
            height = self.height
            if self.at_punct("("):
                args, end_span = self.parse_args()
                self.height = max(height, self.height) + 1
                expr = tree.Call(
                    expr, name_tok.lexeme, args,
                    self.join(expr.span, end_span), name_tok.span,
                )
            else:
                self.height = height + 1
                expr = tree.FieldAccess(
                    expr, name_tok.lexeme,
                    self.join(expr.span, name_tok.span), name_tok.span,
                )
        return expr

    def parse_args(self) -> tuple[list[tree.Expr], Span]:
        """The arguments and the closing span; sets `height` to the deepest argument's."""
        self.expect_punct("(")
        args: list[tree.Expr] = []
        height = 0
        if not self.at_punct(")"):
            while True:
                args.append(self.parse_expr())
                height = max(height, self.height)
                if self.at_punct(","):
                    self.advance()
                    continue
                break
        end = self.expect_punct(")")
        self.height = height
        return args, end.span

    def parse_primary(self) -> tree.Expr:
        tok = self.peek()
        self.height = 1
        if tok.kind == LITERAL:
            self.advance()
            return tree.Literal(_literal_kind(tok.lexeme), tok.lexeme, tok.span)
        if tok.kind == IDENTIFIER:
            self.advance()
            if self.at_punct("("):
                args, end_span = self.parse_args()
                self.height += 1
                return tree.Call(None, tok.lexeme, args, self.join(tok.span, end_span), tok.span)
            return tree.Name(tok.lexeme, tok.span)
        if tok.kind == KEYWORD:
            if tok.lexeme == "this":
                self.advance()
                return tree.This(tok.span)
            if tok.lexeme == "super":
                self.advance()
                if not self.at_punct("."):
                    raise self.error("expected '.' after 'super'", expected={"."})
                return tree.Super(tok.span)
            if tok.lexeme == "new":
                self.advance()
                type_tok = self.expect_identifier("class name after 'new'")
                if self.at_punct("["):
                    raise self.unsupported("array creation")
                args, end_span = self.parse_args()
                self.height += 1
                return tree.New(type_tok.lexeme, args, self.join(tok.span, end_span))
            if tok.lexeme in UNSUPPORTED_STMT_KEYWORDS or tok.lexeme == "instanceof":
                raise self.unsupported(f"'{tok.lexeme}' expressions")
        if self.at_punct("("):
            start = self.advance().span
            inner = self.parse_expr()
            end = self.expect_punct(")")
            self.height += 1
            return tree.Paren(inner, self.join(start, end.span))
        raise self.error("expected expression", expected={"expression"})


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


def _stmt_span(stmt: tree.Stmt) -> Span:
    return stmt.span
