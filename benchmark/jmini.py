"""A tiny model of the Java subset the benchmark generates.

One tree shape serves both sides of the output check. The generator builds
it, renders it as canonical source and evaluates it with the bindings it
chose. The checker parses flatjava's emitted text back into the same shape
and evaluates it with only the names the flattened class declares. Nothing
here imports flatjava, so a fault in flatjava's lexer, parser or resolver
cannot hide itself.

Expressions are tuples:
  ("int", value)
  ("name", ident, ref)          bare name: a local, a parameter or a field
  ("field", recv, ident, ref)   recv is "this" or "super"
  ("call", recv, ident, args, ref)   recv is "", "this" or "super"
  ("binary", op, left, right)
  ("paren", inner)
Statements are tuples:
  ("local", ident, expr)   ("assign", local_ident, expr)   ("return", expr)
  ("if", cond, then_stmts, else_stmts_or_None)   ("while", cond, body_stmts)
`ref` is the generator's own binding of a field or method, as
(owner class, member name); parsed text carries None.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# Arguments passed to the i-th parameter when a method is evaluated on its own.
ARGS = (7, -3, 11, 5)


def wrap32(value: int) -> int:
    """Java int overflow: keep the low 32 bits, signed."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


@dataclass
class FieldSpec:
    visibility: str
    name: str
    init: tuple  # expression


@dataclass
class MethodSpec:
    visibility: str
    name: str
    params: list[str]
    body: list[tuple]


@dataclass
class ClassSpec:
    name: str
    superclass: str | None
    fields: list[FieldSpec] = field(default_factory=list)
    methods: list[MethodSpec] = field(default_factory=list)
    visibility: str = "public"


# --- rendering: the canonical layout of flatjava's emitter -------------------

_PREC = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4,
         "+": 5, "-": 5, "*": 6}


def binary(op: str, left: tuple, right: tuple) -> tuple:
    """A binary node whose rendering parses back to the same tree."""
    prec = _PREC[op]
    if left[0] == "binary" and _PREC[left[1]] < prec:
        left = ("paren", left)
    if right[0] == "binary" and _PREC[right[1]] <= prec:
        right = ("paren", right)
    return ("binary", op, left, right)


def render_expr(e: tuple) -> str:
    kind = e[0]
    if kind == "int":
        return str(e[1])
    if kind == "name":
        return e[1]
    if kind == "field":
        return f"{e[1]}.{e[2]}"
    if kind == "call":
        args = ", ".join(render_expr(a) for a in e[3])
        return f"{e[1]}.{e[2]}({args})" if e[1] else f"{e[2]}({args})"
    if kind == "binary":
        return f"{render_expr(e[2])} {e[1]} {render_expr(e[3])}"
    if kind == "paren":
        return f"({render_expr(e[1])})"
    raise ValueError(f"unknown expression {kind}")


def _vis(visibility: str) -> str:
    return "" if visibility == "package" else visibility + " "


def _render_stmts(stmts: list[tuple], level: int, out: list[str]) -> None:
    pad = "    " * level
    for s in stmts:
        kind = s[0]
        if kind == "local":
            out.append(f"{pad}int {s[1]} = {render_expr(s[2])};")
        elif kind == "assign":
            out.append(f"{pad}{s[1]} = {render_expr(s[2])};")
        elif kind == "return":
            out.append(f"{pad}return {render_expr(s[1])};")
        elif kind == "while":
            out.append(f"{pad}while ({render_expr(s[1])}) {{")
            _render_stmts(s[2], level + 1, out)
            out.append(pad + "}")
        elif kind == "if":
            out.append(f"{pad}if ({render_expr(s[1])}) {{")
            _render_stmts(s[2], level + 1, out)
            if s[3] is not None:
                out.append(pad + "} else {")
                _render_stmts(s[3], level + 1, out)
            out.append(pad + "}")
        else:
            raise ValueError(f"unknown statement {kind}")


def render_class(cls: ClassSpec) -> str:
    head = f"{_vis(cls.visibility)}class {cls.name}"
    if cls.superclass:
        head += f" extends {cls.superclass}"
    out = [head + " {"]
    members: list[list[str]] = []
    for f in cls.fields:
        members.append([f"    {_vis(f.visibility)}int {f.name} = {render_expr(f.init)};"])
    for m in cls.methods:
        params = ", ".join(f"int {p}" for p in m.params)
        lines = [f"    {_vis(m.visibility)}int {m.name}({params}) {{"]
        _render_stmts(m.body, 2, lines)
        lines.append("    }")
        members.append(lines)
    for i, lines in enumerate(members):
        if i:
            out.append("")
        out.extend(lines)
    out.append("}")
    return "\n".join(out) + "\n"


# --- parsing emitted text ----------------------------------------------------


class JavaSyntaxError(Exception):
    pass


_TOKEN = re.compile(
    r"\s+|(?P<tok>[A-Za-z_$][A-Za-z0-9_$]*|\d+|&&|\|\||==|!=|<=|>=|[-+*<>=(){};,.])"
)
_VISIBILITIES = {"public", "private", "protected"}


def _tokens(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise JavaSyntaxError(f"unexpected character {text[pos]!r} at offset {pos}")
        if m.group("tok"):
            out.append(m.group("tok"))
        pos = m.end()
    out.append("")
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> str:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def take(self, expected: str | None = None) -> str:
        tok = self.toks[self.pos]
        if expected is not None and tok != expected:
            raise JavaSyntaxError(f"expected {expected!r}, found {tok!r}")
        if tok == "":
            raise JavaSyntaxError("unexpected end of input")
        self.pos += 1
        return tok

    def ident(self) -> str:
        tok = self.take()
        if not re.fullmatch(r"[A-Za-z_$][A-Za-z0-9_$]*", tok):
            raise JavaSyntaxError(f"expected a name, found {tok!r}")
        return tok

    def parse_class(self) -> ClassSpec:
        visibility = self.take() if self.peek() in _VISIBILITIES else "package"
        self.take("class")
        cls = ClassSpec(self.ident(), None, visibility=visibility)
        if self.peek() == "extends":
            self.take()
            cls.superclass = self.ident()
        self.take("{")
        while self.peek() != "}":
            self.member(cls)
        self.take("}")
        if self.peek() != "":
            raise JavaSyntaxError("text after the class body")
        return cls

    def member(self, cls: ClassSpec) -> None:
        visibility = self.take() if self.peek() in _VISIBILITIES else "package"
        self.take("int")
        name = self.ident()
        if self.peek() == "(":
            self.take()
            params = []
            while self.peek() != ")":
                self.take("int")
                params.append(self.ident())
                if self.peek() == ",":
                    self.take()
            self.take(")")
            cls.methods.append(MethodSpec(visibility, name, params, self.block()))
        else:
            self.take("=")
            init = self.expr()
            self.take(";")
            cls.fields.append(FieldSpec(visibility, name, init))

    def block(self) -> list[tuple]:
        self.take("{")
        stmts = []
        while self.peek() != "}":
            stmts.append(self.stmt())
        self.take("}")
        return stmts

    def stmt(self) -> tuple:
        tok = self.peek()
        if tok == "if":
            self.take()
            self.take("(")
            cond = self.expr()
            self.take(")")
            then = self.block()
            other = None
            if self.peek() == "else":
                self.take()
                other = self.block()
            return ("if", cond, then, other)
        if tok == "while":
            self.take()
            self.take("(")
            cond = self.expr()
            self.take(")")
            return ("while", cond, self.block())
        if tok == "return":
            self.take()
            value = self.expr()
            self.take(";")
            return ("return", value)
        if tok == "int":
            self.take()
            name = self.ident()
            self.take("=")
            value = self.expr()
            self.take(";")
            return ("local", name, value)
        name = self.ident()
        self.take("=")
        value = self.expr()
        self.take(";")
        return ("assign", name, value)

    def expr(self, level: int = 1) -> tuple:
        if level > 6:
            return self.primary()
        left = self.expr(level + 1)
        while _PREC.get(self.peek()) == level:
            op = self.take()
            left = ("binary", op, left, self.expr(level + 1))
        return left

    def args(self) -> list[tuple]:
        self.take("(")
        args = []
        while self.peek() != ")":
            args.append(self.expr())
            if self.peek() == ",":
                self.take()
        self.take(")")
        return args

    def primary(self) -> tuple:
        tok = self.peek()
        if tok.isdigit():
            self.take()
            return ("int", int(tok))
        if tok == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return ("paren", inner)
        if tok in ("this", "super"):
            self.take()
            self.take(".")
            name = self.ident()
            if self.peek() == "(":
                return ("call", tok, name, self.args(), None)
            return ("field", tok, name, None)
        name = self.ident()
        if self.peek() == "(":
            return ("call", "", name, self.args(), None)
        return ("name", name, None)


def parse_class(text: str) -> ClassSpec:
    """Parse one class in the generated subset (the shape flatjava emits)."""
    return _Parser(text).parse_class()


# --- evaluation ----------------------------------------------------------------


class EvalError(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class Interpreter:
    """Evaluates method bodies; `binder` decides what fields and calls mean.

    A binder has `field(recv, ident, ref)` returning a value and
    `call(recv, ident, args, ref)` returning the callee's value.
    """

    def __init__(self, binder, step_limit: int = 200_000):
        self.binder = binder
        self.step_limit = step_limit
        self.steps = 0

    def run(self, method: MethodSpec, args: list[int]) -> int:
        if len(args) != len(method.params):
            raise EvalError(f"{method.name} takes {len(method.params)} argument(s)")
        scopes = [dict(zip(method.params, args))]
        try:
            self.stmts(method.body, scopes)
        except _Return as ret:
            return ret.value
        raise EvalError(f"{method.name} ends without a return")

    def stmts(self, stmts, scopes) -> None:
        scopes.append({})
        try:
            for s in stmts:
                self.stmt(s, scopes)
        finally:
            scopes.pop()

    def stmt(self, s, scopes) -> None:
        self.steps += 1
        if self.steps > self.step_limit:
            raise EvalError("step limit exceeded")
        kind = s[0]
        if kind == "local":
            scopes[-1][s[1]] = self.expr(s[2], scopes)
        elif kind == "assign":
            value = self.expr(s[2], scopes)
            for frame in reversed(scopes):
                if s[1] in frame:
                    frame[s[1]] = value
                    return
            raise EvalError(f"assignment to {s[1]!r}, which is not a local")
        elif kind == "return":
            raise _Return(self.expr(s[1], scopes))
        elif kind == "if":
            if self.truth(s[1], scopes):
                self.stmts(s[2], scopes)
            elif s[3] is not None:
                self.stmts(s[3], scopes)
        elif kind == "while":
            while self.truth(s[1], scopes):
                self.stmts(s[2], scopes)
                self.steps += 1
                if self.steps > self.step_limit:
                    raise EvalError("step limit exceeded")
        else:
            raise EvalError(f"unknown statement {kind}")

    def truth(self, e, scopes) -> bool:
        value = self.expr(e, scopes)
        if not isinstance(value, bool):
            raise EvalError("condition is not boolean")
        return value

    def expr(self, e, scopes):
        kind = e[0]
        if kind == "int":
            return e[1]
        if kind == "name":
            for frame in reversed(scopes):
                if e[1] in frame:
                    return frame[e[1]]
            return self.binder.field("", e[1], e[2])
        if kind == "field":
            return self.binder.field(e[1], e[2], e[3])
        if kind == "call":
            args = [self.expr(a, scopes) for a in e[3]]
            return self.binder.call(e[1], e[2], args, e[4])
        if kind == "paren":
            return self.expr(e[1], scopes)
        if kind == "binary":
            op = e[1]
            if op == "&&":
                return self.truth(e[2], scopes) and self.truth(e[3], scopes)
            if op == "||":
                return self.truth(e[2], scopes) or self.truth(e[3], scopes)
            a = self.expr(e[2], scopes)
            b = self.expr(e[3], scopes)
            return _arith(op, a, b)
        raise EvalError(f"unknown expression {kind}")


def _arith(op: str, a, b):
    if op == "+":
        return wrap32(a + b)
    if op == "-":
        return wrap32(a - b)
    if op == "*":
        return wrap32(a * b)
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise EvalError(f"unknown operator {op}")


class ClassBinder:
    """Binds names the way a class with no superclass sees them: its own only."""

    def __init__(self, cls: ClassSpec):
        self.cls = cls
        self.fields = {f.name: f for f in cls.fields}
        self.methods = {}
        for m in cls.methods:
            self.methods.setdefault((m.name, len(m.params)), m)
        self.values: dict[str, int] = {}
        self.interp = Interpreter(self)

    def field(self, recv, ident, ref):
        if recv not in ("", "this"):
            raise EvalError(f"'{recv}.{ident}' in a class with no superclass")
        if ident not in self.fields:
            raise EvalError(f"{self.cls.name} declares no field {ident!r}")
        if ident not in self.values:
            self.values[ident] = self.interp.expr(self.fields[ident].init, [{}])
        return self.values[ident]

    def call(self, recv, ident, args, ref):
        if recv not in ("", "this"):
            raise EvalError(f"'{recv}.{ident}()' in a class with no superclass")
        method = self.methods.get((ident, len(args)))
        if method is None:
            raise EvalError(f"{self.cls.name} declares no method {ident}/{len(args)}")
        return self.interp.run(method, args)

    def method_values(self) -> list[int]:
        return [self.interp.run(m, list(ARGS[: len(m.params)])) for m in self.cls.methods]


def use_sets(cls: ClassSpec) -> list[set[str]]:
    """Per method, the class's own fields its body names directly.

    A bare name counts unless a parameter or local in scope shadows it;
    `this.x` always counts. Calls do not.
    """
    own = {f.name for f in cls.fields}
    result = []
    for m in cls.methods:
        used: set[str] = set()
        _collect_stmts(m.body, [set(m.params)], own, used)
        result.append(used)
    return result


def _collect_stmts(stmts, scopes, own, used) -> None:
    scopes.append(set())
    for s in stmts:
        kind = s[0]
        if kind == "local":
            _collect_expr(s[2], scopes, own, used)
            scopes[-1].add(s[1])
        elif kind == "assign":  # locals only, so only the value can use a field
            _collect_expr(s[2], scopes, own, used)
        elif kind == "return":
            _collect_expr(s[1], scopes, own, used)
        elif kind == "if":
            _collect_expr(s[1], scopes, own, used)
            _collect_stmts(s[2], scopes, own, used)
            if s[3] is not None:
                _collect_stmts(s[3], scopes, own, used)
        elif kind == "while":
            _collect_expr(s[1], scopes, own, used)
            _collect_stmts(s[2], scopes, own, used)
    scopes.pop()


def _collect_expr(e, scopes, own, used) -> None:
    kind = e[0]
    if kind == "name":
        if e[1] in own and not any(e[1] in f for f in scopes):
            used.add(e[1])
    elif kind == "field":
        if e[1] == "this" and e[2] in own:
            used.add(e[2])
    elif kind == "call":
        for a in e[3]:
            _collect_expr(a, scopes, own, used)
    elif kind == "binary":
        _collect_expr(e[2], scopes, own, used)
        _collect_expr(e[3], scopes, own, used)
    elif kind == "paren":
        _collect_expr(e[1], scopes, own, used)


def lcom(sets: list[set[str]]) -> tuple[int, int]:
    """(LCOM1, LCOM2) by brute force over every method pair."""
    p = q = 0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                q += 1
            else:
                p += 1
    return p, max(p - q, 0)


def sloc(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())
