"""Seeded workload generators with their own bookkeeping.

Every generator returns a `Workload`: the classes as `jmini` trees (each
field and method reference carries the member Java binds it to in the
original hierarchy), the canonical source text of each class, and the
expectations the checker compares flatjava's outputs against. Nothing here
asks flatjava for an answer.

Every generated member is reachable, so flattening pulls every inherited
member down: a flattened class holds exactly the fields and methods of the
class and all its ancestors, and a member declared in class A is renamed
`name$A` once some class between A and the flattened class redeclares its
name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from jmini import (
    ARGS,
    ClassSpec,
    FieldSpec,
    Interpreter,
    MethodSpec,
    binary,
    lcom,
    render_class,
    sloc,
)

WORKLOADS = ("deep_chain", "wide_fan", "fat_classes")

# deep_chain does not read --seed: the offset-collision fault it counts
# depends on the byte layout of the files, so its inputs must not vary.
DEEP_CHAIN_LAYOUT_SEED = 20140513


@dataclass
class Workload:
    name: str
    classes: list[ClassSpec]  # superclasses before subclasses
    sources: dict[str, str] = field(default_factory=dict)  # file name -> text

    def __post_init__(self):
        self.by_name = {c.name: c for c in self.classes}
        for c in self.classes:
            self.sources[f"{c.name}.java"] = render_class(c)

    def chain(self, name: str) -> list[ClassSpec]:
        """The class and its ancestors, the class first."""
        out = []
        current: str | None = name
        while current is not None:
            cls = self.by_name[current]
            out.append(cls)
            current = cls.superclass
        return out

    def write(self, directory) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for file_name, text in self.sources.items():
            (directory / file_name).write_text(text, encoding="utf-8")


# --- expectations -------------------------------------------------------------


class OriginalBinder:
    """Evaluates with the bindings the generator recorded on each reference."""

    def __init__(self, workload: Workload):
        self.fields = {}
        self.methods = {}
        for cls in workload.classes:
            for f in cls.fields:
                self.fields[(cls.name, f.name)] = f.init[1]
            for m in cls.methods:
                self.methods[(cls.name, m.name)] = m
        self.interp = Interpreter(self)

    def field(self, recv, ident, ref):
        return self.fields[ref]

    def call(self, recv, ident, args, ref):
        return self.interp.run(self.methods[ref], args)


@dataclass
class Expected:
    """What the checker compares one class's outputs against."""

    original: dict  # noa, nom, sloc, lcom1, lcom2, cbo of the class as written
    flat_field_names: list[str]  # sorted; their count is the flattened NOA
    flat_method_names: list[str]  # sorted; their count is the flattened NOM
    flat_values: list[int]  # sorted method values of the class and its ancestors
    fates: int  # members of the flattened superclass, each pulled down


def expectations(w: Workload) -> dict[str, Expected]:
    binder = OriginalBinder(w)
    value_of = {}
    for cls in w.classes:
        for m in cls.methods:
            value_of[(cls.name, m.name)] = binder.interp.run(m, list(ARGS[: len(m.params)]))
    out = {}
    for cls in w.classes:
        chain = w.chain(cls.name)
        lcom1, lcom2 = lcom([_own_uses(cls, m) for m in cls.methods])
        original = {
            "noa": len(cls.fields), "nom": len(cls.methods),
            "sloc": sloc(w.sources[f"{cls.name}.java"]),
            "lcom1": lcom1, "lcom2": lcom2, "cbo": 0,
        }
        field_names = []
        method_names = []
        for depth, owner in enumerate(chain):
            below = chain[:depth]  # classes between the owner and `cls`
            for f in owner.fields:
                hidden = any(f.name in {g.name for g in c.fields} for c in below)
                field_names.append(f"{f.name}${owner.name}" if hidden else f.name)
            for m in owner.methods:
                hidden = any(
                    (m.name, len(m.params)) in {(n.name, len(n.params)) for n in c.methods}
                    for c in below
                )
                method_names.append(f"{m.name}${owner.name}" if hidden else m.name)
        values = sorted(value_of[(c.name, m.name)] for c in chain for m in c.methods)
        parent = chain[1:]
        out[cls.name] = Expected(
            original,
            flat_field_names=sorted(field_names),
            flat_method_names=sorted(method_names),
            flat_values=values,
            fates=sum(len(c.fields) + len(c.methods) for c in parent),
        )
    return out


def _own_uses(cls: ClassSpec, method: MethodSpec) -> set[str]:
    """Fields of `cls` itself that the body reads, from the recorded bindings."""
    used: set[str] = set()

    def visit(node):
        if isinstance(node, tuple):
            if node and node[0] in ("name", "field"):
                ref = node[-1]
                if ref is not None and ref[0] == cls.name:
                    used.add(ref[1])
            for child in node:
                visit(child)
        elif isinstance(node, list):
            for child in node:
                visit(child)

    visit(method.body)
    return used


# --- generators -----------------------------------------------------------------


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The named workload; `scale` shrinks its growth axis (depth, fan, members)."""
    if name == "deep_chain":
        return deep_chain(depth=max(2, round(40 * scale)))
    if name == "wide_fan":
        return wide_fan(seed, hierarchies=max(1, round(4 * scale)))
    if name == "fat_classes":
        return fat_classes(seed, fields=max(2, round(200 * scale)),
                           methods=max(2, round(600 * scale)))
    raise ValueError(f"unknown workload {name!r}")


def deep_chain(depth: int = 40, k: int = 2) -> Workload:
    """A chain C00 <- C01 <- ... of classes that all have one shape.

    Each class declares an overridden public field `v` read by `get()`,
    private fields q0..q{k-1}, public fields p0..p{k-1} (each overriding the
    parent's), and methods mII_j() = qj + pj + super.pj. Names and literals
    have fixed widths, so every class below C01 lines up byte for byte with
    its parent.
    """
    rng = random.Random(DEEP_CHAIN_LAYOUT_SEED)
    values = iter(rng.sample(range(100000, 1000000), depth * (1 + 2 * k)))
    classes = []
    for i in range(depth):
        name = f"C{i:02d}"
        parent = f"C{i - 1:02d}" if i else None
        cls = ClassSpec(name, parent)
        cls.fields.append(FieldSpec("public", "v", ("int", next(values))))
        cls.fields += [FieldSpec("private", f"q{j}", ("int", next(values))) for j in range(k)]
        cls.fields += [FieldSpec("public", f"p{j}", ("int", next(values))) for j in range(k)]
        cls.methods.append(MethodSpec("public", "get", [], [("return", ("name", "v", (name, "v")))]))
        for j in range(k):
            value = binary("+", ("name", f"q{j}", (name, f"q{j}")), ("name", f"p{j}", (name, f"p{j}")))
            if parent:
                value = binary("+", value, ("field", "super", f"p{j}", (parent, f"p{j}")))
            cls.methods.append(MethodSpec("public", f"m{i:02d}_{j}", [], [("return", value)]))
        classes.append(cls)
    return Workload("deep_chain", classes)


class _BodyGen:
    """Statement-heavy bodies over locals, parameters and fields.

    The shape of every body is fixed (statement kinds, nesting, expression
    sizes); the seed picks only operands, operators and literals, so the
    work a body costs flatjava hardly varies from seed to seed.
    """

    def __init__(self, rng: random.Random, params, fields, calls):
        self.rng = rng
        self.params = params
        self.fields = fields  # expression nodes that read a field
        self.calls = calls  # (recv, name, arity, ref)
        self.locals: list[str] = []
        self.counter = 0

    def atom(self):
        rng = self.rng
        roll = rng.random()
        if roll < 0.4:
            return ("name", rng.choice(self.params + self.locals), None)
        if roll < 0.85:
            return rng.choice(self.fields)
        return ("int", rng.randint(1, 9))

    def expr(self, depth: int = 2):
        """A full binary tree with 2**depth operands."""
        if depth == 0:
            return self.atom()
        left, right = self.expr(depth - 1), self.expr(depth - 1)
        if depth > 1:
            left, right = ("paren", left), ("paren", right)
        return binary(self.rng.choice("++-*"), left, right)

    def cond(self):
        rng = self.rng
        c = binary(rng.choice(["<", ">", "<=", ">=", "==", "!="]), self.expr(1), self.expr(1))
        other = binary(rng.choice(["<", ">", "!="]), self.atom(), self.atom())
        return binary(rng.choice(["&&", "||"]), ("paren", c), ("paren", other))

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def assign(self):
        return ("assign", self.rng.choice(self.locals), self.expr())

    def call_expr(self):
        recv, name, arity, ref = self.rng.choice(self.calls)
        return ("call", recv, name, [self.expr(1) for _ in range(arity)], ref)

    def body(self, blocks: int) -> list[tuple]:
        """Three locals, then `blocks` blocks alternating if/else and while."""
        rng = self.rng
        stmts = []
        for i in range(3):
            name = self.fresh("t")
            value = self.expr()
            if i == 2 and self.calls:
                value = binary("+", self.call_expr(), ("paren", self.expr(1)))
            stmts.append(("local", name, value))
            self.locals.append(name)
        for b in range(blocks):
            if b % 2 == 0:
                inner = [self.assign(), self.assign()]
                inner.append(("if", self.cond(), [self.assign()], [self.assign(), self.assign()]))
                stmts.append(("if", self.cond(), inner, [self.assign()]))
            else:
                counter = self.fresh("i")
                stmts.append(("local", counter, ("int", 0)))
                loop = [self.assign(), self.assign()]
                loop.append(("assign", counter, binary("+", ("name", counter, None), ("int", 1))))
                bound = ("int", rng.randint(2, 4))
                stmts.append(("while", binary("<", ("name", counter, None), bound), loop))
        result = ("name", self.locals[0], None)
        for name in self.locals[1:]:
            result = binary(rng.choice("+-"), result, ("name", name, None))
        stmts.append(("return", result))
        return stmts


def _literals(rng: random.Random, count: int):
    return iter(rng.sample(range(1000, 1_000_000), count))


def wide_fan(seed: int, hierarchies: int = 4, subclasses: int = 2, blocks: int = 2) -> Workload:
    """Independent depth-1 hierarchies with statement-heavy bodies.

    Root R_h: public a0..a3, private b0..b2, a private helper hlp(x) and
    public f0..f3. Each subclass S_h_s overrides a0 and f0, adds c0..c2 and
    g0..g2, reads inherited fields bare and through `super.`, and calls
    `super.f0`, the inherited f1..f3 and its own f0.
    """
    rng = random.Random(seed)
    per_root = 7 + subclasses * 4
    values = _literals(rng, hierarchies * per_root)
    classes = []
    for h in range(hierarchies):
        root = f"R{h:02d}"
        rcls = ClassSpec(root, None)
        rcls.fields += [FieldSpec("public", f"a{j}", ("int", next(values))) for j in range(4)]
        rcls.fields += [FieldSpec("private", f"b{j}", ("int", next(values))) for j in range(3)]
        rfields = [("name", f.name, (root, f.name)) for f in rcls.fields]
        rfields += [("field", "this", f.name, (root, f.name)) for f in rcls.fields[:2]]
        helper = _BodyGen(rng, ["x"], rfields, []).body(blocks)
        # Every f calls hlp, and hlp returns every private field, so each one
        # is accessed and pulled down whatever the seed.
        result = helper[-1][1]
        for f in rcls.fields[4:]:
            result = binary("+", result, ("name", f.name, (root, f.name)))
        helper[-1] = ("return", result)
        rcls.methods.append(MethodSpec("private", "hlp", ["x"], helper))
        for j in range(4):
            params = ["x", "y"][: 1 + j % 2]
            gen = _BodyGen(rng, params, rfields, [("", "hlp", 1, (root, "hlp"))])
            rcls.methods.append(MethodSpec("public", f"f{j}", params, gen.body(blocks)))
        classes.append(rcls)
        for s in range(subclasses):
            name = f"S{h:02d}_{s}"
            cls = ClassSpec(name, root)
            cls.fields.append(FieldSpec("public", "a0", ("int", next(values))))
            cls.fields += [
                FieldSpec("private" if j == 2 else "public", f"c{j}", ("int", next(values)))
                for j in range(3)
            ]
            own = [("name", f.name, (name, f.name)) for f in cls.fields]
            own.append(("field", "this", "c1", (name, "c1")))
            inherited = [("name", f"a{j}", (root, f"a{j}")) for j in range(1, 4)]
            inherited.append(("field", "super", "a0", (root, "a0")))
            fields = own + inherited
            up = [("super", "f0", 1, (root, "f0"))] + [
                ("", f"f{j}", 1 + j % 2, (root, f"f{j}")) for j in range(1, 4)
            ]
            gen = _BodyGen(rng, ["x"], fields, up)
            cls.methods.append(MethodSpec("public", "f0", ["x"], gen.body(blocks)))
            for j in range(3):
                calls = up + [("this", "f0", 1, (name, "f0"))]
                gen = _BodyGen(rng, ["x", "y"], fields, calls)
                cls.methods.append(MethodSpec("public", f"g{j}", ["x", "y"], gen.body(blocks)))
            classes.append(cls)
    return Workload("wide_fan", classes)


def fat_classes(
    seed: int, hierarchies: int = 1, subclasses: int = 1, fields: int = 200,
    methods: int = 600, reads: int = 5,
) -> Workload:
    """Depth-1 hierarchies whose classes declare hundreds of members.

    Root F_h: fields x0..x{fields-1} (every tenth private) and methods r_i
    that read x_(i mod fields) and `reads - 1` other fields. Each subclass
    G_h_s declares y0..y{fields-1}, overrides every twentieth x and r, and
    adds s_i reading y_(i mod fields), other own fields and one inherited
    field (bare, or through `super.` where it overrides it).
    """
    if methods < fields:
        raise ValueError("every field is read only if methods >= fields")
    rng = random.Random(seed)
    xs = range(fields)
    over_fields = list(range(0, fields, 20))
    over_methods = list(range(0, methods, 20))
    values = _literals(rng, hierarchies * (fields + subclasses * (fields + len(over_fields))))

    def chain_of(operands):
        body = operands[0]
        for operand in operands[1:]:
            body = binary(rng.choice("+-"), body, operand)
        return [("return", body)]

    def reads_of(i: int, count: int) -> list[int]:
        first = i % fields
        return [first] + rng.sample([j for j in xs if j != first], count - 1)

    classes = []
    for h in range(hierarchies):
        root = f"F{h:02d}"
        rcls = ClassSpec(root, None)
        rcls.fields = [
            FieldSpec("private" if i % 10 == 9 else "public", f"x{i}", ("int", next(values)))
            for i in xs
        ]
        for i in range(methods):
            body = chain_of([("name", f"x{j}", (root, f"x{j}")) for j in reads_of(i, reads)])
            rcls.methods.append(MethodSpec("public", f"r{i}", [], body))
        classes.append(rcls)
        visible = [i for i in xs if i % 10 != 9]
        for s in range(subclasses):
            name = f"G{h:02d}_{s}"
            cls = ClassSpec(name, root)
            cls.fields = [FieldSpec("public", f"y{i}", ("int", next(values))) for i in xs]
            cls.fields += [FieldSpec("public", f"x{i}", ("int", next(values))) for i in over_fields]
            inherited = []
            for i in visible:
                if i in over_fields:
                    inherited.append(("field", "super", f"x{i}", (root, f"x{i}")))
                else:
                    inherited.append(("name", f"x{i}", (root, f"x{i}")))
            for i in range(methods):
                operands = [("name", f"y{j}", (name, f"y{j}")) for j in reads_of(i, reads - 1)]
                body = chain_of(operands + [rng.choice(inherited)])
                cls.methods.append(MethodSpec("public", f"s{i}", [], body))
            for k, i in enumerate(over_methods):
                x = f"x{over_fields[k % len(over_fields)]}"
                body = binary("*", ("name", x, (name, x)), ("int", 2))
                cls.methods.append(MethodSpec("public", f"r{i}", [], [("return", body)]))
            classes.append(cls)
    return Workload("fat_classes", classes)
