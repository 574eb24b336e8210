"""Seeded random class generators for property suites.

`random_class_source` builds a superclass-free class for identity and
idempotence checks; `random_measured_class` additionally returns the exact
per-method attribute-use sets its bodies were generated from, so cohesion
values can be checked against bookkeeping that never touched the resolver.
`random_hierarchy_sources` builds short chains with overrides, super
references and private reach, optionally with names of the `name$Owner`
shape that renames make, and `random_overloading_hierarchy` forests
whose static, final and private methods share a few names.
"""

from __future__ import annotations

import random

_VIS = ("public ", "", "private ", "protected ")


def random_class_source(rng: random.Random, name: str) -> str:
    n_fields = rng.randint(0, 8)
    n_methods = rng.randint(0, 8)
    lines = [f"class {name} {{"]
    int_fields = []
    bool_fields = []
    for i in range(n_fields):
        if rng.random() < 0.7:
            field = f"f{i}"
            int_fields.append(field)
            init = f" = {rng.randint(0, 9)}" if rng.random() < 0.4 else ""
            lines.append(f"    {rng.choice(_VIS)}int {field}{init};")
        else:
            field = f"b{i}"
            bool_fields.append(field)
            lines.append(f"    {rng.choice(_VIS)}boolean {field};")
    local = 0
    for i in range(n_methods):
        lines.append(f"    {rng.choice(_VIS)}void m{i}() {{")
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if int_fields and roll < 0.35:
                lines.append(f"        {rng.choice(int_fields)} = {rng.randint(0, 9)};")
            elif int_fields and roll < 0.55:
                local += 1
                lines.append(f"        int t{local} = {rng.choice(int_fields)} + 1;")
            elif bool_fields and roll < 0.7:
                target = rng.choice(int_fields) if int_fields else None
                body = f"{target} = 0;" if target else "return;"
                lines.append(f"        if ({rng.choice(bool_fields)})")
                lines.append(f"            {body}")
            elif int_fields and roll < 0.85:
                # Local that shadows a field; the write below hits the local.
                shadow = rng.choice(int_fields)
                lines.append(f"        int {shadow} = 1;")
                lines.append(f"        {shadow} = 2;")
            elif i > 0:
                lines.append(f"        m{rng.randrange(i)}();")
            else:
                lines.append("        return;")
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_hierarchy_sources(
    rng: random.Random, depth: int | None = None, owner_names: bool = False
) -> list[str]:
    """A 2-3 level chain exercising overrides, super refs, and private reach.

    All methods are no-arg so calls never hit overload ranking; super
    references target visible members only, keeping every generated program
    resolvable. With `owner_names`, about half the declared names take the
    shape a rename gives, `name$Owner`: a name some class of the chain may
    declare and that class, so a rename may meet a member that already has
    its name.
    """
    depth = depth or rng.choice((2, 3))
    names = ["H0", "H1", "H2"][:depth]

    def declared(prefix: str, level: int, i: int, taken: list[tuple[str, str]]) -> str:
        if owner_names and rng.random() < 0.5:
            owner = rng.randrange(depth)
            name = f"{prefix}{owner}_{rng.randrange(4)}${names[owner]}"
            if name not in {n for n, _ in taken}:
                return name
        return f"{prefix}{level}_{i}"

    sources = []
    class_fields: list[list[tuple[str, str]]] = []  # (name, visibility)
    class_methods: list[list[tuple[str, str]]] = []
    for level, name in enumerate(names):
        lines = [f"class {name}" + (f" extends {names[level - 1]}" if level else "") + " {"]
        fields: list[tuple[str, str]] = []
        methods: list[tuple[str, str]] = []
        for i in range(rng.randint(0, 4)):
            vis = rng.choice(_VIS)
            field = declared("a", level, i, fields)
            fields.append((field, vis))
            lines.append(f"    {vis}int {field};")
        if level:
            # Override a random subset of the parent's members by name/signature.
            for parent_field, vis in class_fields[level - 1]:
                if rng.random() < 0.3 and parent_field not in {f for f, _ in fields}:
                    fields.append((parent_field, vis))
                    lines.append(f"    {vis}int {parent_field};")
            for parent_method, vis in class_methods[level - 1]:
                if rng.random() < 0.3 and parent_method not in {m for m, _ in methods}:
                    methods.append((parent_method, vis))
                    lines.append(f"    {vis}void {parent_method}() {{")
                    lines.append("    }")
        for i in range(rng.randint(0, 4)):
            vis = rng.choice(_VIS)
            method = declared("m", level, i, methods)
            methods.append((method, vis))
            lines.append(f"    {vis}void {method}() {{")
            own_fields = [f for f, _ in fields]
            own_methods = [m for m, _ in methods if m != method]
            visible_parent_fields = []
            visible_parent_methods = []
            if level:
                visible_parent_fields = [
                    f for f, v in class_fields[level - 1]
                    if v != "private " and f not in {x for x, _ in fields}
                ]
                visible_parent_methods = [
                    m for m, v in class_methods[level - 1]
                    if v != "private " and m not in {x for x, _ in methods}
                ]
                super_fields = [f for f, v in class_fields[level - 1] if v != "private "]
                super_methods = [m for m, v in class_methods[level - 1] if v != "private "]
            for _ in range(rng.randint(0, 3)):
                roll = rng.random()
                if own_fields and roll < 0.3:
                    lines.append(f"        {rng.choice(own_fields)} = 1;")
                elif own_methods and roll < 0.45:
                    lines.append(f"        {rng.choice(own_methods)}();")
                elif level and super_fields and roll < 0.6:
                    lines.append(f"        super.{rng.choice(super_fields)} = 2;")
                elif level and super_methods and roll < 0.75:
                    lines.append(f"        super.{rng.choice(super_methods)}();")
                elif visible_parent_fields and roll < 0.85:
                    lines.append(f"        {rng.choice(visible_parent_fields)} = 3;")
                elif visible_parent_methods:
                    lines.append(f"        {rng.choice(visible_parent_methods)}();")
                else:
                    lines.append("        return;")
            lines.append("    }")
        lines.append("}")
        sources.append("\n".join(lines) + "\n")
        class_fields.append(fields)
        class_methods.append(methods)
    return sources


def random_overloading_hierarchy(rng: random.Random) -> list[str]:
    """Classes in a random forest whose methods share a few names."""
    sources = []
    for i in range(rng.randint(2, 6)):
        parent = f" extends K{rng.randrange(i)}" if i and rng.random() < 0.8 else ""
        lines = [f"class K{i}{parent} {{"]
        for field in rng.sample(["a", "b", "c"], rng.randint(0, 3)):
            lines.append(f"    {'static ' if rng.random() < 0.3 else ''}int {field};")
        signatures = set()
        for _ in range(rng.randint(0, 7)):
            name = rng.choice(["m", "n", "k"])
            params = tuple(rng.choice(["int", "long", "String"]) for _ in range(rng.randint(0, 2)))
            if (name, params) in signatures:
                continue
            signatures.add((name, params))
            modifiers = rng.choice(["", "static ", "final ", "private "])
            args = ", ".join(f"{t} p{j}" for j, t in enumerate(params))
            lines.append(f"    {modifiers}void {name}({args}) {{\n    }}")
        lines.append("}")
        sources.append("\n".join(lines) + "\n")
    return sources


def random_measured_class(
    rng: random.Random, name: str, max_methods: int = 8, max_fields: int = 8
) -> tuple[str, list[set[str]]]:
    """Class source plus the exact attribute-use set of each method."""
    n_fields = rng.randint(0, max_fields)
    n_methods = rng.randint(0, max_methods)
    fields = [f"f{i}" for i in range(n_fields)]
    lines = [f"class {name} {{"]
    for field in fields:
        lines.append(f"    {rng.choice(_VIS)}int {field};")
    use_sets: list[set[str]] = []
    for i in range(n_methods):
        used = set(rng.sample(fields, rng.randint(0, len(fields)))) if fields else set()
        use_sets.append(used)
        lines.append(f"    {rng.choice(_VIS)}void m{i}() {{")
        for field in sorted(used):
            lines.append(f"        {field} = {field} + 1;")
        if i > 0 and rng.random() < 0.5:
            # Calls must not leak into attribute sharing; LCOM is direct-only.
            lines.append(f"        m{rng.randrange(i)}();")
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n", use_sets
