"""Checks flatjava's outputs against the generator's bookkeeping.

Each flattened class is one checked operation. Its `.flat.java` text is
parsed and evaluated by `jmini`, never by flatjava: every method must
evaluate using only names the class declares, and the multiset of method
values must equal the one the generator computed for the class and all its
ancestors in the original hierarchy. Member counts and names, SLOC and LCOM
(brute force over use sets read from the text) must match the emitted text,
the generator and the `compare` report; the plan must pull down every member
of the flattened superclass. Problems outside any one class (a missing file,
a wrong original-view metric) make the whole round incorrect.
"""

from __future__ import annotations

from jmini import ClassBinder, EvalError, JavaSyntaxError, lcom, parse_class, sloc, use_sets

PULLS = ("PullDown", "PullDownRenamed")
_METRICS = ("noa", "nom", "sloc", "lcom1", "lcom2", "cbo")


def check_class(name: str, text: str, exp, flat_row: dict, plan_entry: dict | None) -> list[str]:
    """Problems with one flattened class; empty when it is right."""
    problems = []
    try:
        cls = parse_class(text)
    except JavaSyntaxError as err:
        return [f"{name}: emitted text does not parse: {err}"]
    if cls.name != name or cls.superclass is not None:
        problems.append(f"{name}: header names {cls.name} extends {cls.superclass}")
    field_names = sorted(f.name for f in cls.fields)
    method_names = sorted(m.name for m in cls.methods)
    if field_names != exp.flat_field_names:
        problems.append(f"{name}: fields differ from the pulled set")
    if method_names != exp.flat_method_names:
        problems.append(f"{name}: methods differ from the pulled set")
    try:
        values = sorted(ClassBinder(cls).method_values())
    except EvalError as err:
        problems.append(f"{name}: evaluation failed: {err}")
    else:
        if values != exp.flat_values:
            wrong = len(set(values) ^ set(exp.flat_values))
            problems.append(f"{name}: method values differ from the original ({wrong} distinct)")
    lcom1, lcom2 = lcom(use_sets(cls))
    seen = {
        "noa": len(cls.fields), "nom": len(cls.methods), "sloc": sloc(text),
        "lcom1": lcom1, "lcom2": lcom2, "cbo": 0,
    }
    want = (len(exp.flat_field_names), len(exp.flat_method_names))
    if (seen["noa"], seen["nom"]) != want:
        problems.append(f"{name}: NOA/NOM {seen['noa']}/{seen['nom']}, generator counts "
                        f"{want[0]}/{want[1]}")
    for key in _METRICS:
        if flat_row.get(key) != seen[key]:
            problems.append(f"{name}: compare reports flattened {key}={flat_row.get(key)}, "
                            f"the text gives {seen[key]}")
    if plan_entry is None:
        problems.append(f"{name}: missing from the plan")
    else:
        fates = plan_entry["fates"]
        if len(fates) != exp.fates or any(f["decision"] not in PULLS for f in fates):
            problems.append(f"{name}: plan does not pull down all {exp.fates} inherited members")
    return problems


def check_outputs(expected: dict, out_dir, compare_doc: dict, metrics_doc: dict, plan_doc: dict):
    """(per-class problems, problems of the round as a whole)."""
    global_problems = []
    emitted = {p.name[: -len(".flat.java")] for p in out_dir.glob("*.flat.java")}
    if emitted != set(expected):
        global_problems.append(f"emitted classes {sorted(emitted ^ set(expected))} differ")
    rows = {r["name"]: r for r in compare_doc.get("classes", [])}
    originals = {r["name"]: r for r in metrics_doc.get("classes", [])}
    plan = {c["name"]: c for c in plan_doc.get("classes", [])}
    if set(rows) != set(expected) or set(originals) != set(expected):
        global_problems.append("compare or metrics report a different set of classes")
    for name, exp in expected.items():
        want = dict(exp.original, name=name, view="original")
        if originals.get(name) != want:
            global_problems.append(f"{name}: metrics --view original gives {originals.get(name)}, "
                                   f"expected {want}")
        if name in rows and rows[name]["original"] != want:
            global_problems.append(f"{name}: compare's original view differs from {want}")
    per_class = {}
    for name, exp in expected.items():
        path = out_dir / f"{name}.flat.java"
        if not path.exists():
            per_class[name] = [f"{name}: no emitted file"]
            continue
        flat_row = rows.get(name, {}).get("flattened", {})
        per_class[name] = check_class(
            name, path.read_text(encoding="utf-8"), exp, flat_row, plan.get(name)
        )
    return per_class, global_problems
