"""Flattener tests: fate table, renaming, rewriting, goldens, laws."""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from flatjava import (
    build_model,
    classify_members,
    emit,
    flatten_model,
    parse_source,
    rename,
)
from flatjava.errors import ANOMALY_MEMBER, FORCED_RENAME, UNSUPPORTED_CTOR, DanglingSuperRef
from flatjava.flattener import DROP_ANOMALY, MemberFate, _Carrier, _own_move
from flatjava.model import ATTRIBUTE, METHOD
from flatjava.parser import MAX_NESTING
from flatjava.resolver import resolve_class

from conftest import (
    CORPUS,
    flatten_fixture,
    golden_path,
    load_model,
    model_from_sources,
)
from decision_oracle import expected_attribute_fate, expected_method_fate
from genclasses import random_class_source, random_hierarchy_sources
from hiergen import CONFIGS, build_sources, effective_overridden, target_key
from whole_view import Whole


# --- decision table ---------------------------------------------------------


def run_config(config):
    kind = config[0]
    super_src, sub_src = build_sources(*config)
    model = model_from_sources(super_src, sub_src)
    flattened = flatten_model(model)
    key = target_key(kind)
    for fate in Whole(flattened["Sub"]).fates:
        if fate.member.kind == ("attribute" if kind == "attribute" else "method"):
            if fate.member.signature == key:
                return fate
    raise AssertionError(f"no fate recorded for {key}")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "-".join(map(str, c)))
def test_decision_table_matches_oracle(config):
    kind, vis, overridden, accessed, static_cfg, final_cfg = config
    visible = vis != "private"
    ovr = effective_overridden(overridden, static_cfg, final_cfg)
    if kind == "attribute":
        expected = expected_attribute_fate(visible, ovr, accessed)
    else:
        expected = expected_method_fate(visible, ovr, accessed)
    fate = run_config(config)
    assert (fate.decision, fate.rule) == expected, config


def test_config_count_covers_full_grid():
    assert len(CONFIGS) == 128


# --- ordering ---------------------------------------------------------------


def test_flatten_order_chain():
    model = load_model("chain3")
    assert list(flatten_model(model)) == ["c3", "c2", "c1"]


def test_flatten_order_single():
    model = model_from_sources("class A {\n}\n")
    assert list(flatten_model(model)) == ["A"]


def test_flatten_order_siblings_lexicographic():
    model = model_from_sources(
        "class B extends A {\n}\n", "class C extends A {\n}\n", "class A {\n}\n"
    )
    assert list(flatten_model(model)) == ["A", "B", "C"]


# --- rename scheme ----------------------------------------------------------


def test_rename_base_scheme():
    assert rename("x", "A", set()) == "x$A"


def test_rename_collision_ladder():
    assert rename("x", "A", {"x$A"}) == "x$A$1"
    assert rename("x", "A", {"x$A", "x$A$1"}) == "x$A$2"


def test_rename_never_collides_with_taken():
    # Independent collision checker over generated name sets.
    rng = random.Random(7)
    pool = ["x", "x$A", "x$A$1", "y", "f$B", "x$A$2", "z$A"]
    for _ in range(200):
        taken = set(rng.sample(pool, rng.randint(0, len(pool))))
        result = rename("x", "A", taken)
        assert result not in taken
        assert result == "x$A" or result.startswith("x$A$")


@given(
    st.sets(
        st.text(alphabet="xA$123", min_size=1, max_size=8).map(lambda s: "x$A" + s),
        max_size=30,
    )
)
def test_rename_property(taken):
    taken = set(taken) | {"x$A"}
    result = rename("x", "A", taken)
    assert result not in taken
    assert result.startswith("x$A$")
    assert result == rename("x", "A", taken)  # deterministic


def test_rename_owner_is_original_declaring_class():
    # x reaches c1 through c2's flattened view, but the rename says c3.
    model = model_from_sources(
        "class c3 { public int x; }",
        "class c2 extends c3 {\n}\n",
        "class c1 extends c2 { public int x; }",
    )
    flattened = flatten_model(model)
    fate = fate_map(flattened["c1"])[(ATTRIBUTE, "x")]
    assert fate.new_name == "x$c3"
    assert fate.member.owner == "c3"


def test_method_rename_avoids_attribute_names():
    # A same-named attribute forces the ladder even though Java would allow it.
    model = model_from_sources(
        "class A { public void f() { } }",
        "class B extends A { int f$A; public void f() { } }",
    )
    flattened = flatten_model(model)
    (fate,) = [f for f in Whole(flattened["B"]).fates if f.member.kind == METHOD]
    assert fate.decision == "PullDownRenamed"
    assert fate.new_name == "f$A$1"


# --- golden files -----------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS)
def test_goldens_byte_equal(name):
    model, flattened = flatten_fixture(name)
    for class_name in model.order:
        golden = golden_path(name, class_name)
        assert golden.exists(), f"missing golden for {name}/{class_name}"
        assert emit(flattened[class_name]) == golden.read_text(encoding="utf-8"), (
            f"{name}/{class_name}"
        )


# --- identity and idempotence -----------------------------------------------


def test_identity_on_superclass_free_corpus_classes():
    for name in CORPUS:
        model, flattened = flatten_fixture(name)
        for class_name, info in model.classes.items():
            if info.superclass is None:
                assert emit(Whole(flattened[class_name]).decl) == emit(info.decl)


def _flatten_single_source(source):
    model = model_from_sources(source)
    (name,) = model.classes
    return model, flatten_model(model)[name]


@pytest.mark.parametrize("seed", range(10))
def test_identity_and_idempotence_random(seed):
    rng = random.Random(seed)
    source = random_class_source(rng, f"Gen{seed}")
    model, flat = _flatten_single_source(source)
    assert emit(flat) == emit(model.classes[f"Gen{seed}"].decl)
    # Re-flattening the emitted output is the identity again.
    model2, flat2 = _flatten_single_source(emit(flat))
    assert emit(flat2) == emit(flat)


def test_idempotence_of_flattened_fixture_outputs():
    for name in CORPUS:
        model, flattened = flatten_fixture(name)
        for class_name in model.order:
            emitted = emit(flattened[class_name])
            _, reflat = _flatten_single_source(emitted)
            assert emit(reflat) == emitted, f"{name}/{class_name}"


# --- plan details on fixtures -------------------------------------------------


def fate_map(flat):
    return {(f.member.kind, f.member.signature): f for f in Whole(flat).fates}


def test_ctor_inline_plan():
    _, flattened = flatten_fixture("ctor_inline")
    fates = fate_map(flattened["B"])
    assert fates[(ATTRIBUTE, "a")].decision == "PullDown"
    assert fates[(ATTRIBUTE, "a")].rule == "R1"
    assert fates[("ctor", "<init>()")].decision == "Drop"
    assert fates[("ctor", "<init>()")].rule == "CTOR"
    assert not flattened["B"].diagnostics


def test_ctor_unsupported_diagnostic():
    _, flattened = flatten_fixture("ctor_unsupported")
    codes = [d.code for d in flattened["B"].diagnostics]
    assert UNSUPPORTED_CTOR in codes
    fates = fate_map(flattened["B"])
    assert fates[(ATTRIBUTE, "a")].decision == "PullDown"
    # Field keeps no initializer: the constructor body was not inlinable.
    field = [m for m in Whole(flattened["B"]).members if m.name == "a"][0]
    assert field.decl.init is None


def test_ctor_only_parameterized_diagnostic():
    model = model_from_sources(
        "class A { int a; A(int v) { a = v; } }", "class B extends A {\n}\n"
    )
    flattened = flatten_model(model)
    assert any(d.code == UNSUPPORTED_CTOR for d in flattened["B"].diagnostics)


def test_ctor_inline_blocked_by_initializer_read():
    model = model_from_sources(
        "class A { int x = 1; int y = x; A() { x = 5; } }",
        "class B extends A {\n}\n",
    )
    flattened = flatten_model(model)
    assert any(d.code == UNSUPPORTED_CTOR for d in flattened["B"].diagnostics)
    field_x = [m for m in Whole(flattened["B"]).members if m.name == "x"][0]
    assert emit(flattened["B"]).count("int x = 1;") == 1
    assert field_x.decl.init.lexeme == "1"


def test_anomaly_diagnostics_reported():
    _, flattened = flatten_fixture("private_unused_attr")
    assert any(d.code == ANOMALY_MEMBER for d in flattened["B"].diagnostics)
    _, flattened = flatten_fixture("private_unused_method")
    anomalies = [d for d in flattened["B"].diagnostics if d.code == ANOMALY_MEMBER]
    assert len(anomalies) == 2  # both uncalled private methods


def test_forced_rename_diagnostics():
    _, flattened = flatten_fixture("static_mismatch_illegal")
    assert any(d.code == FORCED_RENAME for d in flattened["B"].diagnostics)
    fates = fate_map(flattened["B"])
    fate = fates[(ATTRIBUTE, "x")]
    assert fate.decision == "PullDown" and fate.rule == "R1"
    assert fate.new_name == "x$A"


def test_rewrite_directives_recorded():
    _, flattened = flatten_fixture("override_method_rename")
    rewrites = flattened["B"].rewrites
    assert any(r.old == "super.f" and r.new == "f$A" for r in rewrites)
    _, flattened = flatten_fixture("static_members")
    olds = {r.old for r in flattened["B"].rewrites}
    assert "A.count" in olds


def test_init_chain_promotion_pulls_helper():
    _, flattened = flatten_fixture("init_chain_promotion")
    fates = fate_map(flattened["B"])
    assert fates[(METHOD, "helper()")].decision == "PullDown"
    assert fates[(METHOD, "helper()")].rule == "R7"
    assert fates[(ATTRIBUTE, "z")].rule == "R2"


def test_overridden_attr_accessed_only_by_dropped_method_is_r4b():
    # The accessor is itself dropped (R8), so the attribute counts as
    # unaccessed: visible -> R4b, renamed because `super.x` stays legal.
    model = model_from_sources(
        "class A { public int x; private void w() { x = 1; } }",
        "class B extends A { int x; }",
    )
    flattened = flatten_model(model)
    fates = fate_map(flattened["B"])
    assert (fates[(ATTRIBUTE, "x")].decision, fates[(ATTRIBUTE, "x")].rule) == (
        "PullDownRenamed",
        "R4b",
    )
    assert (fates[(METHOD, "w()")].decision, fates[(METHOD, "w()")].rule) == (
        "DropAnomaly",
        "R8",
    )


def test_overridden_private_attr_accessed_only_by_dropped_method_is_r4c():
    model = model_from_sources(
        "class A { private int x; private void w() { x = 1; } }",
        "class B extends A { int x; }",
    )
    flattened = flatten_model(model)
    fates = fate_map(flattened["B"])
    assert fates[(ATTRIBUTE, "x")].rule == "R4c"


def test_super_ref_nested_in_call_args():
    model = model_from_sources(
        "class A { public int x; public int f(int v) { return v; } }",
        "class B extends A { public int x; int g() { return super.f(super.x); } }",
    )
    flattened = flatten_model(model)
    emitted = emit(flattened["B"])
    assert "return f(x$A);" in emitted


def test_this_call_renamed_in_pulled_body():
    # Static binding: the pulled body keeps calling the superclass version.
    model = model_from_sources(
        "class A { public void f() { } public void go() { this.f(); } }",
        "class B extends A { public void f() { } }",
    )
    flattened = flatten_model(model)
    emitted = emit(flattened["B"])
    assert "this.f$A();" in emitted


def _call_from_depth(depth: int, fn):
    """`fn()`, called with `depth` frames on the stack, counting this one."""
    frame, here = sys._getframe(), 0
    while frame is not None:
        frame, here = frame.f_back, here + 1
    return fn() if here >= depth else _call_from_depth(depth, fn)


def test_nested_renamed_calls_flatten_from_deep_in_the_stack():
    # B overrides f, so every call in the pulled initializer is renamed. The
    # rewrite spends at most 3 frames per level of nested arguments, so the
    # deepest initializer the parser accepts flattens under Python's default
    # recursion limit with 400 frames of callers.
    calls = MAX_NESTING - 1
    model = model_from_sources(
        f"class A {{ int f(int a) {{ return a; }} int x = {'f(' * calls}1{')' * calls}; }}",
        "class B extends A { int f(int a) { return a + 1; } }",
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        flattened = _call_from_depth(400, lambda: flatten_model(model))
    finally:
        sys.setrecursionlimit(limit)
    assert f"int x = {'f$A(' * calls}1{')' * calls};" in emit(flattened["B"])


def test_super_ref_in_subclass_constructor_rewritten():
    model = model_from_sources(
        "class A { public int x; }",
        "class B extends A { B() { super.x = 9; } }",
    )
    flattened = flatten_model(model)
    emitted = emit(flattened["B"])
    assert "x = 9;" in emitted
    assert "super" not in emitted


def test_super_ref_in_subclass_field_initializer_rewritten():
    model = model_from_sources(
        "class A { public int x; }",
        "class B extends A { public int x; int y = super.x; }",
    )
    flattened = flatten_model(model)
    emitted = emit(flattened["B"])
    assert "int y = x$A;" in emitted


def test_rewrites_inside_control_flow():
    model = model_from_sources(
        "class A { int x; public void f(boolean c) { if (c) { x = 1; } while (c) { x = 2; } } }",
        "class B extends A { int x; }",
    )
    flattened = flatten_model(model)
    emitted = emit(flattened["B"])
    assert "x$A = 1;" in emitted
    assert "x$A = 2;" in emitted


def test_overridden_private_reachable_method_renamed_r7():
    model = model_from_sources(
        "class A { public void go() { m(); } private void m() { } }",
        "class B extends A { private void m() { } }",
    )
    flattened = flatten_model(model)
    fates = fate_map(flattened["B"])
    fate = fates[(METHOD, "m()")]
    assert (fate.decision, fate.rule) == ("PullDownRenamed", "R7")
    assert fate.new_name == "m$A"


def test_flatten_class_requires_flattened_superclass():
    from flatjava import FlattenError, flatten_class

    model = model_from_sources("class A {\n}\n", "class B extends A {\n}\n")
    with pytest.raises(FlattenError):
        flatten_class("B", model, {})


def test_dangling_super_ref_guard():
    # Force a rule-table violation: a super site whose member has no fate,
    # or a fate that says Drop.
    model = model_from_sources(
        "class A { public int x; }",
        "class B extends A { void m() { super.x = 1; } }",
    )
    cls = model.classes["B"]
    method = cls.decl.members[0]
    dropped = MemberFate(model.classes["A"].members[0], DROP_ANOMALY, "R3")
    for fates in ([], [dropped]):
        rewriter = _Carrier(_own_move(cls, fates, {}), [])
        with pytest.raises(DanglingSuperRef):
            rewriter.rewrite(method, cls.members[0].resolution.sites)


# --- structural laws ----------------------------------------------------------


def original_surface(model, name):
    """Visible member surface through the original chain, nearest-wins."""
    attrs: dict[str, object] = {}
    methods: dict[str, object] = {}
    info = model.classes[name]
    chain = [info] + model.superclass_chain(name)
    for cls in chain:
        for attr_name, member in cls.attributes.items():
            if attr_name not in attrs:
                attrs[attr_name] = member
        for sig, member in cls.methods.items():
            if sig not in methods:
                methods[sig] = member
    surface = {("attribute", n) for n, m in attrs.items() if m.visible}
    surface |= {("method", s) for s, m in methods.items() if m.visible}
    return surface


def flattened_surface(flat):
    return {
        (m.kind, m.signature)
        for m in Whole(flat).members
        if m.kind != "ctor" and m.visible and m.signature == m.declared_signature
    }


@pytest.mark.parametrize("name", CORPUS)
def test_visible_surface_preserved(name):
    model, flattened = flatten_fixture(name)
    for class_name in model.order:
        assert flattened_surface(flattened[class_name]) == original_surface(
            model, class_name
        ), class_name


@pytest.mark.parametrize("seed", range(200))
def test_visible_surface_preserved_on_generated_hierarchies(seed):
    # Declared names of the `name$Owner` shape meet the renames of the chain.
    sources = random_hierarchy_sources(random.Random(90_000 + seed), depth=3, owner_names=True)
    model = model_from_sources(*sources)
    flattened = flatten_model(model)
    for class_name in model.order:
        assert flattened_surface(flattened[class_name]) == original_surface(
            model, class_name
        ), class_name


@pytest.mark.parametrize("name", CORPUS)
def test_monotonicity_of_member_counts(name):
    model, flattened = flatten_fixture(name)
    for class_name, info in model.classes.items():
        flat = flattened[class_name]
        kinds = Counter(m.kind for m in Whole(flat).members)
        assert kinds[ATTRIBUTE] >= len(info.attributes)
        assert kinds[METHOD] >= len(info.methods)


@pytest.mark.parametrize("name", CORPUS)
def test_closure_property(name):
    # Emitted flattened classes re-parse and re-resolve standalone.
    model, flattened = flatten_fixture(name)
    units = [parse_source(emit(flattened[c]), f"{c}.flat.java") for c in model.order]
    flat_model = classify_members(build_model(units))
    for class_name in flat_model.order:
        assert flat_model.classes[class_name].superclass is None
        resolve_class(flat_model, flat_model.classes[class_name])


def test_chain_uses_flattened_superclass():
    model, flattened = flatten_fixture("chain_override_twice")
    members = Whole(flattened["c1"]).members
    assert [m.name for m in members] == ["x", "x$c2", "x$c3"]
    provenance = {m.name: m.owner for m in members}
    assert provenance == {"x": "c1", "x$c2": "c2", "x$c3": "c3"}


def test_member_order_own_then_pulled_nearest_first():
    model, flattened = flatten_fixture("chain3")
    flat = flattened["c1"]
    assert [(m.name, m.owner) for m in Whole(flat).members] == [
        ("all", "c1"),
        ("mid", "c2"),
        ("twice", "c2"),
        ("base", "c3"),
        ("root", "c3"),
    ]


def test_determinism_two_runs_byte_identical():
    for name in ("deep_mixed", "chain3", "static_members"):
        _, first = flatten_fixture(name)
        _, second = flatten_fixture(name)
        for class_name in first:
            assert emit(first[class_name]) == emit(second[class_name])
