"""Model tests: inheritance graph, member tables, override classification."""

from __future__ import annotations

import itertools
import random

import pytest

from flatjava import (
    DuplicateClassName,
    DuplicateMember,
    InheritanceCycle,
    UnknownSuperclass,
)
from flatjava.errors import (
    ILLEGAL_OVERRIDE_FINAL,
    ILLEGAL_OVERRIDE_STATIC,
    PACKAGE_VISIBILITY_DIVERGENCE,
)
from flatjava.model import OBJECT_ROOT, override_legality

from conftest import CORPUS, FIXTURES_DIR, load_model, model_from_sources
from genclasses import random_overloading_hierarchy


def test_single_class_model():
    model = model_from_sources("class A {\n}\n")
    assert list(model.classes) == ["A"]
    assert model.classes["A"].superclass is None
    assert model.order == ["A"]


def test_chain_topological_order():
    model = load_model("chain3")
    assert model.order == ["c3", "c2", "c1"]


def test_sibling_order_is_lexicographic():
    model = model_from_sources(
        "class B extends A {\n}\n", "class C extends A {\n}\n", "class A {\n}\n"
    )
    assert model.order == ["A", "B", "C"]


def test_inheritance_cycle_rejected():
    sources = [
        (FIXTURES_DIR / "modelbad" / "cycle" / "X.java").read_text(),
        (FIXTURES_DIR / "modelbad" / "cycle" / "Y.java").read_text(),
    ]
    with pytest.raises(InheritanceCycle):
        model_from_sources(*sources)


def test_self_extends_rejected():
    with pytest.raises(InheritanceCycle):
        model_from_sources("class A extends A {\n}\n")


def test_unknown_superclass_rejected():
    with pytest.raises(UnknownSuperclass):
        model_from_sources("class U extends Nope {\n}\n")


def test_duplicate_class_rejected():
    with pytest.raises(DuplicateClassName):
        model_from_sources("class Dup {\n}\n", "class Dup {\n}\n")


def test_duplicate_attribute_rejected():
    with pytest.raises(DuplicateMember):
        model_from_sources("class A { int x; int x; }")


def test_duplicate_method_signature_rejected():
    with pytest.raises(DuplicateMember):
        model_from_sources("class A { void f(int a) { } void f(int b) { } }")


def test_duplicate_constructor_signature_rejected():
    with pytest.raises(DuplicateMember) as info:
        model_from_sources("class A { A() { } A() { } }", "class B extends A { }")
    # At the second constructor's name.
    assert str(info.value) == "<mem0>:1:19: duplicate constructor 'A()' in class A"


def test_constructor_overloads_allowed():
    model = model_from_sources("class A { A() { } A(int a) { } }")
    assert len(model.classes["A"].ctors) == 2


def test_overloads_within_one_class_allowed():
    model = model_from_sources("class A { void f(int a) { } void f(String b) { } }")
    assert len(model.classes["A"].methods) == 2


def test_visibility_classification():
    model = model_from_sources(
        "class A { private int w; int x; protected int y; public int z; }"
    )
    attrs = model.classes["A"].attributes
    assert not attrs["w"].visible
    assert attrs["x"].visible and attrs["y"].visible and attrs["z"].visible


def test_attribute_override_ignores_types():
    model = model_from_sources(
        "class A { String x; }", "class B extends A { int x; }"
    )
    (rel,) = model.overrides
    assert rel.kind == "attribute-override"
    assert rel.sub.owner == "B" and rel.sup.owner == "A"
    assert rel.legal


def test_overload_is_not_override():
    model = model_from_sources(
        "class A { void f(String s) { } }", "class B extends A { void f(int a) { } }"
    )
    assert model.overrides == []


def test_signature_matching_exhaustive():
    # Oracle: an override exists iff name and parameter type lists are equal.
    names = ("f", "g")
    param_lists = ((), ("int",), ("String",), ("int", "int"), ("int", "String"))
    for sup_name, sup_params in itertools.product(names, param_lists):
        for sub_name, sub_params in itertools.product(names, param_lists):
            sup_src = "class A { void %s(%s) { } }" % (
                sup_name,
                ", ".join(f"{t} p{i}" for i, t in enumerate(sup_params)),
            )
            sub_src = "class B extends A { void %s(%s) { } }" % (
                sub_name,
                ", ".join(f"{t} p{i}" for i, t in enumerate(sub_params)),
            )
            model = model_from_sources(sup_src, sub_src)
            expected = sup_name == sub_name and sup_params == sub_params
            assert bool(model.overrides) == expected, (sup_src, sub_src)


def test_override_relations_cover_transitive_superclasses():
    model = load_model("chain_override_twice")
    pairs = {(rel.sub.owner, rel.sup.owner) for rel in model.overrides}
    assert pairs == {("c2", "c3"), ("c1", "c2"), ("c1", "c3")}


def test_override_asymmetry_on_corpus():
    for name in CORPUS:
        model = load_model(name)
        for rel in model.overrides:
            assert rel.sub.owner != rel.sup.owner


@pytest.mark.parametrize("sub_static", [False, True])
@pytest.mark.parametrize("sup_static", [False, True])
@pytest.mark.parametrize("sup_final", [False, True])
def test_legality_brute_force(sub_static, sup_static, sup_final):
    # Independent rule: final superclass member wins, then static mismatch.
    if sup_final:
        expected = "illegal-final"
    elif sub_static != sup_static:
        expected = "illegal-static-mismatch"
    else:
        expected = "ok"
    sup_src = "class A { %s%sint x; }" % (
        "static " if sup_static else "", "final " if sup_final else ""
    )
    if sup_final:
        sup_src = sup_src.replace("int x;", "int x = 0;")
    sub_src = "class B extends A { %sint x; }" % ("static " if sub_static else "")
    model = model_from_sources(sup_src, sub_src)
    (rel,) = model.overrides
    assert rel.legality == expected
    assert override_legality(rel.sub, rel.sup) == expected


def test_illegal_override_diagnostics():
    model = load_model("static_mismatch_illegal")
    assert any(d.code == ILLEGAL_OVERRIDE_STATIC for d in model.diagnostics)
    model = load_model("final_illegal_override")
    assert any(d.code == ILLEGAL_OVERRIDE_FINAL for d in model.diagnostics)


def test_package_divergence_diagnostic():
    model = load_model("package_divergence")
    diags = [d for d in model.diagnostics if d.code == PACKAGE_VISIBILITY_DIVERGENCE]
    assert len(diags) == 1
    assert "shared" in diags[0].message


def test_no_divergence_within_same_package():
    model = load_model("pull_package_protected")
    assert not any(
        d.code == PACKAGE_VISIBILITY_DIVERGENCE for d in model.diagnostics
    )


def test_include_object_root():
    model = model_from_sources(
        "class A {\n}\n", "class B extends A {\n}\n", include_object_root=True
    )
    assert OBJECT_ROOT in model.classes
    assert model.classes[OBJECT_ROOT].synthetic
    assert model.classes["A"].superclass == OBJECT_ROOT
    assert model.classes["B"].superclass == "A"
    assert model.order[0] == OBJECT_ROOT


# --- overload scan ----------------------------------------------------------


def _brute_force_pairings(model):
    """Overrides and overloads by comparing every member pair, in model order."""
    overrides, overloads = [], []
    for name in model.order:
        info = model.classes[name]
        for sup in model.superclass_chain(name):
            for attr in info.attributes.values():
                for other in sup.attributes.values():
                    if other.name == attr.name:
                        overrides.append((attr, other))
            for method in info.methods.values():
                for other in sup.methods.values():
                    if other.signature == method.signature:
                        overrides.append((method, other))
                for other in sup.methods.values():
                    if other.name == method.name and other.signature != method.signature:
                        overloads.append((method, other))
    return overrides, overloads


def _ids(pairs) -> list[tuple[int, int]]:
    return [(id(sub), id(sup)) for sub, sup in pairs]


@pytest.mark.parametrize("seed", range(60))
def test_overloads_and_overrides_match_brute_force(seed):
    model = model_from_sources(*random_overloading_hierarchy(random.Random(seed)))
    overrides, _ = _brute_force_pairings(model)
    assert _ids((r.sub, r.sup) for r in model.overrides) == _ids(overrides)


def test_generated_hierarchies_include_overloads():
    with_overloads = sum(
        1 for seed in range(60)
        if _brute_force_pairings(
            model_from_sources(*random_overloading_hierarchy(random.Random(seed)))
        )[1]
    )
    assert with_overloads >= 30
