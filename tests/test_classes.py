"""AST nodes and records are plain classes: their value semantics, and an
import of the CLI that needs neither the `dataclasses` module nor click."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from flatjava import ClassInfo, ClassModel, FlattenedClass, emit, parse_source, tree
from flatjava.resolver import MemberResolution
from flatjava.spans import Span

SRC = Path(__file__).resolve().parent.parent / "src"
S = Span(0, 1)
T = Span(2, 3)


def _field_decl(name: str = "x") -> tree.FieldDecl:
    int_type = tree.TypeRef("int", False, S)
    init = tree.Literal("int", "1", S)
    return tree.FieldDecl("public", False, False, int_type, name, init, S, S)


def test_fields_are_the_init_parameters_in_order():
    assert tree.Binary.__match_args__ == ("op", "left", "right", "span")
    assert tree.This.__match_args__ == ("span",)
    assert tree.CompilationUnit.__match_args__ == ("package", "class_decl", "span", "path")
    assert "emitted" not in tree.MethodDecl.__match_args__


def test_repr_lists_the_fields_in_order():
    node = tree.Binary("+", tree.Name("a", S), tree.Literal("int", "1", T), S)
    assert repr(node) == (
        "Binary(op='+', left=Name(ident='a', span=Span(start=0, end=1)), "
        "right=Literal(kind='int', lexeme='1', span=Span(start=2, end=3)), "
        "span=Span(start=0, end=1))"
    )


def test_equality_compares_every_field_and_the_type():
    assert tree.Name("a", S) == tree.Name("a", S)
    assert tree.Name("a", S) != tree.Name("b", S)
    assert tree.Name("a", S) != tree.Name("a", T)
    assert tree.This(S) != tree.Super(S)
    assert tree.Name("a", S) != ("a", S)


def test_emitted_lines_stay_out_of_repr_and_equality():
    decl, other = _field_decl(), _field_decl()
    emit(tree.ClassDecl("public", "A", None, [decl], S, S))
    assert decl.emitted and other.emitted is None
    assert decl == other
    assert repr(decl) == repr(other)
    assert "emitted" not in repr(decl)


def test_compilation_unit_equality_ignores_path():
    source = "class A { int x; }"
    first, second = parse_source(source, "one/A.java"), parse_source(source, "two/A.java")
    assert first == second
    assert repr(first) != repr(second)
    assert "path='one/A.java'" in repr(first)


def test_compilation_unit_keeps_its_text_out_of_its_fields():
    source = "class A { int x; }"
    unit = parse_source(source, "A.java")
    assert unit.text == source
    assert "text" not in tree.CompilationUnit.__match_args__
    assert source not in repr(unit)
    assert unit == parse_source(source + "\n// trailing\n", "A.java")


def test_nodes_are_unhashable():
    with pytest.raises(TypeError):
        hash(tree.Name("a", S))
    with pytest.raises(TypeError):
        {parse_source("class A { }")}


def test_replace_keeps_the_type_and_resets_emitted():
    decl = _field_decl()
    emit(tree.ClassDecl("public", "A", None, [decl], S, S))
    renamed = tree.replace(decl, name="y")
    assert type(renamed) is tree.FieldDecl
    assert renamed.name == "y" and decl.name == "x"
    assert renamed.init is decl.init
    assert renamed.emitted is None and decl.emitted is not None
    assert tree.replace(decl) == decl and tree.replace(decl) is not decl
    with pytest.raises(TypeError):
        tree.replace(decl, nonsense=1)


def test_vars_lists_the_fields():
    node = tree.Call(None, "f", [tree.Name("a", S)], S, T)
    assert vars(node) == {"receiver": None, "name": "f", "args": [tree.Name("a", S)],
                          "span": S, "name_span": T}
    assert list(vars(_field_decl())) == [*tree.FieldDecl.__match_args__, "emitted"]


def test_record_defaults_are_not_shared():
    decl = tree.ClassDecl("public", "A", None, [], S, S)
    first, second = ClassInfo("A", None, None, decl), ClassInfo("A", None, None, decl)
    assert first.attributes is not second.attributes
    assert first.methods is not second.methods
    assert first.ctors is not second.ctors
    assert first.members is not second.members
    assert ClassModel({}, []).diagnostics is not ClassModel({}, []).diagnostics
    one, two = (FlattenedClass("A", None, "public", [], []) for _ in range(2))
    assert one.head_fates is not two.head_fates
    assert one.rewrites is not two.rewrites
    assert one.diagnostics is not two.diagnostics
    res, other = MemberResolution(), MemberResolution()
    for name in ("sites", "receiver_types", "new_types", "class_refs"):
        assert getattr(res, name) is not getattr(other, name), name
        assert not getattr(res, name)
    assert res.used is None and res.uses_this is False


def test_importing_the_cli_does_not_load_dataclasses():
    # Nor click: the command line runs on the standard library alone.
    probe = "import sys, flatjava.cli; print([m in sys.modules for m in ('dataclasses', 'click')])"
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {probe}"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[False, False]"
