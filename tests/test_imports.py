"""Every module-level import in the package is used, and every private helper.

The one exception is a name that the benchmark's tracer wraps from outside
the package: its import line carries `# noqa: F401` and a comment that
names `benchmark/tracing.py`. A module-level function or class whose name
starts with `_` must be referenced from some other statement of the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "flatjava"
MODULES = sorted(p.name for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(p.name for p in PACKAGE_DIR.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names imported at module level that nothing else in `source` uses."""
    module = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for stmt in module.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    unused = []
    for name, lineno in imported.items():
        if name in used:
            continue
        line = lines[lineno - 1]
        if "# noqa: F401" in line and "benchmark/tracing.py" in line:
            continue
        unused.append(f"{lineno}: {name}")
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_module_level_imports_are_used(module):
    assert unused_imports((PACKAGE_DIR / module).read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = (
        "import os\nimport sys\n"
        "from json import dumps, loads  # noqa: F401\n"
        "import copy  # noqa: F401 - benchmark/tracing.py wraps copy.deepcopy\n"
        "sys.exit(loads('0'))\n"
    )
    assert unused_imports(source) == ["1: os", "3: dumps"]


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level private functions and classes of `sources` (module
    name to text) that no other top-level statement of any module names."""
    helpers = []  # (module, name, the statement that defines it)
    statements = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            statements.append(stmt)
            if (
                isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")
                and not stmt.name.startswith("__")
            ):
                helpers.append((module, stmt.name, stmt))
    named = [
        (stmt, {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
         | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)})
        for stmt in statements
    ]
    return [
        f"{module}: {name}"
        for module, name, defined in helpers
        if not any(name in names for stmt, names in named if stmt is not defined)
    ]


def test_private_helpers_are_referenced():
    sources = {name: (PACKAGE_DIR / name).read_text(encoding="utf-8") for name in SOURCES}
    assert unreferenced_helpers(sources) == []


def test_unreferenced_helper_is_found():
    sources = {
        "a.py": (
            "def _used(): return 1\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Base: pass\n"
            "class _Orphan(_Base): pass\n"
            "def __getattr__(name): return name\n"
            "def public(): return _used()\n"
        ),
        "b.py": "import a\nx = a._elsewhere\n",
        "c.py": "def _elsewhere(): pass\n",
    }
    assert unreferenced_helpers(sources) == ["a.py: _recursive", "a.py: _Orphan"]
