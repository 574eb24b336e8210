"""Every module-level import in the package is used.

The one exception is a name that the benchmark's tracer wraps from outside
the package: its import line carries `# noqa: F401` and a comment that
names `benchmark/tracing.py`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "flatjava"
MODULES = sorted(p.name for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


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
