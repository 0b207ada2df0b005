"""No module in src/asap imports a name it does not use.

A name counts as used when the module reads it or lists it in `__all__`.
The benchmark's tracer wraps some names on the module that binds them
(`BOUNDARIES` in benchmarks/tracing.py), so a module may import a name only
for the tracer to find; those names are the one exception.
"""
import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asap"


def unused_imports(source: str) -> set[str]:
    """Names the source binds by import but never reads and does not export."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`; `as` binds the alias.
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read - exported


@pytest.fixture(scope="module")
def traced():
    """(module name, attribute) for every module-level name the tracer wraps."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return {
        (owner.__name__, attr)
        for owner, attr, *_ in tracing.BOUNDARIES
        if isinstance(owner, types.ModuleType)
    }


def test_the_check_sees_a_dead_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import inf, nan\n"
        "__all__ = ['nan']\nprint(j.dumps(1))\n"
    )
    assert unused_imports(source) == {"os", "inf"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path, traced):
    module = f"asap.{path.stem}" if path.stem != "__init__" else "asap"
    dead = {name for name in unused_imports(path.read_text(encoding="utf-8")) if (module, name) not in traced}
    assert not dead, f"{path.name} imports {sorted(dead)} without using them"
