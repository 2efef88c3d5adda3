"""Every name a pathcalc module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pathcalc"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_uses_every_import(module):
    tree = ast.parse((SRC / module).read_text())
    assert _unused_imports(tree) == [], module


def test_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom .paths import LINEAR, from_arrays\n"
                     "__all__ = ['from_arrays']\n")
    assert _unused_imports(tree) == ["LINEAR", "os"]
