"""Every name a qdist module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

import qdist

MODULES = sorted(Path(qdist.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names the module never loads; names listed in a literal
    __all__ count as loaded, and `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom a import b, c\n__all__ = ['c']\nos.sep\n"
    assert unused_imports(source) == ["line 2: np", "line 3: b"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []
