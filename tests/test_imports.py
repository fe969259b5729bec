"""Every name a qdist module imports is read somewhere in that module, and
every private name a module defines is read by some qdist module."""

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


def private_definitions(source: str) -> list[str]:
    """Module-level functions, classes and constants whose names start with
    one underscore."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set[str]:
    """Names a module loads, as a bare name, an attribute or an import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """'module: name' for each private definition no module reads."""
    read = set().union(*map(names_read, sources.values()))
    return [f"{module}: {name}" for module, source in sources.items()
            for name in private_definitions(source) if name not in read]


def test_unread_private_names_are_found():
    sources = {
        "a.py": "_LIMIT = 3\n_used: int = 1\ndef _helper():\n    pass\nclass _Kept:\n    pass\n__all__ = []\n",
        "b.py": "from a import _Kept\nimport a\nprint(a._used, _LIMIT)\n",
    }
    assert unread_private_names(sources) == ["a.py: _helper"]
    # A helper left behind in a real module fails the check below.
    modules = {p.name: p.read_text() for p in MODULES}
    modules["pauli.py"] += "\n\ndef _helper():\n    pass\n"
    assert unread_private_names(modules) == ["pauli.py: _helper"]


def test_every_private_name_is_read():
    assert unread_private_names({p.name: p.read_text() for p in MODULES}) == []
