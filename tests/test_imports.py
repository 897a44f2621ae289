"""Import hygiene: every name a module of the package imports is read by
that module.  Names read only in annotations count, quoted ones too;
``from __future__`` imports are exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "walkcover"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code and in annotations."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for a in annotations:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                read |= _read(ast.parse(a.value, mode="eval"))
    return read


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    read = _read(tree)
    unread = [f"{name} (line {line})" for name, line in _imported(tree).items()
              if name not in read]
    assert not unread, f"{module.name} imports names it never reads: {unread}"


def test_an_unread_import_is_caught():
    tree = ast.parse("import os\nfrom typing import Any, Sequence\n"
                     "def f(x: 'Sequence[int]') -> None:\n    return os.sep\n")
    assert set(_imported(tree)) - _read(tree) == {"Any"}
