"""Every module-level private name of the package is used.

A helper that a fold leaves behind keeps its tests green and its lines in
the tree; this test finds it.  A name counts as used when some other place
in ``src/affnil`` loads it, imports it or reads it as an attribute.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "affnil"


def _private_definitions(tree: ast.Module):
    """(name, statement) for each private name a top-level statement defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node: ast.AST):
    """The names that node loads, imports or reads as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_module_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "matk.py" in trees and "zipoly.py" in trees
    statements = [(stmt, set(_references(stmt)))
                  for tree in trees.values() for stmt in tree.body]
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            if not any(name in refs for stmt, refs in statements if stmt is not definition):
                unused.append(f"{module}: {name}")
    assert unused == []
