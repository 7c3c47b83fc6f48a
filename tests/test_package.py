"""The package namespace: ``btriple.__all__`` lists exactly the public names
that ``btriple/__init__.py`` binds, so a deleted name cannot linger in it
and a new one cannot be left out."""
import ast
from pathlib import Path

import btriple


def _public_bindings():
    tree = ast.parse(Path(btriple.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return {name for name in names if not name.startswith("_")}


def test_every_exported_name_resolves():
    assert len(set(btriple.__all__)) == len(btriple.__all__)
    missing = [name for name in btriple.__all__ if not hasattr(btriple, name)]
    assert missing == []


def test_every_public_binding_is_exported():
    assert sorted(_public_bindings() - set(btriple.__all__)) == []
