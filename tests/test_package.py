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


def _imports_and_uses(path):
    """(imported name, line) pairs of a module, the names it reads, and the
    names it binds to None at module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used, placeholders = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [((a.asname or a.name).split(".")[0], a.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, a.lineno) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) \
                and node.value.value is None:
            placeholders.update(t.id for t in node.targets
                                if isinstance(t, ast.Name))
    return imported, used, placeholders


def test_no_unused_imports(monkeypatch):
    # a name a module imports is used there, exported, or kept on a
    # "noqa: F401" line for perfbench/tracing.py, which patches it by name
    # in that module; so is a module-level placeholder bound to None
    from .test_harness import _load_tracing

    tracer = _load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        traced = {(owner.__name__, attr) for owner, attr, _ in tracer._saved}
    finally:
        tracer.uninstall()
    stale, untraced = [], []
    for path in sorted(Path(btriple.__file__).parent.glob("*.py")):
        module = f"btriple.{path.stem}" if path.stem != "__init__" else "btriple"
        lines = path.read_text(encoding="utf-8").splitlines()
        imported, used, placeholders = _imports_and_uses(path)
        exported = set(btriple.__all__) if module == "btriple" else set()
        for name, line in imported:
            kept = "# noqa: F401" in lines[line - 1]
            if kept and (name in used or (module, name) not in traced):
                untraced.append(f"{module}.{name}")
            elif not kept and name not in used | exported:
                stale.append(f"{module}.{name}")
        untraced += [f"{module}.{name}" for name in sorted(placeholders)
                     if (module, name) not in traced]
    assert stale == []
    assert untraced == []
