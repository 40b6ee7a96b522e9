"""The package's public surface, claimver.__all__, the imports of its
modules and of these tests, and its private definitions."""

import ast
import types
from pathlib import Path

import claimver


def test_every_export_resolves_once():
    names = claimver.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(claimver, n)]
    assert missing == []


def test_every_public_import_is_exported():
    imported = {n for n, v in vars(claimver).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert imported == set(claimver.__all__)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used.update(claimver.__all__)
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    package = Path(claimver.__file__).parent
    paths = sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert [entry for path in paths for entry in _unused_imports(path)] == []


def _private_definitions(tree: ast.Module):
    """Module- and class-level private functions and classes, not dunders."""
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                yield node


def test_every_private_definition_is_used():
    package = Path(claimver.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
            for node in _private_definitions(tree) if node.name not in used] == []


def test_backend_imports_neither_the_graph_nor_retrieval():
    # Prompts are built from label triples, so the backend needs neither.
    tree = ast.parse((Path(claimver.__file__).parent / "backend.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("claimver." + (node.module or "")).rstrip(".") if node.level else node.module
            modules.update(f"{base}.{alias.name}" for alias in node.names)
            modules.add(base)
    assert "claimver.backend" not in modules and "claimver.errors" in modules
    assert {"claimver.kg", "claimver.retrieval"}.isdisjoint(modules)
