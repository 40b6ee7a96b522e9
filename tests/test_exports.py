"""The package's public surface, claimver.__all__, and the imports of its
modules."""

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
    assert [entry for path in sorted(package.glob("*.py"))
            for entry in _unused_imports(path)] == []
