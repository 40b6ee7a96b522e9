"""The package's public surface: claimver.__all__."""

import types

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
