"""The package's public names: each one listed in ``__all__`` exists, once."""

import repuchain


def test_all_names_resolve_without_duplicates():
    names = repuchain.__all__
    duplicates = sorted({n for n in names if names.count(n) > 1})
    assert not duplicates, f"listed more than once in __all__: {duplicates}"
    missing = [n for n in names if not hasattr(repuchain, n)]
    assert not missing, f"listed in __all__ but not importable: {missing}"
