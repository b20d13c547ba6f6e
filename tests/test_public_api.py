"""The package namespace: every exported name resolves."""

import gridwatch


def test_every_exported_name_resolves():
    missing = [name for name in gridwatch.__all__ if not hasattr(gridwatch, name)]
    assert not missing, f"__all__ names without a binding: {missing}"
    assert len(set(gridwatch.__all__)) == len(gridwatch.__all__)
