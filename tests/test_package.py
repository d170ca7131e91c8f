"""The package namespace: what `from dfnas import *` binds."""

import dfnas


def test_every_exported_name_resolves():
    assert [name for name in dfnas.__all__ if not hasattr(dfnas, name)] == []
