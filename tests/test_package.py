"""The package namespace."""

import types

import signalbox as sb


def test_all_names_every_public_import_once():
    assert len(sb.__all__) == len(set(sb.__all__)) == 78
    for name in sb.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(sb, name), types.ModuleType)
