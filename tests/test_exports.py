"""The export list and the package namespace name the same public objects."""

import types

import expconvex


def test_all_equals_public_names():
    public = {
        name for name, obj in vars(expconvex).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert sorted(expconvex.__all__) == sorted(public)
    assert len(expconvex.__all__) == len(set(expconvex.__all__))


def test_every_export_resolves():
    for name in expconvex.__all__:
        assert getattr(expconvex, name) is not None
