"""The package's public names are imported lazily from their submodules
(PEP 562), so a stale entry would only fail when someone reads it: every
name in ``plate_afem.__all__`` is read here."""

import importlib

import pytest

import plate_afem


@pytest.mark.parametrize("name", plate_afem.__all__)
def test_public_name_resolves_through_lazy_getattr(name):
    module = importlib.import_module(f"plate_afem.{plate_afem._MODULE_OF[name]}")
    assert plate_afem.__getattr__(name) is getattr(module, name)
    assert name in module.__all__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'principal_angle'"):
        plate_afem.__getattr__("principal_angle")
