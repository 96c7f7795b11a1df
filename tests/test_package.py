"""The package's public names are imported lazily from their submodules
(PEP 562), so a stale entry would only fail when someone reads it: every
name in ``plate_afem.__all__`` is read here, and so is every entry of each
submodule's own ``__all__``, re-exported or not."""

import importlib
import pkgutil

import pytest

import plate_afem

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(plate_afem.__path__))


@pytest.mark.parametrize("name", plate_afem.__all__)
def test_public_name_resolves_through_lazy_getattr(name):
    module = importlib.import_module(f"plate_afem.{plate_afem._MODULE_OF[name]}")
    assert plate_afem.__getattr__(name) is getattr(module, name)
    assert name in module.__all__


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_every_submodule_all_entry_resolves(module_name):
    module = importlib.import_module(f"plate_afem.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'principal_angle'"):
        plate_afem.__getattr__("principal_angle")
