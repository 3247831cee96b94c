"""The package's public names all resolve, and no package attribute named
after a submodule is shadowed by a function or class of that name."""

import importlib
import pkgutil
import types

import scriptsum

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(scriptsum.__path__))


def test_every_exported_name_resolves():
    missing = [name for name in scriptsum.__all__ if not hasattr(scriptsum, name)]
    assert missing == []
    assert len(set(scriptsum.__all__)) == len(scriptsum.__all__)


def test_submodule_attributes_are_modules():
    assert {"structure", "tensor", "model", "data"} <= set(SUBMODULES)
    for name in SUBMODULES:
        module = importlib.import_module(f"scriptsum.{name}")
        assert isinstance(getattr(scriptsum, name), types.ModuleType), name
        assert getattr(scriptsum, name) is module, name
