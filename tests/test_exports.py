"""The export lists: every name in a contperc module's __all__ resolves."""

import importlib
import pkgutil

import pytest

import contperc

MODULES = ["contperc"] + [f"contperc.{m.name}" for m in pkgutil.iter_modules(contperc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
