"""Every name a greenvar module exports in ``__all__`` exists on it."""

import importlib
import pkgutil

import pytest

import greenvar

MODULES = sorted(info.name for info in pkgutil.iter_modules(greenvar.__path__, "greenvar."))


def test_every_module_declares_its_exports():
    assert MODULES
    for name in MODULES:
        assert isinstance(importlib.import_module(name).__all__, list), name


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
