"""Every name a module exports exists, so a deleted name cannot linger in
an ``__all__`` list."""

import importlib
import pkgutil

import pytest

import entrain

MODULES = ["entrain"] + [f"entrain.{m.name}" for m in pkgutil.iter_modules(entrain.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
