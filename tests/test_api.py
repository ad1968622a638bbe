"""The package's exported names: every ``__all__`` entry resolves."""

import importlib
import pkgutil

import pytest

import farsa

MODULES = ["farsa"] + [f"farsa.{info.name}" for info in pkgutil.iter_modules(farsa.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == [], f"{name}.__all__ lists missing names {missing}"
