"""The package's exported names and config fields."""

import dataclasses
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


def test_config_fields_are_the_ones_callers_set():
    # A config field needs a caller outside the tests (the CLI or the
    # benchmark); a knob that only its own validation test sets is a
    # constant in the module that uses it.
    def names(config):
        return {f.name for f in dataclasses.fields(config)}

    assert names(farsa.SolverConfig) == {"lam", "epsilon", "max_iter", "time_limit"}
    assert names(farsa.IstaConfig) == {"epsilon", "max_iter"}
