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


def test_public_names_are_the_ones_callers_use():
    # Pinned so that a name exported only for the tests cannot come back
    # unnoticed; adding or removing a public name means editing this set.
    # These names check their inputs; the unchecked kernels beneath them
    # are imported from their modules.
    assert set(farsa.__all__) == {
        "Dataset",
        "DatasetFormatError",
        "IstaConfig",
        "IterationRecord",
        "IterationType",
        "LogisticObjective",
        "ObjectiveOracle",
        "SolveReport",
        "SolveStatus",
        "SolverConfig",
        "SparseMatrix",
        "ista_solve",
        "load_dataset",
        "parse_libsvm",
        "relabel_binary_mnist",
        "scale_minus1_1",
        "scale_pixels",
        "solve",
        "write_libsvm",
    }
