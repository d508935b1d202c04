"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import inspect

import pytest

import eamchain

MODULES = ["lattice", "models", "potentials", "solver", "stability", "textconfig"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"eamchain.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_are_exported_by_their_modules():
    for name, obj in vars(eamchain).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        assert name in importlib.import_module(obj.__module__).__all__, name
