"""Every name a module exports in __all__ exists there, and its classes and functions are its own."""

import importlib
import inspect
import pkgutil

import pytest

import weyrlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(weyrlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"weyrlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_all_classes_and_functions_are_defined_in_their_module(name):
    # A re-export belongs in the __all__ of the module that defines it.
    module = importlib.import_module(f"weyrlab.{name}")
    exported = [getattr(module, n) for n in getattr(module, "__all__", ())]
    foreign = [
        obj.__name__
        for obj in exported
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != module.__name__
    ]
    assert foreign == []
