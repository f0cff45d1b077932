"""Every name a module exports in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import weyrlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(weyrlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"weyrlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
