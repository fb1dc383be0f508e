import importlib
import pkgutil
import types

import pytest

import hdcnav

MODULES = [info.name for info in pkgutil.iter_modules(hdcnav.__path__)
           if hasattr(importlib.import_module(f"hdcnav.{info.name}"), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hdcnav.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_are_public():
    stale = [name for name, value in vars(hdcnav).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)
             and name not in importlib.import_module(value.__module__).__all__]
    assert stale == []
