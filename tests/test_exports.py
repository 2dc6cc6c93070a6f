import importlib
import pkgutil

import pytest

import semiflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(semiflow.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist_and_star_import(name):
    # a deletion that leaves a stale __all__ entry fails here
    module = importlib.import_module(f"semiflow.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from semiflow.{name} import *", namespace)
    assert set(names) <= set(namespace)
