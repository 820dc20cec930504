import importlib
import pkgutil

import pytest

import heishardy

MODULES = sorted(m.name for m in pkgutil.iter_modules(heishardy.__path__, "heishardy."))
LIBRARY = ["heishardy.geometry", "heishardy.mixed_norm", "heishardy.operators",
           "heishardy.quadrature", "heishardy.sharp_constants"]


def test_library_modules_declare_all():
    for name in LIBRARY:
        assert hasattr(importlib.import_module(name), "__all__"), name


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
