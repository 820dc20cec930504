import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import heishardy

MODULES = sorted(m.name for m in pkgutil.iter_modules(heishardy.__path__, "heishardy."))
LIBRARY = ["heishardy.geometry", "heishardy.mixed_norm", "heishardy.operators",
           "heishardy.quadrature", "heishardy.sharp_constants"]


# each library module may import, from the package, only the modules before it
LAYERS = ["geometry", "quadrature", "operators", "mixed_norm", "sharp_constants"]


def _package_imports(name: str) -> set[str]:
    """Package modules that `name` imports with `from .x import`, function bodies included."""
    tree = ast.parse(Path(heishardy.__file__).with_name(f"{name}.py").read_text())
    return {node.module or "__init__" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0}


@pytest.mark.parametrize("name", LAYERS)
def test_library_imports_only_lower_layers(name):
    assert _package_imports(name) <= set(LAYERS[:LAYERS.index(name)])


def test_library_modules_declare_all():
    for name in LIBRARY:
        assert hasattr(importlib.import_module(name), "__all__"), name


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_only_public_names():
    # a name deleted from a module's __all__ must not linger as a re-export
    tree = ast.parse(Path(heishardy.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = importlib.import_module(f"heishardy.{node.module}").__all__
            assert [a.name for a in node.names if a.name not in public] == [], node.module
