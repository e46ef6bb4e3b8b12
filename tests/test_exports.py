import ast
import importlib
import pkgutil

import pytest

import sliceshear

MODULES = [info.name for info in pkgutil.iter_modules(sliceshear.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"sliceshear.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    with open(sliceshear.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"sliceshear.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == []
