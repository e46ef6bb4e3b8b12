import importlib
import inspect
import pkgutil

import pytest

import sliceshear

MODULES = [info.name for info in pkgutil.iter_modules(sliceshear.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"sliceshear.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_every_module_all():
    """The public top-level names are the union of the modules' ``__all__``
    (the CLI aside), each bound to the module's own object."""
    public = {
        n: v
        for n, v in vars(sliceshear).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    }
    exported = {}
    for name in MODULES:
        if name != "cli":
            module = importlib.import_module(f"sliceshear.{name}")
            exported.update((n, getattr(module, n)) for n in module.__all__)
    assert public.keys() == exported.keys()
    assert [n for n in public if public[n] is not exported[n]] == []
