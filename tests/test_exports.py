import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sliceshear

MODULES = [info.name for info in pkgutil.iter_modules(sliceshear.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"sliceshear.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_every_module_all():
    """The top-level names are the union of the modules' ``__all__`` (the CLI
    aside), each the module's own object, whatever was resolved before."""
    exported = {}
    for name in MODULES:
        if name != "cli":
            module = importlib.import_module(f"sliceshear.{name}")
            exported.update((n, getattr(module, n)) for n in module.__all__)
    assert sorted(sliceshear.__all__) == sorted(exported)
    assert [n for n in exported if getattr(sliceshear, n) is not exported[n]] == []
    assert set(exported) <= set(dir(sliceshear))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(sliceshear, "no_such_name")
    src = str(Path(sliceshear.__file__).resolve().parents[1])
    # a submodule is an attribute of the package, as with eager imports
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import sliceshear as _pkg; _svg = _pkg.svg; "
        "from sliceshear import *; assert _svg.emit_svg is emit_svg; "
        "print(*(n for n in dir() if not n.startswith('_')))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True
    )
    assert sorted(proc.stdout.split()) == sorted([*exported, "sys"])


def test_only_reps_touches_the_per_k_series():
    """One module owns the tower's per-k numbers: every other module reads them
    through ``fixed_dimension``, ``tau``, ``line_L`` and ``constant_C``, never
    through the memoized series, and no private boundary helper comes back."""
    offenders = []
    for path in sorted(Path(sliceshear.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "reps.py" and re.search(r"\b_(?:fixed_)?series\b", text):
            offenders.append(f"{path.name} names the series")
        if re.search(r"\b_boundary\b", text):
            offenders.append(f"{path.name} names _boundary")
    assert offenders == []


def test_only_reps_words_the_admission_rule():
    """One rule admits an integer: ``reps._admit`` words its type error, and
    none of the per-module helpers it replaced comes back."""
    offenders = []
    for path in sorted(Path(sliceshear.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for helper in re.findall(r"\bdef (_check_(?:int|index|step))\b", text):
            offenders.append(f"{path.name} defines {helper}")
        if path.name != "reps.py" and "must be an integer, got" in text:
            offenders.append(f"{path.name} words the integer type error")
    assert offenders == []


def test_only_the_admitting_producers_build_trusted_monomials():
    """``ClassMonomial._trusted`` checks nothing, so only the producers whose
    fields are admitted by construction may name it."""
    allowed = {"monomials.py", "jsonio.py", "shearing.py", "differentials.py", "dsl.py"}
    offenders = [
        path.name
        for path in sorted(Path(sliceshear.__file__).parent.glob("*.py"))
        if path.name not in allowed and re.search(r"\b_trusted\b", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
