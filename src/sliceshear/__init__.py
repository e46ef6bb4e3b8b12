"""Exact symbolic engine for slice spectral sequence shearing over cyclic 2-groups.

The package computes with virtual real representations of C_{2^n}, canonical
monomials of named chart classes, the shearing isomorphism between charts at
different groups and heights, differential families and their transport,
vanishing-line admissibility, and a chart DSL with SVG output.  All
arithmetic is exact (integers and rationals); nothing uses floating point
except pixel placement in rendered figures.

The top level exports the ``__all__`` of every module but ``cli``.  A name
loads its module on first use, so importing the package loads none of its
modules.
"""

import importlib

__version__ = "0.1.0"

# In dependency order: finding a name imports its module and those before it.
_MODULES = ("reps", "monomials", "shearing", "differentials", "vanishing", "dsl", "jsonio", "svg")


def __getattr__(name: str):
    """Resolve a top-level name from the module whose ``__all__`` lists it,
    and keep it; ``__all__`` itself is the union of those lists."""
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    public = []
    for short in _MODULES:
        module = importlib.import_module(f"{__name__}.{short}")
        if name in module.__all__:
            globals()[name] = value = getattr(module, name)
            return value
        public += module.__all__
    if name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = public
    return public


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
