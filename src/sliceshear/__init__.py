"""Exact symbolic engine for slice spectral sequence shearing over cyclic 2-groups.

The package computes with virtual real representations of C_{2^n}, canonical
monomials of named chart classes, the shearing isomorphism between charts at
different groups and heights, differential families and their transport,
vanishing-line admissibility, and a chart DSL with SVG output.  All
arithmetic is exact (integers and rationals); nothing uses floating point
except pixel placement in rendered figures.

The top level exports the ``__all__`` of every module but ``cli``.
"""

from .reps import *
from .monomials import *
from .shearing import *
from .differentials import *
from .vanishing import *
from .dsl import *
from .jsonio import *
from .svg import *

__version__ = "0.1.0"
