"""Exact symbolic engine for slice spectral sequence shearing over cyclic 2-groups.

The package computes with virtual real representations of C_{2^n}, canonical
monomials of named chart classes, the shearing isomorphism between charts at
different groups and heights, differential families and their transport,
vanishing-line admissibility, and a chart DSL with SVG output.  All
arithmetic is exact (integers and rationals); nothing uses floating point
except pixel placement in rendered figures.
"""

from .reps import (
    CyclicGroup,
    Line,
    RepError,
    VirtualRep,
    constant_C,
    line_L,
    regular_rep,
    rho_bar,
    tau,
)
from .monomials import (
    ClassMonomial,
    MonomialError,
    build_D,
    expand_euler,
    expand_orientation,
    norm_class,
)
from .shearing import (
    ShearContext,
    ShearError,
    TowerEntry,
    correspond_class,
    euler_ratio,
    region_of,
    shear_degree,
    shear_length,
    tower_report,
    unshear_length,
)
from .differentials import (
    Differential,
    DifferentialError,
    LeibnizZeroError,
    PermanentCycleFact,
    RegionWarning,
    hhr_family,
    hu_kriz_seed,
    leibniz,
    periodicity_element,
    permanent_cycle_seeds,
    transport,
    validate,
)
from .vanishing import (
    VanishingProfile,
    Violation,
    N_constant,
    admissible,
    boundary_line,
    max_length,
    vanishing_line,
)
from .dsl import (
    ChartDocument,
    DslError,
    DslSemanticError,
    DslSyntaxError,
    GuideSpec,
    parse,
    parse_class_expr,
    parse_diff_spec,
    parse_group_name,
    parse_rep,
    print_canonical,
)
from .jsonio import (
    JsonSchemaError,
    export_json,
    import_json,
)
from .svg import emit_svg

__version__ = "0.1.0"
