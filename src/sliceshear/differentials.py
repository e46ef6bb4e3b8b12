"""Differential records: validation, seed families, and transport.

A differential is a page-r arrow between two monomials with provenance.  The
engine never claims a page is complete; it validates bidegree constraints,
generates the classical families, and transports differentials along the
shearing isomorphism.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

from .monomials import ClassMonomial, MonomialError
from .reps import CyclicGroup, VirtualRep, _EngineError
from .shearing import ShearContext, correspond_class, region_of, shear_length

__all__ = [
    "Differential",
    "PermanentCycleFact",
    "DifferentialError",
    "LeibnizZeroError",
    "RegionWarning",
    "PROVENANCES",
    "validate",
    "hu_kriz_seed",
    "hhr_family",
    "transport",
    "leibniz",
    "permanent_cycle_seeds",
    "periodicity_element",
]

PROVENANCES = ("seed", "transported", "generated", "user")


class DifferentialError(_EngineError):
    """Raised for structurally ill-formed differential constructions."""


class LeibnizZeroError(DifferentialError):
    """Multiplying a differential produced a degenerate (zero) endpoint."""


class RegionWarning(UserWarning):
    """A transport was requested outside the proven isomorphism region."""


@dataclass(frozen=True)
class Differential:
    """A d_page arrow source -> target in the chart over ``group``.

    Provenance records how the arrow was obtained and is ignored by equality,
    so a transported differential compares equal to the directly generated
    one.
    """

    group: CyclicGroup
    page: int
    source: ClassMonomial
    target: ClassMonomial
    provenance: str = field(default="user", compare=False)

    def __post_init__(self) -> None:
        if type(self.page) is not int or self.page < 2:
            raise DifferentialError(f"differential page must be >= 2, got {self.page}")
        if self.provenance not in PROVENANCES:
            raise DifferentialError(f"unknown provenance {self.provenance!r}")


def validate(d: Differential) -> list[str]:
    """Check the bidegree constraints; an empty list means the arrow is valid.

    Violations are reported in a fixed order (group/level, endpoints, stem,
    filtration, degree), so the first entry is the first violated equation.
    A message with more digits than int-to-str allows becomes the one entry
    "invalid differential: <error>".
    """
    problems: list[str] = []
    if d.source.group != d.group or d.target.group != d.group:
        problems.append(
            f"endpoint group mismatch: source over {d.source.group}, "
            f"target over {d.target.group}, differential over {d.group}"
        )
    if d.source.level != d.target.level:
        problems.append(
            f"level mismatch: source level {d.source.level} vs target level "
            f"{d.target.level}"
        )
        return problems
    if d.source.is_zero or d.target.is_zero:
        problems.append("differential endpoints must be nonzero classes")
        return problems
    try:
        src_stem, src_filt, _ = d.source.bidegree()
        tgt_stem, tgt_filt, _ = d.target.bidegree()
        if tgt_stem != src_stem - 1:
            problems.append(
                f"stem mismatch: {src_stem} - 1 = {src_stem - 1} expected, target has {tgt_stem}"
            )
        if tgt_filt != src_filt + d.page:
            problems.append(
                f"filtration mismatch: {src_filt} + {d.page} = {src_filt + d.page} "
                f"expected, target has {tgt_filt}"
            )
        src = d.source.degree().coeffs
        if d.target.degree().coeffs != (src[0] - 1, *src[1:]):
            want = d.source.degree() - VirtualRep.of(d.source.level_group, triv=1)
            problems.append(
                f"degree mismatch: target degree {d.target.degree()} is not source "
                f"degree minus one trivial summand ({want})"
            )
    except ValueError as e:  # a degree too long to print in the message
        return [f"invalid differential: {e}"]
    return problems


def hu_kriz_seed(i: int) -> Differential:
    """The length-(2^(i+1) - 1) differential on u_{2sigma}^(2^(i-1)) over C_2.

    These arrows, d(u_{2sigma}^(2^(i-1))) = t_i a_sigma^(2^(i+1)-1), are the
    classical seed family that transports up the tower.
    """
    if i < 1:
        raise DifferentialError(f"seed index must be >= 1, got {i}")
    c2 = CyclicGroup(1)
    source = ClassMonomial(c2, 1, u_exp=(1 << (i - 1),))
    target = ClassMonomial(c2, 1, norms=((i, 1, 1),), a_exp=((1 << (i + 1)) - 1,))
    return Differential(c2, (1 << (i + 1)) - 1, source, target, provenance="seed")


def hhr_family(n: int, i: int) -> Differential:
    """The slice differential d(u_{2sigma}^(2^(i-1))) over C_{2^(n+1)}.

    Page 2^(n+1) (2^i - 1) + 1, target N(t_i) * a_rhobar^(2^i - 1) *
    a_sigma^(2^i) in canonical form; n = 0 reproduces :func:`hu_kriz_seed`.
    """
    if n < 0:
        raise DifferentialError(f"group index must be >= 0, got {n}")
    if i < 1:
        raise DifferentialError(f"family index must be >= 1, got {i}")
    group = CyclicGroup(n + 1)
    source = ClassMonomial(group, n + 1, u_exp=(1 << (i - 1),) + (0,) * n)
    power = (1 << i) - 1
    a = [power + (1 << i)] + [(1 << (m - 1)) * power for m in range(1, n + 1)]
    target = ClassMonomial(group, n + 1, norms=((i, n + 1, 1),), a_exp=tuple(a))
    page = (1 << (n + 1)) * power + 1
    return Differential(group, page, source, target, provenance="generated")


def transport(
    d: Differential, k: int, grading: VirtualRep | None = None
) -> Differential:
    """Shear a differential k steps up the tower.

    The page becomes 2^k r - (2^k - 1) and both endpoints transport by the
    class correspondence.  The grading defaults to the pullback of the source
    degree, i.e. the page the differential actually lives on; a
    :class:`RegionWarning` is emitted when the source sits strictly outside
    the proven isomorphism region for that grading.
    """
    if grading is None:
        grading = d.source.degree().pullback_to(CyclicGroup(d.group.exponent + k))
    ctx = ShearContext.lift(d.group, k, grading)
    if k == 0:
        return replace(d, provenance="transported")
    if region_of(d.source, ctx) == "outside":
        warnings.warn(
            f"transport source at (stem {d.source.stem}, filtration "
            f"{d.source.filtration}) lies outside the isomorphism region "
            f"(threshold s = {ctx.source_threshold})",
            RegionWarning,
            stacklevel=2,
        )
    return Differential(
        ctx.target_group,
        shear_length(d.page, k),
        correspond_class(d.source, ctx),
        correspond_class(d.target, ctx),
        provenance="transported",
    )


def leibniz(d: Differential, p: ClassMonomial) -> Differential:
    """Multiply a differential by a class asserted permanent by the caller."""
    if p.group != d.group or p.level != d.source.level:
        raise MonomialError(
            f"multiplier over {p.group} level {p.level} does not match the "
            f"differential over {d.group} level {d.source.level}"
        )
    if p.is_one:
        return d
    source = d.source * p
    target = d.target * p
    if target.is_zero:
        raise LeibnizZeroError("class killed is zero")
    if source.is_zero:
        raise LeibnizZeroError("supporting class is zero")
    return Differential(d.group, d.page, source, target, provenance="generated")


@dataclass(frozen=True)
class PermanentCycleFact:
    """An orientation class recorded as a permanent cycle in a named theory."""

    group: CyclicGroup
    truncation: int
    u_class: ClassMonomial
    citation: str

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise DifferentialError("theory truncation index must be >= 1")
        if (
            self.u_class.coeff != 1
            or self.u_class.norms
            or any(self.u_class.a_exp)
        ):
            raise DifferentialError(
                "permanent-cycle facts must carry a pure orientation class "
                "with coefficient 1"
            )

    @property
    def theory(self) -> str:
        if self.group.exponent == 1:
            return f"BPR<{self.truncation}>"
        return f"BP(({self.group}))<{self.truncation}>"

    @property
    def oriented_rep(self) -> VirtualRep:
        """The representation V with u_class = u_V."""
        u = self.u_class.u_exp
        return VirtualRep(self.u_class.level_group, (0, 2 * u[0], *u[1:]) if u else (0,))

    @property
    def periodicity(self) -> VirtualRep:
        return periodicity_element(self.oriented_rep)


def permanent_cycle_seeds(m: int) -> list[PermanentCycleFact]:
    """Built-in permanent cycles seeding periodicity transport.

    The C_2 fact u_{2^(m+1) sigma} is parametrized by the height index m; the
    six C_4 facts are the computed truncation-1 and truncation-2 cycles.
    """
    if m < 1:
        raise DifferentialError(f"height index must be >= 1, got {m}")
    c2, c4 = CyclicGroup(1), CyclicGroup(2)

    def u(group: CyclicGroup, two_sigma: int = 0, l1: int = 0) -> ClassMonomial:
        vec = (two_sigma,) if group is c2 else (two_sigma, l1)
        return ClassMonomial(group, group.exponent, u_exp=vec)

    return [
        PermanentCycleFact(c2, m, u(c2, two_sigma=1 << m), "Hu-Kriz"),
        PermanentCycleFact(c4, 1, u(c4, two_sigma=2), "Hill-Hopkins-Ravenel"),
        PermanentCycleFact(c4, 1, u(c4, l1=8), "Hill-Hopkins-Ravenel"),
        PermanentCycleFact(c4, 1, u(c4, two_sigma=1, l1=4), "Hill-Hopkins-Ravenel"),
        PermanentCycleFact(c4, 2, u(c4, two_sigma=4), "Hill-Shi-Wang-Xu"),
        PermanentCycleFact(c4, 2, u(c4, l1=32), "Hill-Shi-Wang-Xu"),
        PermanentCycleFact(c4, 2, u(c4, two_sigma=2, l1=16), "Hill-Shi-Wang-Xu"),
    ]


def periodicity_element(V: VirtualRep) -> VirtualRep:
    """The degree |V| - V in which a surviving u_V induces a periodicity."""
    return VirtualRep.of(V.group, triv=V.dimension) - V
