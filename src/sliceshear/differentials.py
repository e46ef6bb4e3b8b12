"""Differential records: validation, seed families, and transport.

A differential is a page-r arrow between two monomials with provenance.  The
engine never claims a page is complete; it validates bidegree constraints,
generates the classical families, and transports differentials along the
shearing isomorphism.

``Differential`` has one constructor, which checks every field.  The
families, ``transport``, ``leibniz`` and the DSL and JSON readers all build
through it, so a sheared page past 3,000 digits is refused there.
"""

from __future__ import annotations

import warnings

from .monomials import ClassMonomial, MonomialError, expand_orientation
from .reps import _DIGITS_CAP, _MAX_EXPONENT, _MAX_HEIGHT, _MAX_INDEX, CyclicGroup, VirtualRep
from .reps import _admit, _describe, _EngineError, _Record, _set

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


class Differential(_Record):
    """A d_page arrow source -> target in the chart over ``group``.

    Provenance records how the arrow was obtained and is ignored by equality
    and hash, so a transported differential compares equal to the directly
    generated one.
    """

    __match_args__ = ("group", "page", "source", "target", "provenance")
    _compared = ("group", "page", "source", "target")

    def __init__(
        self, group: CyclicGroup, page: int, source: ClassMonomial, target: ClassMonomial,
        provenance: str = "user",
    ) -> None:
        if type(group) is not CyclicGroup:
            raise DifferentialError(f"differential group must be a CyclicGroup, got {_describe(group)}")
        if type(page) is not int or not 2 <= page < _DIGITS_CAP:  # a sheared page can be longer
            _admit(page, "differential page", 2, error=DifferentialError)
        if type(source) is not ClassMonomial:
            raise DifferentialError(f"differential source must be a ClassMonomial, got {_describe(source)}")
        if type(target) is not ClassMonomial:
            raise DifferentialError(f"differential target must be a ClassMonomial, got {_describe(target)}")
        if provenance not in PROVENANCES:
            raise DifferentialError(f"unknown provenance {_describe(provenance)}")
        _set(self, "group", group)
        _set(self, "page", page)
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "provenance", provenance)


def validate(d: Differential) -> list[str]:
    """Check the bidegree constraints; an empty list means the arrow is valid.

    Violations are reported in a fixed order (group/level, endpoints, stem,
    filtration, degree), so the first entry is the first violated equation.
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
    src = d.source._degree_vector()
    if d.target._degree_vector() != (src[0] - 1, *src[1:]):
        want = d.source.degree() - VirtualRep.of(d.source.level_group, triv=1)
        problems.append(
            f"degree mismatch: target degree {d.target.degree()} is not source "
            f"degree minus one trivial summand ({want})"
        )
    return problems


def hu_kriz_seed(i: int) -> Differential:
    """The length-(2^(i+1) - 1) differential on u_{2sigma}^(2^(i-1)) over C_2.

    These arrows, d(u_{2sigma}^(2^(i-1))) = t_i a_sigma^(2^(i+1)-1), are the
    classical seed family that transports up the tower: the n = 0 member of
    :func:`hhr_family`, built by the same code.
    """
    _admit(i, "seed index", 1, _MAX_INDEX, error=DifferentialError)
    return _slice_differential(0, i, "seed")


def hhr_family(n: int, i: int) -> Differential:
    """The slice differential d(u_{2sigma}^(2^(i-1))) over C_{2^(n+1)}.

    Page 2^(n+1) (2^i - 1) + 1, target N(t_i) * a_rhobar^(2^i - 1) *
    a_sigma^(2^i) in canonical form; n = 0 reproduces :func:`hu_kriz_seed`.
    """
    _admit(n, "group index", 0, _MAX_EXPONENT - 1, error=DifferentialError)
    _admit(i, "family index", 1, _MAX_INDEX, error=DifferentialError)
    return _slice_differential(n, i, "generated")


def _slice_differential(n: int, i: int, provenance: str) -> Differential:
    group = CyclicGroup(n + 1)
    zero = (0,) * (n + 1)
    # the callers admit n >= 0 and i >= 1, so every field below is admitted
    source = ClassMonomial._trusted(group, n + 1, 1, (), zero, (1 << (i - 1),) + (0,) * n)
    power = (1 << i) - 1
    # a_rhobar^power * a_sigma^(2^i), inline for speed;
    # test_hhr_family_is_its_named_classes pins it to expand_euler
    a = [power + (1 << i)] + [(1 << (m - 1)) * power for m in range(1, n + 1)]
    target = ClassMonomial._trusted(group, n + 1, 1, ((i, n + 1, 1),), tuple(a), zero)
    page = (1 << (n + 1)) * power + 1
    return Differential(group, page, source, target, provenance)


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
    from . import shearing
    _admit(k, "shear step k", 0, _MAX_EXPONENT - d.group.exponent, error=shearing.ShearError)
    if grading is None:
        # the source degree pulled back to the target group, padded from its
        # vector; pullback_to words the refusal of a source above that group
        group = CyclicGroup(d.group.exponent + k)
        extra = group.exponent - d.source.level
        grading = (
            VirtualRep(group, d.source._degree_vector() + (0,) * extra) if extra >= 0
            else d.source.degree().pullback_to(group)
        )
    ctx = shearing.ShearContext.lift(d.group, k, grading)
    if k == 0:
        return Differential(d.group, d.page, d.source, d.target, "transported")
    if shearing.region_of(d.source, ctx) == "outside":
        warnings.warn(
            f"transport source at (stem {d.source.stem}, filtration "
            f"{d.source.filtration}) lies outside the isomorphism region "
            f"(threshold s = {ctx.source_threshold})",
            RegionWarning,
            stacklevel=2,
        )
    page = ((d.page - 1) << k) + 1  # shear_length's value; the constructor bounds it as a page
    source = shearing.correspond_class(d.source, ctx)
    target = shearing.correspond_class(d.target, ctx)
    return Differential(ctx.target_group, page, source, target, "transported")


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


class PermanentCycleFact(_Record):
    """The orientation class u_V of ``oriented_rep`` recorded as a permanent cycle."""

    __match_args__ = ("truncation", "oriented_rep", "citation")

    def __init__(self, truncation: int, oriented_rep: VirtualRep, citation: str) -> None:
        if type(oriented_rep) is not VirtualRep:
            raise DifferentialError(f"oriented rep must be a VirtualRep, got {_describe(oriented_rep)}")
        _admit(truncation, "theory truncation index", 1, error=DifferentialError)
        expand_orientation(oriented_rep)
        _set(self, "truncation", truncation)
        _set(self, "oriented_rep", oriented_rep)
        _set(self, "citation", citation)

    @property
    def group(self) -> CyclicGroup:
        return self.oriented_rep.group

    @property
    def u_class(self) -> ClassMonomial:
        return expand_orientation(self.oriented_rep)

    @property
    def theory(self) -> str:
        if self.group.exponent == 1:
            return f"BPR<{self.truncation}>"
        return f"BP(({self.group}))<{self.truncation}>"

    @property
    def periodicity(self) -> VirtualRep:
        return periodicity_element(self.oriented_rep)


def permanent_cycle_seeds(m: int) -> list[PermanentCycleFact]:
    """Built-in permanent cycles seeding periodicity transport.

    The C_2 fact u_{2^(m+1) sigma} is parametrized by the height index m; the
    six C_4 facts are the computed truncation-1 and truncation-2 cycles.
    """
    _admit(m, "height index", 1, _MAX_HEIGHT, error=DifferentialError)
    c2, c4 = CyclicGroup(1), CyclicGroup(2)
    facts = [
        (m, VirtualRep.of(c2, sigma=2 << m), "Hu-Kriz"),
        (1, VirtualRep.of(c4, sigma=4), "Hill-Hopkins-Ravenel"),
        (1, VirtualRep.of(c4, lam={1: 8}), "Hill-Hopkins-Ravenel"),
        (1, VirtualRep.of(c4, sigma=2, lam={1: 4}), "Hill-Hopkins-Ravenel"),
        (2, VirtualRep.of(c4, sigma=8), "Hill-Shi-Wang-Xu"),
        (2, VirtualRep.of(c4, lam={1: 32}), "Hill-Shi-Wang-Xu"),
        (2, VirtualRep.of(c4, sigma=4, lam={1: 16}), "Hill-Shi-Wang-Xu"),
    ]
    return [PermanentCycleFact(t, V, who) for t, V, who in facts]


def periodicity_element(V: VirtualRep) -> VirtualRep:
    """The degree |V| - V in which a surviving u_V induces a periodicity."""
    return VirtualRep.of(V.group, triv=V.dimension) - V
