"""The shearing isomorphism between charts at different groups and heights.

Shearing relates the chart over C_{2^(n+1)} on or above the slope-(2^k - 1)
stratification line to the full chart over C_{2^(n-k+1)}: differential
lengths transform by r -> 2^k r - (2^k - 1), bidegrees by an affine map that
preserves the stem coordinate t - s, and named classes correspond by a
name-preserving rule that trades each norm factor for a norm one level up
times an explicit Euler-class monomial.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .reps import _DIGITS_CAP, _MAX_DIGITS, _MAX_EXPONENT, _MAX_HEIGHT, CyclicGroup, Line
from .reps import VirtualRep, _EngineError, _Record, _admit, _set, _shift, _threshold
from .reps import constant_C, line_L, rho_bar

if TYPE_CHECKING:
    from fractions import Fraction

    from .monomials import ClassMonomial

__all__ = [
    "ShearContext",
    "ShearError",
    "shear_length",
    "unshear_length",
    "shear_degree",
    "euler_ratio",
    "correspond_class",
    "region_of",
    "TowerEntry",
    "tower_report",
]


class ShearError(_EngineError):
    """Raised for out-of-range shearing parameters or off-image lengths."""


class ShearContext(_Record):
    """A shear between the chart over ``source_group`` and one k steps up.

    ``grading`` is the representation grading the target-side page; its
    C_{2^k}-fixed points grade the source-side page.  k = 0 is accepted and
    acts as the identity.
    """

    __match_args__ = ("source_group", "k", "grading")

    def __init__(self, source_group: CyclicGroup, k: int, grading: VirtualRep) -> None:
        if type(grading) is not VirtualRep:
            raise ShearError(f"shear grading must be a VirtualRep, got {grading!r}")
        _admit(k, "shear step k", 0, _MAX_EXPONENT - source_group.exponent, error=ShearError)
        if k > 0 and source_group.exponent < 1:
            raise ShearError("the source group of a nontrivial shear cannot be trivial")
        if grading.group.exponent != source_group.exponent + k:
            raise ShearError(
                f"grading {grading} lives over {grading.group}, "
                f"expected {CyclicGroup(source_group.exponent + k)}"
            )
        _set(self, "source_group", source_group)
        _set(self, "k", k)
        _set(self, "grading", grading)

    @property
    def target_group(self) -> CyclicGroup:
        """The group k doublings above the source: the grading's group."""
        return self.grading.group

    @classmethod
    def lift(
        cls, source_group: CyclicGroup, k: int, grading: VirtualRep | None = None
    ) -> "ShearContext":
        """Context shearing ``source_group`` up k steps; default grading 0."""
        if grading is None:
            _admit(k, "shear step k", 0, _MAX_EXPONENT - source_group.exponent, error=ShearError)
            grading = VirtualRep.zero(CyclicGroup(source_group.exponent + k))
        return cls(source_group, k, grading)

    @property
    def source_threshold(self) -> Fraction:
        """Horizontal line bounding the source-side isomorphism region."""
        if self.k == 0:
            from fractions import Fraction
            return Fraction(0)
        return constant_C(self.grading, self.k)


def shear_length(r: int, k: int) -> int:
    """Length transform r -> 2^k * r - (2^k - 1); the result is 1 mod 2^k.
    Like r, it has at most 3,000 digits, so :func:`unshear_length` inverts it."""
    _admit(k, "shear step k", 0, _MAX_EXPONENT, error=ShearError)
    _admit(r, "differential length", 2, error=ShearError)
    return _admit(((r - 1) << k) + 1, "sheared length", error=ShearError)


def unshear_length(r_prime: int, k: int) -> int:
    """Inverse of :func:`shear_length`.

    Raises :class:`ShearError` when r_prime is not congruent to 1 mod 2^k:
    such a length is not in the image of shearing, so no differential of that
    length can exist in the sheared region.
    """
    _admit(k, "shear step k", 0, _MAX_EXPONENT, error=ShearError)
    _admit(r_prime, "sheared length", error=ShearError)
    if k == 0:
        return shear_length(r_prime, 0)
    if r_prime < 3:
        raise ShearError(f"sheared lengths are >= 3, got {r_prime}")
    step = 1 << k
    if r_prime % step != 1 % step:
        raise ShearError(
            f"length {r_prime} is not 1 mod 2^{k}: not in the image of shearing, "
            f"so no differential of this length exists in the region"
        )
    return (r_prime + step - 1) // step


def shear_degree(ctx: ShearContext, t: int, s: int) -> tuple[int, int]:
    """Bidegree transform: (t, s) on the source page to (t', s') on the target.

    t' = (|V^{C_{2^k}}| * 2^k - |V|) + 2^k t, and s' shifts so that the stem
    coordinate t - s is preserved.  t and s have at most 3,000 digits.
    """
    _admit(t, "t", error=ShearError)
    _admit(s, "s", error=ShearError)
    offset = _shift(ctx.grading, ctx.k)
    t_prime = offset + (1 << ctx.k) * t
    s_prime = offset + ((1 << ctx.k) - 1) * (t - s) + (1 << ctx.k) * s
    return t_prime, s_prime


def euler_ratio(k: int, j: int, power: int) -> ClassMonomial:
    """The Euler-class monomial traded against a norm factor under shearing.

    Expanding the ratio of the Euler classes of the two reduced-regular
    representations of C_{2^(k+j)} gives a_lambda_m to the power 2^(m-1) for
    j <= m <= k+j-1; ``power`` scales every exponent.  The result is a
    top-level monomial over C_{2^(k+j)}, built from ``rho_bar`` and
    ``expand_euler``, the homes of those weights and that expansion.
    """
    _admit(k, "euler_ratio index k", error=ShearError)
    _admit(j, "euler_ratio index j", error=ShearError)
    if k < 1 or j < 1:
        raise ShearError(f"euler_ratio indices must satisfy k, j >= 1, got ({k}, {j})")
    _admit(power, "euler_ratio power", 0, error=ShearError)
    from .monomials import expand_euler
    return expand_euler((rho_bar(k + j) - rho_bar(k + j, k)) * power)


def correspond_class(m: ClassMonomial, ctx: ShearContext) -> ClassMonomial:
    """Transport a monomial from the source chart to the target chart.

    Euler and orientation classes keep their names (pulled back along the
    quotient); each norm factor (i, j) becomes (i, j+k) times
    euler_ratio(k, j, (2^i - 1) * e); the level rises by k and the coefficient
    is preserved, then torsion-reduced at the new level.
    """
    if m.group != ctx.source_group:
        raise ShearError(
            f"class lives over {m.group}, context shears from {ctx.source_group}"
        )
    if ctx.k == 0:
        return m
    new_level = m.level + ctx.k
    a = list(m.a_exp) + [0] * ctx.k
    u = list(m.u_exp) + [0] * ctx.k
    norms = []
    # euler_ratio's rho_bar weights, inline for speed;
    # test_correspond_class_trades_each_norm_for_its_euler_ratio pins the two together
    for i, j, e in m.norms:
        norms.append((i, j + ctx.k, e))
        power = ((1 << i) - 1) * e
        for t in range(j, ctx.k + j):
            a[t] += (1 << (t - 1)) * power
    if max(a) >= _DIGITS_CAP:  # the other fields of an admitted monomial stay admitted
        raise ShearError(f"sheared exponent has more than {_MAX_DIGITS} digits")
    return type(m)._trusted(
        ctx.target_group, new_level, m.coeff, norms, tuple(a), tuple(u)
    )


def region_of(m: ClassMonomial, ctx: ShearContext) -> str:
    """Where a source-chart class sits relative to the isomorphism region.

    Returns ``"interior"``, ``"boundary"`` (exactly on the horizontal
    threshold line: treated as in-region, but only classes surviving
    localization are matched there), or ``"outside"``.  The test runs in
    integers: s * 2^k against the numerator of ``ctx.source_threshold``, with
    x = stem - |V^{C_{2^k}}|.
    """
    k, V = ctx.k, ctx.grading
    scaled_s, threshold = m.filtration << k, _threshold(V, k)
    if m.stem < V.fixed_dimension(k) or scaled_s < threshold:
        return "outside"
    if scaled_s == threshold:
        return "boundary"
    return "interior"


class TowerEntry(_Record):
    """One stage of the tower of shearing isomorphisms."""

    __match_args__ = ("k", "line", "threshold", "target_group", "target_height")

    def __init__(
        self, k: int, line: Line, threshold: Fraction, target_group: CyclicGroup,
        target_height: int,
    ) -> None:
        _set(self, "k", k)
        _set(self, "line", line)
        _set(self, "threshold", threshold)
        _set(self, "target_group", target_group)
        _set(self, "target_height", target_height)


def tower_report(n: int, m: int, grading: VirtualRep | None = None) -> list[TowerEntry]:
    """The tower for the height-(2^n * m) theory over C_{2^(n+1)}.

    Entry k (1 <= k <= n) pairs the region on or above the slope-(2^k - 1)
    line with the full chart of the height-(h / 2^k) theory over
    C_{2^(n-k+1)}.  Each row costs O(1) after one O(n) pass over the grading.
    """
    _admit(n, "tower index n", most=_MAX_EXPONENT - 1, error=ShearError)
    _admit(m, "tower index m", most=_MAX_HEIGHT, error=ShearError)
    if n < 1 or m < 1:
        raise ShearError(f"tower indices must satisfy n >= 1, m >= 1, got ({n}, {m})")
    if grading is not None and type(grading) is not VirtualRep:
        raise ShearError(f"tower grading must be a VirtualRep, got {grading!r}")
    group = CyclicGroup(n + 1)
    V = VirtualRep.zero(group) if grading is None else grading
    if V.group != group:
        raise ShearError(f"tower grading must live over {group}, got {V.group}")
    h = (1 << n) * m
    return [
        TowerEntry(k, line_L(V, k), constant_C(V, k), CyclicGroup(n - k + 1), h >> k)
        for k in range(1, n + 1)
    ]
