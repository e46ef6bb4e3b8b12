"""Canonical monomials of named spectral-sequence classes.

A :class:`ClassMonomial` is an integer multiple of a product of Euler classes
``a_W``, orientation classes ``u_W`` and normed polynomial-generator classes
``N(t_i)`` living over a subgroup level of an ambient cyclic 2-group.  Degree
and bidegree are integer closed forms in the stored exponents, computed once
per monomial on first read: the degree is memoized as its coefficient vector,
which ``degree()`` wraps in a fresh ``VirtualRep``, so the per-item checks
compare tuples and build no representation.  Monomials are immutable and
always kept in canonical form, including torsion reduction of the coefficient.

A monomial has two doors.  ``ClassMonomial(...)`` admits: it checks every
field, for values from outside the engine.  ``ClassMonomial._trusted(...)``
only canonicalizes, for the producers whose fields are admitted by
construction (JSON import after its schema checks, the DSL after its factor
checks, the class correspondence and the HHR families).  Both run one
canonicalizing body.
"""

from __future__ import annotations

from typing import Iterable

from .reps import CyclicGroup, RepError, VirtualRep, _admit, _EngineError, _Record

__all__ = [
    "ClassMonomial",
    "MonomialError",
    "expand_euler",
    "expand_orientation",
    "norm_class",
    "build_D",
]


class MonomialError(_EngineError):
    """Raised for ill-formed monomials or mismatched products."""


# a_exp / u_exp basis layout: the slots of reps.basis_names(level), i.e.
# index 0 is sigma (2*sigma for u's) and index i is lambda_i for
# 1 <= i <= level-1.  Level 0 carries no factors.


class ClassMonomial(_Record):
    """coeff * prod N_{C_2}^{C_{2^j}}(t_i)^e * prod a_W^e * prod u_W^e.

    ``group`` is the ambient group of the chart; ``level`` l means the class
    lives over the subgroup C_{2^l} (top-level classes have l = exponent).
    ``norms`` holds (i, j, exponent) triples, sorted by (j, i); the a/u
    exponent vectors run over the bases (sigma, lambda_1..lambda_{l-1}) and
    (2sigma, lambda_1..lambda_{l-1}).

    The constructor canonicalizes: norm factors are merged and sorted and the
    coefficient is reduced by the torsion of the Euler classes present (a_sigma
    kills 2, a_lambda_i kills 2^(i+1); the minimum of those moduli applies).
    A vanishing coefficient collapses everything to the zero class.
    """

    __match_args__ = ("group", "level", "coeff", "norms", "a_exp", "u_exp")

    def __init__(
        self,
        group: CyclicGroup,
        level: int,
        coeff: int = 1,
        norms: Iterable[tuple[int, int, int]] = (),
        a_exp: tuple[int, ...] = (),
        u_exp: tuple[int, ...] = (),
    ) -> None:
        # admits every field, then canonicalizes; exported fields admit plain
        # ints only, so bools and floats are refused
        if type(level) is not int or not 0 <= level <= group.exponent:
            raise MonomialError(f"level {level} out of range for ambient group {group}")
        _admit(coeff, "coefficient", error=MonomialError)
        a = _sized("a_exp", a_exp, level)
        u = _sized("u_exp", u_exp, level)
        norms = tuple(norms)  # any iterable, read here and again to merge
        for i, j, e in norms:
            if type(i) is not int or type(j) is not int or i < 1 or not 1 <= j <= level:
                raise MonomialError(f"norm factor ({i}, {j}) out of range at level {level}")
            if type(e) is not int or e < 0:
                raise MonomialError("norm exponents must be non-negative integers")
        self._canonicalize(group, level, coeff, norms, a, u)

    @classmethod
    def _trusted(cls, group, level, coeff, norms, a, u) -> "ClassMonomial":
        """``cls(group, level, coeff, norms, a, u)`` with no checks, for a
        producer whose fields are admitted by construction: ``level`` and
        ``coeff`` plain ints, 0 <= level <= group.exponent; ``a`` and ``u``
        tuples of ``level`` plain ints >= 0; each norm (i, j, e) plain ints,
        i >= 1, 1 <= j <= level, e >= 0, in any order and not yet merged."""
        m = object.__new__(cls)
        m._canonicalize(group, level, coeff, norms, a, u)
        return m

    def _canonicalize(self, group, level, coeff, norms, a, u) -> None:
        """Merge and sort the norms, reduce the coefficient by torsion, and
        set every field; the one body behind both constructors."""
        if len(norms) == 1:
            # one triple is already merged and sorted; rebuilt, as it may be a list
            i, j, e = norms[0]
            norms = ((i, j, e),) if e else ()
        elif norms:
            merged: dict[tuple[int, int], int] = {}
            for i, j, e in norms:
                if e:
                    merged[j, i] = merged.get((j, i), 0) + e
            norms = tuple([(i, j, e) for (j, i), e in sorted(merged.items())])
        else:
            norms = ()
        # torsion: a_sigma kills 2 and a_lambda_i kills 2^(i+1), so the first
        # Euler class present gives the smallest modulus
        for i, e in enumerate(a):
            if e:
                coeff %= 2 << i
                break
        if coeff == 0:
            a = u = (0,) * level
            norms = ()
        # every field in one step, on the instance dict, the grading caches
        # preset for first read.  The dict is larger than what eight _set calls
        # or __slots__ make, but with either, tower-sweep ran at about 0.975x and
        # 0.985x of this one update's speed
        self.__dict__.update(
            group=group, level=level, coeff=coeff, norms=norms, a_exp=a, u_exp=u,
            _degree=None, _bidegree=None,
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls, group: CyclicGroup, level: int | None = None) -> "ClassMonomial":
        lv = group.exponent if level is None else level
        return cls(group, lv)

    @classmethod
    def zero(cls, group: CyclicGroup, level: int | None = None) -> "ClassMonomial":
        lv = group.exponent if level is None else level
        return cls(group, lv, coeff=0)

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    @property
    def is_one(self) -> bool:
        return (
            self.coeff == 1
            and not self.norms
            and not any(self.a_exp)
            and not any(self.u_exp)
        )

    @property
    def level_group(self) -> CyclicGroup:
        return CyclicGroup(self.level)

    # -- grading -------------------------------------------------------------

    def degree(self) -> VirtualRep:
        """RO(C_{2^level}) degree of the monomial: a new ``VirtualRep`` around
        the coefficient vector, which is computed once and cached.

        A norm factor (i, j, e) adds c = e(2^i - 1) regular representations of
        C_{2^j} by name: c to 1 and to sigma, c*2^(m-1) to lambda_m for m < j.
        a_W adds -W; u_W adds |W| - W, i.e. 2 - 2sigma or 2 - lambda_i.
        """
        return VirtualRep(self.level_group, self._degree_vector())

    def _degree_vector(self) -> tuple[int, ...]:
        """``degree().coeffs``, memoized: what the per-item checks compare."""
        if self._degree is None:
            co = [0] * (self.level + 1)
            # regular_rep's weights, inline for speed; a law test pins the two together
            for i, j, e in self.norms:
                c = e * ((1 << i) - 1)
                co[0] += c
                co[1] += c
                for m in range(1, j):
                    co[1 + m] += c << (m - 1)
            for idx, (a, u) in enumerate(zip(self.a_exp, self.u_exp)):
                co[0] += 2 * u
                co[1 + idx] -= a + (2 * u if idx == 0 else u)
            object.__setattr__(self, "_degree", tuple(co))
        return self._degree

    def bidegree(self) -> tuple[int, int, int]:
        """(stem, filtration, slice_dim), computed once and cached.

        slice_dim = sum of e(2^i - 1)2^j over norm factors, filtration =
        a_sigma + 2 * sum(a_lambda_i), stem = slice_dim - filtration = |degree|.
        """
        if self._bidegree is None:
            slice_dim = 0
            for i, j, e in self.norms:
                slice_dim += (e * ((1 << i) - 1)) << j
            a = self.a_exp  # a_sigma counts once, each a_lambda_i twice
            filtration = 2 * sum(a) - a[0] if a else 0
            object.__setattr__(
                self, "_bidegree", (slice_dim - filtration, filtration, slice_dim)
            )
        return self._bidegree

    @property
    def stem(self) -> int:
        return self.bidegree()[0]

    @property
    def filtration(self) -> int:
        return self.bidegree()[1]

    @property
    def slice_dim(self) -> int:
        return self.bidegree()[2]

    # -- algebra ---------------------------------------------------------------

    def __mul__(self, other: "ClassMonomial") -> "ClassMonomial":
        if not isinstance(other, ClassMonomial):
            return NotImplemented
        if self.group != other.group or self.level != other.level:
            raise MonomialError(
                f"cannot multiply classes over {self.group} level {self.level} "
                f"and {other.group} level {other.level}"
            )
        return ClassMonomial(
            self.group,
            self.level,
            self.coeff * other.coeff,
            self.norms + other.norms,
            tuple(a + b for a, b in zip(self.a_exp, other.a_exp)),
            tuple(a + b for a, b in zip(self.u_exp, other.u_exp)),
        )

    def __pow__(self, e: int) -> "ClassMonomial":
        if type(e) is not int or e < 0:
            raise MonomialError("monomial powers must be non-negative integers")
        return ClassMonomial(
            self.group,
            self.level,
            self.coeff**e,
            tuple((i, j, ex * e) for i, j, ex in self.norms),
            tuple(a * e for a in self.a_exp),
            tuple(u * e for u in self.u_exp),
        )


def _sized(name: str, vec: tuple[int, ...], level: int) -> tuple[int, ...]:
    if len(vec) > level:
        raise MonomialError(f"{name} has {len(vec)} entries, level is {level}")
    for e in vec:
        if type(e) is not int or e < 0:
            raise MonomialError(f"{name} entries must be non-negative integers")
    if len(vec) == level and type(vec) is tuple:
        return vec
    return tuple(vec) + (0,) * (level - len(vec))


def _check_class_rep(V: VirtualRep, kind: str) -> None:
    """The precondition of ``expand_euler`` and ``expand_orientation``."""
    if not V.is_actual() or V.c_triv != 0:
        raise RepError(
            f"{kind} classes require an actual representation with no trivial "
            f"summand, got {V}"
        )


def expand_euler(V: VirtualRep) -> ClassMonomial:
    """The Euler class of an actual representation, a_V = prod a_W^(c_W).

    V must have non-negative multiplicities and no trivial summand.  The
    result is a top-level monomial over V's group.
    """
    _check_class_rep(V, "Euler")
    return ClassMonomial(V.group, V.group.exponent, a_exp=V.coeffs[1:])


def expand_orientation(V: VirtualRep) -> ClassMonomial:
    """The orientation class u_V of an orientable actual representation.

    The sigma multiplicity must be even (the 2*sigma basis slot absorbs
    pairs); no trivial summand is allowed.
    """
    _check_class_rep(V, "orientation")
    if V.c_sigma % 2:
        raise RepError(f"{V} is not orientable: odd sigma multiplicity")
    n = V.group.exponent
    u = (V.c_sigma // 2,) + V.coeffs[2:] if n >= 1 else ()
    return ClassMonomial(V.group, n, u_exp=u)


def norm_class(
    group: CyclicGroup, i: int, j: int | None = None, level: int | None = None, exp: int = 1
) -> ClassMonomial:
    """N_{C_2}^{C_{2^j}}(t_i)^exp as a monomial; j defaults to the level."""
    lv = group.exponent if level is None else level
    jj = lv if j is None else j
    return ClassMonomial(group, lv, norms=((i, jj, exp),))


def _d_norms(n: int, m: int, e: int = 1) -> list[tuple[int, int, int]]:
    """The norm triples (2^(n-k) m, n, e) of D[n,m]^e, k = 1..n."""
    return [((1 << (n - k)) * m, n, e) for k in range(1, n + 1)]


def build_D(n: int, m: int) -> ClassMonomial:
    """The top-level product of norms N_{C_2}^{C_{2^n}}(t_{2^(n-k) m}), k = 1..n."""
    _admit(n, "D index n", error=MonomialError)
    _admit(m, "D index m", error=MonomialError)
    if n < 1 or m < 1:
        raise MonomialError(f"D indices must satisfy n >= 1, m >= 1, got ({n}, {m})")
    return ClassMonomial(CyclicGroup(n), n, norms=tuple(_d_norms(n, m)))
