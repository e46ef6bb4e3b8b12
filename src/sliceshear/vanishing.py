"""Vanishing lines and admissibility constraints on differentials.

For the height-(2^n m) theory over C_{2^(n+1)}, each stratification line of
slope 2^k - 1 carries a strong vanishing line N_k above it.  Differentials
sourced on or above the stratification line are bounded in length and
congruent to 1 mod 2^k; differentials sourced below it must land strictly
below the vanishing line; and every target stays on or below the boundary of
the positive cone.  ``admissible`` checks these necessary conditions; it
never asserts that a differential exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .reps import CyclicGroup, Line, RepError, VirtualRep, _admit, line_L

if TYPE_CHECKING:
    from .differentials import Differential

__all__ = [
    "VanishingProfile",
    "Violation",
    "N_constant",
    "vanishing_line",
    "boundary_line",
    "admissible",
    "max_length",
]


@dataclass(frozen=True)
class VanishingProfile:
    """Height and grading data for the chart over C_{2^(n+1)}.

    ``h`` is the chromatic height 2^n * m of the theory; it must be divisible
    by 2^k for every subgroup level checked, i.e. by 2^n.
    """

    n: int
    h: int
    grading: VirtualRep

    def __post_init__(self) -> None:
        _admit(self.n, "profile index n")
        _admit(self.h, "height")  # both types before n's range, as the messages go
        _admit(self.n, "profile index n", 0)
        if self.h < 1 or self.h % (1 << self.n):
            raise RepError(
                f"height {self.h} is not a positive multiple of 2^{self.n}"
            )
        if self.grading.group != self.group:
            raise RepError(
                f"profile grading must live over {self.group}, got {self.grading.group}"
            )

    @property
    def group(self) -> CyclicGroup:
        return CyclicGroup(self.n + 1)


def N_constant(h: int, n: int, k: int) -> int:
    """The vanishing offset N_k = 2^(h/2^k + n + 1) - 2^(n+1) + 2^k."""
    _check_vanishing_index(h, n, k)
    return (1 << (h // (1 << k) + n + 1)) - (1 << (n + 1)) + (1 << k)


def _check_vanishing_index(h: int, n: int, k: int) -> None:
    """Raise the RepError ``N_constant`` raises for (h, n, k), building nothing."""
    if not (type(h) is type(n) is type(k) is int and 0 <= k <= n):  # one test on the hot path
        _admit(h, "height")
        _admit(n, "group index n")
        _admit(k, "vanishing index k", 0, n, f"n={n}")
    if h < 1 or h % (1 << k):
        raise RepError(f"height {h} is not divisible by 2^{k}")


def max_length(h: int, n: int, k: int) -> int:
    """Largest admissible length for sources on or above the slope-(2^k - 1)
    line: N_k - (2^k - 1)."""
    return N_constant(h, n, k) - ((1 << k) - 1)


def vanishing_line(V: VirtualRep, h: int, n: int, k: int) -> Line:
    """The slope-(2^k - 1) stratification line shifted up by N_k."""
    return line_L(V, k).shifted(N_constant(h, n, k))


def boundary_line(V: VirtualRep, n: int) -> Line:
    """The boundary of the positive cone on the V-graded page over C_{2^(n+1)}.

    Slope |G| - 1 and intercept -|V| + |G| * max_H |V^H|, the maximum running
    over all subgroups.
    """
    _admit(n, "boundary group index n")
    # the group is built only to word the error, which it raises itself for a bad n
    if V.group.exponent != n + 1:
        raise RepError(f"boundary grading must live over {CyclicGroup(n + 1)}, got {V.group}")
    return V._cone_line


@dataclass(frozen=True)
class Violation:
    """One violated admissibility clause; k is None for the boundary clause."""

    k: int | None
    clause: str
    message: str

    def __str__(self) -> str:
        where = "boundary" if self.k is None else f"k={self.k}"
        return f"[{where} {self.clause}] {self.message}"


def admissible(d: Differential, profile: VanishingProfile) -> list[Violation]:
    """Check every admissibility clause; an empty list means admissible.

    Positions are taken on the profile's graded page, x = stem - |V|.  For
    each 0 <= k <= n: a source on or above the slope-(2^k - 1) line must have
    length at most N_k - (2^k - 1) and congruent to 1 mod 2^k; a source below
    it must land strictly below the vanishing line.  Every target must lie on
    or below the positive-cone boundary.  Differentials whose source has
    x < 0 are skipped entirely (outside the region the constraints govern).
    """
    if d.group != profile.group:
        raise RepError(
            f"differential over {d.group} does not match profile over {profile.group}"
        )
    V = profile.grading
    dim = V.fixed_dimension(0)
    x_src = d.source.stem - dim
    s_src = d.source.filtration
    x_tgt = d.target.stem - dim
    s_tgt = d.target.filtration
    if x_src < 0:
        return []
    h, n = profile.h, profile.n
    out: list[Violation] = []
    for k in range(n + 1):
        line = line_L(V, k)
        if line.on_or_above(x_src, s_src):
            bound = max_length(h, n, k)
            if d.page > bound:
                out.append(
                    Violation(
                        k,
                        "length",
                        f"length {d.page} exceeds the bound {bound} for sources "
                        f"on or above {line.equation()}",
                    )
                )
            step = 1 << k
            if d.page % step != 1 % step:
                out.append(
                    Violation(
                        k,
                        "congruence",
                        f"length {d.page} is not 1 mod 2^{k}, which shearing "
                        f"forces on or above {line.equation()}",
                    )
                )
        else:
            ceiling = line.shifted(N_constant(h, n, k))
            if ceiling.on_or_above(x_tgt, s_tgt):
                out.append(
                    Violation(
                        k,
                        "target-region",
                        f"target at ({x_tgt}, {s_tgt}) is not strictly below "
                        f"the vanishing line {ceiling.equation()}",
                    )
                )
    border = boundary_line(V, n)
    if s_tgt > border.at(x_tgt):
        out.append(
            Violation(
                None,
                "boundary",
                f"target at ({x_tgt}, {s_tgt}) lies above the positive-cone "
                f"boundary {border.equation()}",
            )
        )
    return out
