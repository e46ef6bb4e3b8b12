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

import sys
from typing import TYPE_CHECKING

from .reps import _MAX_EXPONENT, _MAX_HEIGHT, CyclicGroup, Line, RepError, VirtualRep, _admit
from .reps import _bounded, _Record, _set, line_L

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


class VanishingProfile(_Record):
    """Height and grading data for the chart over C_{2^(n+1)}.

    ``h`` is the chromatic height 2^n * m of the theory; it must be divisible
    by 2^k for every subgroup level checked, i.e. by 2^n.
    """

    __match_args__ = ("n", "h", "grading")

    def __init__(self, n: int, h: int, grading: VirtualRep) -> None:
        if type(grading) is not VirtualRep:
            raise RepError(f"profile grading must be a VirtualRep, got {grading!r}")
        _admit(n, "profile index n")
        _admit(h, "height", most=_MAX_HEIGHT)  # both before n's range, as the messages go
        _admit(n, "profile index n", 0, _MAX_EXPONENT - 1)
        if h < 1 or h % (1 << n):
            raise RepError(f"height {h} is not a positive multiple of 2^{n}")
        if grading.group.exponent != n + 1:
            raise RepError(
                f"profile grading must live over {CyclicGroup(n + 1)}, got {grading.group}"
            )
        _set(self, "n", n)
        _set(self, "h", h)
        _set(self, "grading", grading)

    @property
    def group(self) -> CyclicGroup:
        return self.grading.group


def N_constant(h: int, n: int, k: int) -> int:
    """The vanishing offset N_k = 2^(h/2^k + n + 1) - 2^(n+1) + 2^k."""
    _check_vanishing_index(h, n, k)
    return (1 << (h // (1 << k) + n + 1)) - (1 << (n + 1)) + (1 << k)


def _check_vanishing_index(h: int, n: int, k: int) -> None:
    """Raise the RepError ``N_constant`` raises for (h, n, k), building nothing."""
    ok = type(h) is type(n) is type(k) is int and 0 <= k <= n < _MAX_EXPONENT and h <= _MAX_HEIGHT
    if not ok:  # one test on the hot path
        _admit(h, "height", most=_MAX_HEIGHT)
        _admit(n, "group index n", most=_MAX_EXPONENT - 1)
        _admit(k, "vanishing index k", 0, n, f"n={n}")
    if h < 1 or h % (1 << k):
        _bounded(h, error=RepError, what="height")  # h < 1 has no bound below yet
        raise RepError(f"height {h} is not divisible by 2^{k}")


def max_length(h: int, n: int, k: int) -> int:
    """Largest admissible length for sources on or above the slope-(2^k - 1)
    line: N_k - (2^k - 1)."""
    return N_constant(h, n, k) - ((1 << k) - 1)


def vanishing_line(V: VirtualRep, h: int, k: int) -> Line:
    """The slope-(2^k - 1) stratification line shifted up by N_k; n comes from V's group."""
    return line_L(V, k).shifted(N_constant(h, V.group.exponent - 1, k))


def boundary_line(V: VirtualRep) -> Line:
    """The boundary of the positive cone on the V-graded page over V's group G.

    Slope |G| - 1 and intercept -|V| + |G| * max_H |V^H|, the maximum running
    over all subgroups.
    """
    return V._cone_line


class Violation(_Record):
    """One violated admissibility clause; k is None for the boundary clause."""

    __match_args__ = ("k", "clause", "message")

    def __init__(self, k: int | None, clause: str, message: str) -> None:
        _set(self, "k", k)
        _set(self, "clause", clause)
        _set(self, "message", message)

    def __str__(self) -> str:
        where = "boundary" if self.k is None else f"k={self.k}"
        return f"[{where} {self.clause}] {self.message}"


_DIFFERENTIALS = f"{__package__}.differentials"  # the module admissible's d comes from


def admissible(d: Differential, profile: VanishingProfile) -> list[Violation]:
    """Check every admissibility clause; an empty list means admissible.

    Positions are taken on the profile's graded page, x = stem - |V|.  For
    each 0 <= k <= n: a source on or above the slope-(2^k - 1) line must have
    length at most N_k - (2^k - 1) and congruent to 1 mod 2^k; a source below
    it must land strictly below the vanishing line.  Every target must lie on
    or below the positive-cone boundary.  Differentials whose source has
    x < 0 are skipped entirely (outside the region the constraints govern).
    """
    # a Differential exists only once its module is loaded, so the test imports
    # nothing: the vanishing table loads no monomials, and a call spends no import
    differentials = sys.modules.get(_DIFFERENTIALS)
    if differentials is None or type(d) is not differentials.Differential:
        raise RepError(f"admissible differential must be a Differential, got {d!r}")
    if type(profile) is not VanishingProfile:
        raise RepError(f"admissible profile must be a VanishingProfile, got {profile!r}")
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
            ceiling = vanishing_line(V, h, k)
            if ceiling.on_or_above(x_tgt, s_tgt):
                out.append(
                    Violation(
                        k,
                        "target-region",
                        f"target at ({x_tgt}, {s_tgt}) is not strictly below "
                        f"the vanishing line {ceiling.equation()}",
                    )
                )
    border = boundary_line(V)
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
