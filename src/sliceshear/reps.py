"""Exact arithmetic for cyclic 2-groups and their real representation rings.

Virtual representations of C_{2^n} are stored on the 2-local basis
(1, sigma, lambda_1, ..., lambda_{n-1}): the trivial representation, the
sign representation, and the two-dimensional rotation by pi/2^i.  lambda_0
is never stored; it equals 2*sigma and is collapsed at parse time.  All
coefficients and line intercepts are integers, ``constant_C`` is an exact
rational, and nothing in this module touches floating point.  The tower's
per-k numbers (``fixed_dimension``, ``tau``, ``line_L``, ``constant_C``) each
read one series that a representation memoizes on first use.

``_admit`` is the engine's one admission rule for an integer handed in from
outside: every module that checks an index, step, page or height calls it.

The group and representation literals that ``VirtualRep.__str__`` prints are
parsed here too, with the DSL error classes those parsers raise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Mapping

__all__ = [
    "CyclicGroup",
    "VirtualRep",
    "Line",
    "RepError",
    "basis_names",
    "regular_rep",
    "rho_bar",
    "tau",
    "tau_series",
    "line_L",
    "constant_C",
    "DslError",
    "DslSyntaxError",
    "DslSemanticError",
    "parse_group_name",
    "parse_rep",
]


class _EngineError(ValueError):
    """Base of every engine error, so the CLI catches them all without importing their modules.
    ``code`` and ``kind`` are the CLI's exit code and error kind for the class."""

    code, kind = 3, "semantic"


class RepError(_EngineError):
    """A malformed group or representation, or an out-of-range subgroup index."""


class DslError(_EngineError):
    """Base for DSL failures; carries the source position when known.  Only
    ``parse`` and ``parse_class_expr`` fill in the line."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.reason, self.line, self.col = message, line, col

    def __str__(self) -> str:
        if self.line is None:
            return self.reason
        col = "" if self.col is None else f", col {self.col}"
        return f"line {self.line}{col}: {self.reason}"


class DslSyntaxError(DslError):
    """The text does not match the grammar."""

    code, kind = 2, "parse"


class DslSemanticError(DslError):
    """Well-formed text naming something the declared group cannot have."""


def _admit(value, name: str, least=None, most=None, where=None, error=RepError) -> int:
    """``value`` if it is a plain int in [least, most] (None: unbounded), else
    ``error``.  Bools, floats and int subclasses are refused.  A value out of
    range is worded "{name}={value} out of range for {where}" when ``where`` is
    given, else "{name} must be >= {least}"; a ``most`` comes with a ``where``."""
    if type(value) is not int:
        raise error(f"{name} must be an integer, got {value!r}")
    if not ((least is None or least <= value) and (most is None or value <= most)):
        if where is None:
            raise error(f"{name} must be >= {least}, got {value}")
        raise error(f"{name}={value} out of range for {where}")
    return value


@lru_cache(maxsize=128)
def basis_names(n: int, sigma: str = "s", lam: str = "l") -> tuple[str, ...]:
    """Names of the basis slots of RO(C_{2^n}) after the trivial one:
    ``(sigma, lam1, ..., lam{n-1})``, or ``()`` for n = 0.

    The same slots index a level-n monomial's ``a_exp``/``u_exp``; every
    basis name in canonical output (rep literals, JSON keys, DSL tokens)
    comes from here.
    """
    return (sigma, *(f"{lam}{i}" for i in range(1, n))) if n >= 1 else ()


@dataclass(frozen=True)
class CyclicGroup:
    """The cyclic 2-group C_{2^exponent}.

    Subgroups are exactly C_{2^k} for 0 <= k <= exponent, and every quotient
    C_{2^exponent}/C_{2^k} is again cyclic of order 2^(exponent-k).
    """

    exponent: int

    def __post_init__(self) -> None:
        if type(self.exponent) is not int or self.exponent < 0:
            raise RepError(
                f"group exponent must be a non-negative integer, got {self.exponent!r}"
            )

    @property
    def order(self) -> int:
        return 1 << self.exponent

    def subgroup(self, k: int) -> "CyclicGroup":
        if not 0 <= _admit(k, "subgroup index k") <= self.exponent:
            raise RepError(f"C_(2^{k}) is not a subgroup of {self}")
        return CyclicGroup(k)

    def quotient(self, k: int) -> "CyclicGroup":
        if not 0 <= _admit(k, "subgroup index k") <= self.exponent:
            raise RepError(f"cannot form the quotient of {self} by C_(2^{k})")
        return CyclicGroup(self.exponent - k)

    def __str__(self) -> str:
        try:
            return f"C{self.order}"
        except ValueError:  # the order has more digits than int-to-str allows
            return f"C_(2^{self.exponent})"


@dataclass(frozen=True)
class VirtualRep:
    """A virtual real representation of a cyclic 2-group.

    ``coeffs[0]`` is the multiplicity of the trivial representation,
    ``coeffs[1]`` of sigma (absent for the trivial group) and ``coeffs[1+i]``
    of lambda_i for 1 <= i <= exponent-1.  Values are immutable; arithmetic
    returns new objects.
    """

    group: CyclicGroup
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        want = self.group.exponent + 1
        if len(self.coeffs) != want:
            raise RepError(
                f"expected {want} basis coefficients for RO({self.group}), "
                f"got {len(self.coeffs)}"
            )
        for c in self.coeffs:
            if type(c) is not int:
                raise RepError(f"coefficients must be integers, got {c!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, group: CyclicGroup) -> "VirtualRep":
        return cls(group, (0,) * (group.exponent + 1))

    @classmethod
    def of(
        cls,
        group: CyclicGroup,
        triv: int = 0,
        sigma: int = 0,
        lam: Mapping[int, int] | None = None,
    ) -> "VirtualRep":
        """Build a representation from named multiplicities."""
        n = group.exponent
        co = [0] * (n + 1)
        co[0] = triv
        if sigma:
            if n == 0:
                raise RepError("sigma is not a basis element over the trivial group")
            co[1] = sigma
        for i, c in (lam or {}).items():
            if not 1 <= _admit(i, "lambda index") <= n - 1:
                raise RepError(f"lambda_{i} is not a basis element of RO({group})")
            co[1 + i] = c  # each i once, so the coefficient check sees c itself
        return cls(group, tuple(co))

    # -- coefficient access ------------------------------------------------

    @property
    def c_triv(self) -> int:
        return self.coeffs[0]

    @property
    def c_sigma(self) -> int:
        return self.coeffs[1] if self.group.exponent >= 1 else 0

    @property
    def dimension(self) -> int:
        """Virtual real dimension: triv + sigma + 2 * (sum of lambda parts)."""
        return sum(self.coeffs[:2]) + 2 * sum(self.coeffs[2:])

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_actual(self) -> bool:
        """True when every multiplicity is non-negative."""
        return all(c >= 0 for c in self.coeffs)

    # -- ring operations ---------------------------------------------------

    def _same_group(self, other: "VirtualRep") -> None:
        if self.group != other.group:
            raise RepError(
                f"representations live over different groups: "
                f"{self.group} vs {other.group}"
            )

    def __add__(self, other: "VirtualRep") -> "VirtualRep":
        self._same_group(other)
        return VirtualRep(self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "VirtualRep") -> "VirtualRep":
        self._same_group(other)
        return VirtualRep(self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "VirtualRep":
        return VirtualRep(self.group, tuple(-a for a in self.coeffs))

    def __mul__(self, scalar: int) -> "VirtualRep":
        if not isinstance(scalar, int):
            return NotImplemented
        return VirtualRep(self.group, tuple(scalar * a for a in self.coeffs))

    __rmul__ = __mul__

    # -- change of group ---------------------------------------------------

    def fixed_points(self, k: int) -> "VirtualRep":
        """The C_{2^k}-fixed representation, as a representation of the quotient.

        Basis rule: 1 survives always; sigma survives iff C_{2^k} lies in its
        kernel C_{2^(n-1)}; lambda_i survives iff C_{2^k} lies in its kernel
        C_{2^(n-i-1)}.  Surviving elements keep their names in the quotient.
        """
        quotient, co, n = self.group.quotient(k), self.coeffs, self.group.exponent
        return VirtualRep(quotient, co[: 2 if k < n else 1] + co[2 : n - k + 1])

    def fixed_dimension(self, k: int) -> int:
        """``fixed_points(k).dimension`` without building the quotient rep."""
        _admit(k, "fixed-point index k", 0, self.group.exponent, self.group)
        return self._series[0][k]

    @cached_property
    def _series(self) -> tuple[list[int], list[int]]:
        """|V^{C_{2^j}}| and tau_j for j = 0..n, computed on first read.  The first
        sums c_1 + [j < n] c_sigma + 2 c_lambda_i from j = n down (entry 0 is |V|);
        tau_j is the running maximum of |V^{C_{2^j}}|*2^j - |V|."""
        co = self.coeffs
        fixed = list(accumulate([co[0], *co[1:2], *(2 * c for c in co[2:])]))[::-1]
        return fixed, list(accumulate(((f << j) - fixed[0] for j, f in enumerate(fixed)), max))

    @cached_property
    def _lines(self) -> list[Line]:
        """``line_L`` for k = 0..n, built on first read and shared (a Line is immutable)."""
        return [Line((1 << k) - 1, t) for k, t in enumerate(self._series[1])]

    @cached_property
    def _cone_line(self) -> Line:
        """``boundary_line``: slope |G| - 1 and intercept |G| * max_j |V^{C_{2^j}}| - |V|."""
        fixed = self._series[0]
        order = 1 << self.group.exponent
        return Line(order - 1, order * max(fixed) - fixed[0])

    def pullback_to(self, group: CyclicGroup) -> "VirtualRep":
        """Name-preserving pullback along the quotient map onto this rep's group.

        Inverse to ``fixed_points``: fixed_points(pullback(V), k) == V.
        """
        extra = group.exponent - self.group.exponent
        if extra < 0:
            raise RepError(
                f"cannot pull back from {self.group} to the smaller group {group}"
            )
        return VirtualRep(group, self.coeffs + (0,) * extra)

    def restrict(self, m: int) -> "VirtualRep":
        """Restriction to the subgroup C_{2^m}, generated by gamma^(2^(n-m)).

        sigma restricts to sigma only on the full group; lambda_i restricts to
        lambda_{i-(n-m)} when that rotation is still free on C_{2^m}, to
        2*sigma when it becomes rotation by pi, and to two trivial summands
        once it is invisible.  With d = n - m < n: trivial = c_1 + c_sigma +
        2 * sum_{i<d} c_lambda_i, sigma = 2 c_lambda_d, lambda_j = c_lambda_{j+d}.
        """
        n = self.group.exponent
        _admit(m, "restriction level m", 0, n, self.group)
        if m == n:
            return self
        co, d = self.coeffs, n - m
        moving = (2 * co[d + 1], *co[d + 2 :]) if m else ()
        return VirtualRep(CyclicGroup(m), (co[0] + co[1] + 2 * sum(co[2 : d + 1]), *moving))

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        """Literal form used by the chart DSL, e.g. ``2-2s`` or ``10-2s-4l1``."""
        parts: list[str] = []
        for c, name in zip(self.coeffs, ("", *basis_names(self.group.exponent))):
            if c:
                mag = abs(c)
                sign = "-" if c < 0 else "+" if parts else ""
                parts.append(f"{sign}{'' if mag == 1 and name else mag}{name}")
        return "".join(parts) or "0"


# -- group and representation literals ---------------------------------------


def _int(text: str, col: int | None = None) -> int:
    """int() of a literal the grammar has matched.  A literal longer than the
    interpreter converts (4,300 digits by default) is a semantic error."""
    try:
        return int(text)
    except ValueError:
        raise DslSemanticError(
            f"integer literal of {len(text.lstrip('-'))} digits is too long", col=col
        ) from None


_GROUP_RE = re.compile(r"C(\d+)")


def parse_group_name(text: str, col: int = 0) -> CyclicGroup:
    m = _GROUP_RE.fullmatch(text.strip())
    if not m:
        raise DslSyntaxError(f"expected a group literal like C8, got {text.strip()!r}", col=col)
    order = _int(m.group(1), col)
    exponent = order.bit_length() - 1
    if order < 1 or (1 << exponent) != order:
        raise DslSemanticError(f"group order {order} is not a power of 2", col=col)
    return CyclicGroup(exponent)


# One signed term per match.  Each group takes its token's leading whitespace,
# so a group's start is where the scan of that token starts.
_REP_TERM = re.compile(r"(?P<sign>\s*[+-])?(?P<num>\s*\d+)?(?P<basis>\s*(?:s|l\d+))?")


def parse_rep(text: str, group: CyclicGroup, col_offset: int = 0) -> VirtualRep:
    """Parse a representation literal such as ``2-2s`` or ``4l1+2s``.  An
    error points at the coefficient or basis element it is about; columns
    count from where the scan of a token starts."""
    n = group.exponent
    co = [0] * (n + 1)
    stripped = text.rstrip()
    if not stripped.strip():
        raise DslSyntaxError("empty representation literal", col=col_offset)
    pos = 0
    while pos < len(stripped):
        m = _REP_TERM.match(stripped, pos)
        sign, num, basis = m.group("sign", "num", "basis")
        if num is None and basis is None:
            if sign:
                raise DslSyntaxError(
                    "dangling sign in representation literal", col=col_offset + m.end("sign")
                )
            raise DslSyntaxError(
                f"unexpected {stripped[pos:].lstrip()[:1]!r} in representation literal",
                col=col_offset + pos,
            )
        if pos and not sign:
            raise DslSyntaxError("terms must be joined by + or -", col=col_offset + pos)
        value = -1 if sign and sign[-1] == "-" else 1
        if num is not None:
            value *= _int(num.lstrip(), col_offset + m.start("num"))
        pos = m.end()
        if basis is None:
            co[0] += value
            continue
        basis, col = basis.lstrip(), col_offset + m.start("basis")
        if basis == "s":
            if n == 0:
                raise DslSemanticError(f"s is not a basis element of RO({group})", col=col)
            co[1] += value
        elif (i := _int(basis[1:], col)) == 0:
            # l0 is parser sugar for 2s
            if n == 0:
                raise DslSemanticError(f"l0 is not available over {group}", col=col)
            co[1] += 2 * value
        elif i <= n - 1:
            co[1 + i] += value
        else:
            raise DslSemanticError(f"l{i} is not a basis element of RO({group})", col=col)
    return VirtualRep(group, tuple(co))


def regular_rep(group: CyclicGroup) -> VirtualRep:
    """The regular representation 1 + rho_bar; ``rho_bar`` is the one home of its weights."""
    one = VirtualRep.of(group, triv=1)
    return one + rho_bar(group.exponent) if group.exponent else one


def rho_bar(n_plus_1: int, k: int = 0) -> VirtualRep:
    """The reduced-regular family over C_{2^(n+1)}.

    ``rho_bar(n+1, k)`` is sigma + sum_{m=1}^{n-k} 2^(m-1) lambda_m, of
    dimension 2^(n+1-k) - 1.  k = 0 recovers the full reduced regular
    representation.
    """
    n = n_plus_1 - 1
    _admit(k, "rho_bar index k", 0, n, f"C_(2^{n_plus_1})")  # no k for n_plus_1 < 1
    group = CyclicGroup(n_plus_1)
    return VirtualRep.of(
        group, sigma=1, lam={m: 1 << (m - 1) for m in range(1, n - k + 1)}
    )


@dataclass(frozen=True)
class Line:
    """A line s = slope*(t-s) + intercept on a fixed-grading chart page.

    Coordinates are (x, s) with x the stem t-s and s the filtration.  The
    line has an integer slope and an integer intercept; ``at`` is exact for
    a rational x too.  There is no floating point.
    """

    slope: int
    intercept: int

    def at(self, x: int) -> int:
        return self.slope * x + self.intercept

    def on_or_above(self, x: int, s: int) -> bool:
        """True when the chart point (x, s) lies on or above the line."""
        return s >= self.at(x)

    def shifted(self, ds: int) -> "Line":
        return Line(self.slope, self.intercept + ds)

    def equation(self) -> str:
        c = self.intercept
        if self.slope == 0:
            return f"s = {c}"
        lhs = f"s = {self.slope}(t-s)"
        if c == 0:
            return lhs
        return f"{lhs} {'+' if c > 0 else '-'} {abs(c)}"


def tau(V: VirtualRep, k: int) -> int:
    """Max over the subgroups C_{2^j}, 0 <= j <= k, of |V^{C_{2^j}}|*2^j - |V|.

    Subgroups of a cyclic 2-group are linearly ordered, so the family of
    subgroups of order at most 2^k contributes exactly j = 0..k.  The j = 0
    term vanishes, hence tau(V, k) >= 0 and tau(V, 0) = 0.
    """
    if type(k) is not int or not 0 <= k <= V.group.exponent:  # one test on line_L's path
        _admit(k, "tau index k", 0, V.group.exponent, V.group)
    return V._series[1][k]


def tau_series(V: VirtualRep, k: int) -> list[int]:
    """``[tau(V, 0), ..., tau(V, k)]``, read from V's memoized series."""
    tau(V, k)  # the range check
    return V._series[1][: k + 1]


def _shift(V: VirtualRep, k: int) -> int:
    """|V^{C_{2^k}}|*2^k - |V|: how far a shear by k moves a stem."""
    fixed = V._series[0]
    return (fixed[k] << k) - fixed[0]


def _threshold(V: VirtualRep, k: int) -> int:
    """tau(V, k) - shift: 2^k times the source threshold of a shear by k."""
    return tau(V, k) - _shift(V, k)


def line_L(V: VirtualRep, k: int) -> Line:
    """The slope-(2^k - 1) stratification line s = (2^k-1)(t-s) + tau(V, k), memoized on V."""
    tau(V, k)  # the range check
    return V._lines[k]


def constant_C(V: VirtualRep, k: int) -> Fraction:
    """Horizontal threshold on the sheared-down side of the slope-(2^k - 1) region.

    Equals (tau(V, k) - (|V^{C_{2^k}}|*2^k - |V|)) / 2^k, both read from V's
    memoized series; non-negative because tau is the max over a set
    containing that term.
    """
    _admit(k, "threshold index k", 1, V.group.exponent - 1, V.group)
    return Fraction(_threshold(V, k), 1 << k)
