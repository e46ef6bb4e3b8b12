"""Shared test helpers: brute-force oracles and random-value generators.

The character oracle is deliberately independent of the production code: it
evaluates characters numerically (sums of cosines over group elements) and
rounds, rather than reusing any kernel/basis rule from the package.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
from fractions import Fraction
from html import escape
from typing import Union

from sliceshear import (
    ClassMonomial,
    CyclicGroup,
    Differential,
    DslSemanticError,
    DslSyntaxError,
    JsonSchemaError,
    Line,
    MonomialError,
    RepError,
    ShearContext,
    ShearError,
    TowerEntry,
    VanishingProfile,
    Violation,
    VirtualRep,
    basis_names,
    boundary_line,
    line_L,
    max_length,
    rho_bar,
    vanishing_line,
)
from sliceshear.differentials import PROVENANCES, validate
from sliceshear.dsl import ChartDocument, _int
from sliceshear.reps import _DIGITS_CAP, _MAX_DIGITS, _MAX_EXPONENT, _MAX_INDEX
from sliceshear.svg import _STYLE, CELL, PAD, _clip, _fmt, _guide_line
from sliceshear.monomials import _d_norms


def character(V: VirtualRep, j: int) -> float:
    """Character of V at the group element gamma^j of C_{2^n}."""
    n = V.group.exponent
    value = float(V.c_triv)
    if n >= 1:
        value += V.c_sigma * (-1.0) ** j
        for i in range(1, n):
            value += V.coeffs[1 + i] * 2.0 * math.cos(2.0 * math.pi * j / (1 << (i + 1)))
    return value


def fixed_dim_oracle(V: VirtualRep, k: int) -> int:
    """dim V^{C_{2^k}} by averaging the character over the subgroup."""
    n = V.group.exponent
    step = 1 << (n - k)
    total = sum(character(V, j * step) for j in range(1 << k))
    avg = total / (1 << k)
    assert abs(avg - round(avg)) < 1e-9, f"non-integral character average {avg}"
    return round(avg)


def restrict_oracle(V: VirtualRep, m: int) -> VirtualRep:
    """Restriction to C_{2^m} by character inner products against irreducibles.

    The subgroup is generated by gamma^(2^(n-m)); two-dimensional rotation
    irreducibles have real-type norm 2, the one-dimensional ones norm 1.
    """
    n = V.group.exponent
    sub = CyclicGroup(m)
    order = 1 << m
    step = 1 << (n - m)
    chi = [character(V, j * step) for j in range(order)]

    def inner(w_chi) -> float:
        return sum(chi[j] * w_chi(j) for j in range(order)) / order

    triv = inner(lambda j: 1.0)
    parts = {"triv": triv}
    sigma = 0.0
    lam = {}
    if m >= 1:
        sigma = inner(lambda j: (-1.0) ** j)
        for i in range(1, m):
            val = inner(lambda j, i=i: 2.0 * math.cos(2.0 * math.pi * j / (1 << (i + 1))))
            lam[i] = val / 2.0
    for name, val in {**parts, "sigma": sigma, **lam}.items():
        assert abs(val - round(val)) < 1e-9, f"non-integral multiplicity {name}={val}"
    return VirtualRep.of(
        sub,
        triv=round(triv),
        sigma=round(sigma) if m >= 1 else 0,
        lam={i: round(v) for i, v in lam.items()},
    )


def regular_rep(group: CyclicGroup) -> VirtualRep:
    """The regular representation 1 + rho_bar; ``rho_bar`` is the one home of its weights."""
    one = VirtualRep.of(group, triv=1)
    return one + rho_bar(group.exponent) if group.exponent else one


def reference_degree(m: ClassMonomial) -> VirtualRep:
    """The degree of a monomial by chained representation-ring arithmetic.

    Each norm factor (i, j, e) adds e(2^i - 1) copies of the regular
    representation of C_{2^j} pulled back to the level group; a_W subtracts
    W and u_W adds |W| - W, with W = 2 sigma in the first u slot.
    """
    lg = CyclicGroup(m.level)
    deg = VirtualRep.zero(lg)
    for i, j, e in m.norms:
        deg = deg + (e * ((1 << i) - 1)) * regular_rep(CyclicGroup(j)).pullback_to(lg)

    def basis(idx: int, doubled: bool) -> VirtualRep:
        if idx == 0:
            return VirtualRep.of(lg, sigma=2 if doubled else 1)
        return VirtualRep.of(lg, lam={idx: 1})

    for idx, e in enumerate(m.a_exp):
        deg = deg - e * basis(idx, doubled=False)
    for idx, e in enumerate(m.u_exp):
        w = basis(idx, doubled=True)
        deg = deg + e * (VirtualRep.of(lg, triv=w.dimension) - w)
    return deg


_REFERENCE_CLASS_TOKEN = re.compile(
    r"""\s*(?:
        (?P<nt>Nt\[\s*(?P<nt_i>\d+)\s*,\s*(?P<nt_j>\d+)\s*\])
      | (?P<dd>D\[\s*(?P<d_n>\d+)\s*,\s*(?P<d_m>\d+)\s*\])
      | (?P<aL>aL(?P<aL_i>\d+))
      | (?P<aS>aS)
      | (?P<u2S>u2S)
      | (?P<uL>uL(?P<uL_i>\d+))
      | (?P<num>-?\d+)
      | (?P<pow>\^)
      | (?P<mul>\*)
    )""",
    re.X,
)


def _reference_scan_class_tokens(text: str, line: int | None, col_offset: int):
    tokens = []
    pos = 0
    stripped = text.rstrip()
    while pos < len(stripped):
        m = _REFERENCE_CLASS_TOKEN.match(stripped, pos)
        if not m or m.end() == m.start():
            raise DslSyntaxError(
                f"unexpected {stripped[pos:].lstrip()[:1]!r} in class expression",
                line,
                col_offset + pos,
            )
        if m.lastgroup is not None:
            tokens.append((m, col_offset + m.start()))
        pos = m.end()
    return tokens


def reference_parse_class_expr(
    text: str,
    group: CyclicGroup,
    level: int | None = None,
    line: int | None = None,
    col_offset: int = 0,
) -> ClassMonomial:
    """The token-by-token class-expression parser that ``dsl.parse_class_expr``
    replaced, kept as the oracle for its values and its errors."""
    lv = group.exponent if level is None else level
    tokens = _reference_scan_class_tokens(text, line, col_offset)
    if not tokens:
        raise DslSyntaxError("empty class expression", line, col_offset)
    coeff = 1
    a = [0] * lv
    u = [0] * lv
    norms: list[tuple[int, int, int]] = []
    idx = 0

    def semantic(msg: str, col: int):
        return DslSemanticError(msg, line, col)

    while True:
        m, col = tokens[idx]
        kind = m.lastgroup
        idx += 1
        exponent = 1
        if idx < len(tokens) and tokens[idx][0].lastgroup == "pow":
            idx += 1
            if idx >= len(tokens) or tokens[idx][0].lastgroup != "num":
                raise DslSyntaxError("expected an integer exponent after ^", line, col)
            exponent = int(tokens[idx][0].group("num"))
            if exponent < 0:
                raise semantic("negative exponents are not allowed", tokens[idx][1])
            idx += 1
        if kind == "num":
            coeff *= int(m.group("num")) ** exponent
        elif kind == "aS" or kind == "u2S":
            if lv < 1:
                raise semantic(f"{kind} needs a level of at least C2", col)
            (a if kind == "aS" else u)[0] += exponent
        elif kind == "aL" or kind == "uL":
            i = int(m.group(kind + "_i"))
            if not 1 <= i <= lv - 1:
                raise semantic(f"{kind}{i} is not in the basis at level C{1 << lv}", col)
            (a if kind == "aL" else u)[i] += exponent
        elif kind == "nt":
            i, j = int(m.group("nt_i")), int(m.group("nt_j"))
            if i < 1:
                raise semantic(f"Nt[{i},{j}]: generator index must be >= 1", col)
            if not 1 <= j <= lv:
                raise semantic(
                    f"Nt[{i},{j}]: norm level must lie between 1 and the class "
                    f"level {lv}", col
                )
            norms.append((i, j, exponent))
        elif kind == "dd":
            dn, dm = int(m.group("d_n")), int(m.group("d_m"))
            if dn < 1 or dm < 1:
                raise semantic(f"D[{dn},{dm}]: both indices must be >= 1", col)
            if dm * 2 ** (dn - 1) > 2048:  # the generator index bound, before the level
                raise semantic(f"D[{dn},{dm}]: generator index must be <= 2048", col)
            if dn > lv:
                raise semantic(f"D[{dn},{dm}] needs a level of at least C{1 << dn}", col)
            norms += _d_norms(dn, dm, exponent)
        else:
            raise DslSyntaxError(f"unexpected {m.group(0).strip()!r}", line, col)
        if idx == len(tokens):
            break
        m, col = tokens[idx]
        if m.lastgroup != "mul":
            raise DslSyntaxError(
                f"expected * between factors, got {m.group(0).strip()!r}", line, col
            )
        idx += 1
        if idx == len(tokens):
            raise DslSyntaxError("dangling * at end of class expression", line, col)
    try:
        return ClassMonomial(group, lv, coeff, tuple(norms), tuple(a), tuple(u))
    except MonomialError as e:
        raise DslSemanticError(str(e), line, col_offset) from e


_REFERENCE_REP_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<num>\d+)|(?P<lam>l\d+)|(?P<sig>s))")


def reference_parse_rep(text: str, group: CyclicGroup, col_offset: int = 0) -> VirtualRep:
    """The sign -> coefficient -> basis scanner that ``dsl.parse_rep``
    replaced, kept as the oracle for its values and its errors."""
    n = group.exponent
    triv = sigma = 0
    lam = [0] * max(n, 1)
    pos = 0
    first = True
    stripped = text.rstrip()
    if not stripped.strip():
        raise DslSyntaxError("empty representation literal", col=col_offset)
    while pos < len(stripped):
        m = _REFERENCE_REP_TOKEN.match(stripped, pos)
        if not m:
            raise DslSyntaxError(
                f"unexpected {stripped[pos:].lstrip()[:1]!r} in representation literal",
                col=col_offset + pos,
            )
        sign = 1
        if m.group("sign"):
            sign = -1 if m.group("sign") == "-" else 1
            pos = m.end()
            m = _REFERENCE_REP_TOKEN.match(stripped, pos)
            if not m or m.group("sign"):
                raise DslSyntaxError(
                    "dangling sign in representation literal", col=col_offset + pos
                )
        elif not first:
            raise DslSyntaxError("terms must be joined by + or -", col=col_offset + pos)
        first = False
        coeff = None
        if m.group("num"):
            coeff = _int(m.group("num"), col_offset + pos)
            pos = m.end()
            m = _REFERENCE_REP_TOKEN.match(stripped, pos)
        basis = None
        if m and (m.group("lam") or m.group("sig")):
            basis = m.group("lam") or m.group("sig")
            col = col_offset + pos
            pos = m.end()
        if coeff is None and basis is None:
            raise DslSyntaxError("expected a coefficient or basis element", col=col_offset + pos)
        value = sign * (1 if coeff is None else coeff)
        if basis is None:
            triv += value
        elif basis == "s":
            if n == 0:
                raise DslSemanticError(f"s is not a basis element of RO({group})", col=col)
            sigma += value
        else:
            i = _int(basis[1:], col)
            if i == 0:
                # l0 is parser sugar for 2s
                if n == 0:
                    raise DslSemanticError(f"l0 is not available over {group}", col=col)
                sigma += 2 * value
            elif 1 <= i <= n - 1:
                lam[i] += value
            else:
                raise DslSemanticError(f"l{i} is not a basis element of RO({group})", col=col)
    return VirtualRep.of(group, triv=triv, sigma=sigma, lam={i: c for i, c in enumerate(lam) if c})


def reference_monomial_fields(group, level, coeff=1, norms=(), a_exp=(), u_exp=()):
    """(group, level, coeff, norms, a_exp, u_exp) as the two-pass ClassMonomial
    constructor (generated __init__, then __post_init__) stored them, with a
    torsion modulus that is the minimum over every positive a slot."""
    if not 0 <= level <= group.exponent:
        raise MonomialError(f"level {level} out of range for ambient group {group}")
    if not isinstance(coeff, int):
        raise MonomialError(f"coefficient must be an integer, got {coeff!r}")

    def sized(name, vec):
        if len(vec) > level:
            raise MonomialError(f"{name} has {len(vec)} entries, level is {level}")
        for e in vec:
            if not isinstance(e, int) or e < 0:
                raise MonomialError(f"{name} entries must be non-negative integers")
        return tuple(vec) + (0,) * (level - len(vec))

    a, u = sized("a_exp", a_exp), sized("u_exp", u_exp)
    merged = {}
    for i, j, e in norms:
        if i < 1 or not 1 <= j <= level:
            raise MonomialError(f"norm factor ({i}, {j}) out of range at level {level}")
        if not isinstance(e, int) or e < 0:
            raise MonomialError("norm exponents must be non-negative integers")
        if e:
            merged[(j, i)] = merged.get((j, i), 0) + e
    norms = tuple((i, j, merged[(j, i)]) for (j, i) in sorted(merged))
    moduli = [2] if a and a[0] > 0 else []
    moduli += [1 << (i + 1) for i in range(1, len(a)) if a[i] > 0]
    if moduli:
        coeff %= min(moduli)
    if coeff == 0:
        a, u, norms = (0,) * len(a), (0,) * len(u), ()
    return group, level, coeff, norms, a, u


# The admissibility check on Fraction Lines that the integer one replaced,
# kept verbatim as its oracle.
def reference_admissible(d: Differential, profile: VanishingProfile) -> list[Violation]:
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
    x_src = d.source.stem - V.dimension
    s_src = d.source.filtration
    x_tgt = d.target.stem - V.dimension
    s_tgt = d.target.filtration
    if x_src < 0:
        return []
    out: list[Violation] = []
    for k in range(profile.n + 1):
        stratum = line_L(V, k)
        if stratum.on_or_above(x_src, s_src):
            bound = max_length(profile.h, profile.n, k)
            if d.page > bound:
                out.append(
                    Violation(
                        k,
                        "length",
                        f"length {d.page} exceeds the bound {bound} for sources "
                        f"on or above {stratum.equation()}",
                    )
                )
            step = 1 << k
            if d.page % step != 1 % step:
                out.append(
                    Violation(
                        k,
                        "congruence",
                        f"length {d.page} is not 1 mod 2^{k}, which shearing "
                        f"forces on or above {stratum.equation()}",
                    )
                )
        else:
            ceiling = vanishing_line(V, profile.h, k)
            if s_tgt >= ceiling.at(x_tgt):
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


# The fixed-point, tau, threshold, boundary, region, tower and validate code
# that one fixed series per grading replaced, kept verbatim as its oracle.  A
# call into replaced code goes to the copy here; ``VirtualRep`` methods are
# copied as functions of V.
def _reference_fixed_coeffs(V: VirtualRep, k: int) -> tuple[int, ...]:
    n = V.group.exponent
    if not 0 <= k <= n:
        raise RepError(f"fixed-point index k={k} out of range for {V.group}")
    return V.coeffs[: 2 if k < n else 1] + V.coeffs[2 : n - k + 1]


def reference_fixed_dimension(V: VirtualRep, k: int) -> int:
    """``fixed_points(k).dimension`` without building the quotient rep:
    c_1 + [k <= n-1] c_sigma + 2 * sum_{i <= n-1-k} c_lambda_i."""
    co = _reference_fixed_coeffs(V, k)
    return sum(co[:2]) + 2 * sum(co[2:])


def reference_tau_series(V: VirtualRep, k: int) -> list[int]:
    """``[tau(V, 0), ..., tau(V, k)]`` in one pass: the running maximum over
    j of |V^{C_{2^j}}|*2^j - |V|."""
    if not 0 <= k <= V.group.exponent:
        raise RepError(f"tau index k={k} out of range for {V.group}")
    dim = V.dimension
    series: list[int] = []
    for j in range(k + 1):
        term = (reference_fixed_dimension(V, j) << j) - dim
        series.append(term if not series or term > series[-1] else series[-1])
    return series


def reference_constant_C(V: VirtualRep, k: int) -> Fraction:
    """Horizontal threshold on the sheared-down side of the slope-(2^k - 1) region.

    Equals (tau(V, k) - (|V^{C_{2^k}}|*2^k - |V|)) / 2^k; non-negative because
    tau is the max over a set containing that term.
    """
    n_plus_1 = V.group.exponent
    if not 1 <= k <= n_plus_1 - 1:
        raise RepError(f"threshold index k={k} out of range for {V.group}")
    gap = (reference_fixed_dimension(V, k) << k) - V.dimension
    return Fraction(reference_tau_series(V, k)[k] - gap, 1 << k)


def reference_boundary(V: VirtualRep, n: int) -> tuple[int, int]:
    """The boundary's slope and intercept, as integers."""
    group = CyclicGroup(n + 1)
    if V.group != group:
        raise RepError(f"boundary grading must live over {group}, got {V.group}")
    top = max(reference_fixed_dimension(V, j) for j in range(n + 2))
    order = 1 << (n + 1)
    return order - 1, -V.dimension + order * top


def reference_region_of(m: ClassMonomial, ctx: ShearContext) -> str:
    """Where a source-chart class sits relative to the isomorphism region.

    Returns ``"interior"``, ``"boundary"`` (exactly on the horizontal
    threshold line: treated as in-region, but only classes surviving
    localization are matched there), or ``"outside"``.
    """
    # ctx.source_threshold, as ShearContext computed it
    threshold = Fraction(0) if ctx.k == 0 else reference_constant_C(ctx.grading, ctx.k)
    x = m.stem - ctx.grading.fixed_points(ctx.k).dimension
    s = m.filtration
    if x < 0 or s < threshold:
        return "outside"
    if s == threshold:
        return "boundary"
    return "interior"


def reference_tower_report(n: int, m: int, grading: VirtualRep | None = None) -> list[TowerEntry]:
    """The tower for the height-(2^n * m) theory over C_{2^(n+1)}.

    Entry k (1 <= k <= n) pairs the region on or above the slope-(2^k - 1)
    line with the full chart of the height-(h / 2^k) theory over
    C_{2^(n-k+1)}.
    """
    if n < 1 or m < 1:
        raise ShearError(f"tower indices must satisfy n >= 1, m >= 1, got ({n}, {m})")
    group = CyclicGroup(n + 1)
    V = VirtualRep.zero(group) if grading is None else grading
    if V.group != group:
        raise ShearError(f"tower grading must live over {group}, got {V.group}")
    h = (1 << n) * m
    entries = []
    for k in range(1, n + 1):
        entries.append(
            TowerEntry(
                k=k,
                # line_L(V, k)
                line=Line(slope=(1 << k) - 1, intercept=reference_tau_series(V, k)[k]),
                threshold=reference_constant_C(V, k),
                target_group=CyclicGroup(n - k + 1),
                target_height=h >> k,
            )
        )
    return entries


def reference_validate(d: Differential) -> list[str]:
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
        lg = d.source.level_group
        want = d.source.degree() - VirtualRep.of(lg, triv=1)
        if d.target.degree() != want:
            problems.append(
                f"degree mismatch: target degree {d.target.degree()} is not source "
                f"degree minus one trivial summand ({want})"
            )
    except ValueError as e:  # a degree too long to print in the message
        return [f"invalid differential: {e}"]
    return problems


# The JSON monomial reader that checked each field twice (once here, once in
# the ClassMonomial constructor), kept verbatim as the oracle of import's
# messages and paths.
def _reference_need(obj: dict, key: str, path: str):
    if key not in obj:
        raise JsonSchemaError(f"{path}.{key}", "required field is missing")
    return obj[key]


def _reference_int(value, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise JsonSchemaError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise JsonSchemaError(path, f"must be >= {minimum}, got {value}")
    return value


_REFERENCE_LAMBDA_KEY_RE = re.compile(r"l[1-9]\d*", re.ASCII)


def _reference_exp_vector(value, path: str, level: int, zero_key: str) -> tuple[int, ...]:
    if not isinstance(value, dict):
        raise JsonSchemaError(path, f"expected an object, got {value!r}")
    vec = [0] * level
    names = basis_names(level, zero_key)
    for key, e in value.items():
        if key not in names:
            if not isinstance(key, str) or (
                key != zero_key and not _REFERENCE_LAMBDA_KEY_RE.fullmatch(key)
            ):
                raise JsonSchemaError(f"{path}.{key}", "unknown basis key")
            raise JsonSchemaError(f"{path}.{key}", f"basis slot out of range at level {level}")
        vec[names.index(key)] = _reference_int(e, f"{path}.{key}", minimum=0)
    return tuple(vec)


def reference_obj_to_monomial(obj, path: str = "") -> ClassMonomial:
    if not isinstance(obj, dict):
        raise JsonSchemaError(path, f"expected an object, got {obj!r}")
    group = _reference_int(_reference_need(obj, "group", path), f"{path}.group", minimum=0)
    level = _reference_int(_reference_need(obj, "level", path), f"{path}.level", minimum=0)
    coeff = _reference_int(_reference_need(obj, "coeff", path), f"{path}.coeff")
    raw_norms = _reference_need(obj, "norms", path)
    if not isinstance(raw_norms, list):
        raise JsonSchemaError(f"{path}.norms", "expected a list of [i, j, e] triples")
    norms = []
    for idx, triple in enumerate(raw_norms):
        tpath = f"{path}.norms[{idx}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise JsonSchemaError(tpath, "expected an [i, j, e] triple")
        norms.append(
            (
                _reference_int(triple[0], f"{tpath}[0]", minimum=1),
                _reference_int(triple[1], f"{tpath}[1]", minimum=1),
                _reference_int(triple[2], f"{tpath}[2]", minimum=0),
            )
        )
    if level > group:
        # rejected here, before the exponent maps build a basis table of that length
        raise JsonSchemaError(
            path, f"level {level} out of range for ambient group {CyclicGroup(group)}"
        )
    a = _reference_exp_vector(_reference_need(obj, "a", path), f"{path}.a", level, "s")
    u = _reference_exp_vector(_reference_need(obj, "u", path), f"{path}.u", level, "2s")
    try:
        return ClassMonomial(CyclicGroup(group), level, coeff, tuple(norms), a, u)
    except (MonomialError, RepError) as e:
        raise JsonSchemaError(path, str(e)) from e


# The JSON reader before it looked each field up once and built paths only
# for an error, kept verbatim as the oracle of import's values, paths and
# messages (its names prefixed "eager", as it built every path eagerly).  It
# has since gained one fix the reader made: a level and a norm triple's j of
# more than 3,000 digits are refused as such, before a message prints them.
def _eager_need(obj: dict, key: str, path: str):
    if key not in obj:
        raise JsonSchemaError(f"{path}.{key}", "required field is missing")
    return obj[key]


def _eager_int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if type(value) is not int:  # bools, floats and int subclasses, as reps._admit
        raise JsonSchemaError(path, f"expected an integer, got {value!r}")
    if abs(value) >= _DIGITS_CAP:
        raise JsonSchemaError(path, f"has more than {_MAX_DIGITS} digits")
    if minimum is not None and value < minimum:
        raise JsonSchemaError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise JsonSchemaError(path, f"must be <= {maximum}, got {value}")
    return value


# a lambda_i key at some level, which tells an unknown key from one out of
# range at this level: ASCII digits only, no leading zero, so "l0" is unknown
_EAGER_LAMBDA_KEY_RE = re.compile(r"l[1-9]\d*", re.ASCII)


@functools.lru_cache(maxsize=64)
def _eager_slots(level: int, zero_key: str) -> dict[str, int]:
    """basis_names(level, zero_key) as a name -> slot map."""
    return {k: slot for slot, k in enumerate(basis_names(level, zero_key))}


def _eager_exp_vector(value, path: str, name: str, level: int, zero_key: str) -> tuple[int, ...]:
    """The vector the basis map ``path.name`` spells."""
    if not isinstance(value, dict):
        raise JsonSchemaError(f"{path}.{name}", f"expected an object, got {value!r}")
    vec = [0] * level
    # a level past any chart's gets a fresh map, so the memo holds only small ones
    slots = (_eager_slots if level <= 64 else _eager_slots.__wrapped__)(level, zero_key)
    for key, e in value.items():
        slot = slots.get(key)
        if slot is None:
            if not isinstance(key, str) or (
                key != zero_key and not _EAGER_LAMBDA_KEY_RE.fullmatch(key)
            ):
                raise JsonSchemaError(f"{path}.{name}.{key}", "unknown basis key")
            raise JsonSchemaError(
                f"{path}.{name}.{key}", f"basis slot out of range at level {level}"
            )
        if type(e) is not int or not 0 <= e < _DIGITS_CAP:
            _eager_int(e, f"{path}.{name}.{key}", minimum=0)
        vec[slot] = e
    return tuple(vec)


def eager_obj_to_monomial(obj, path: str = "") -> ClassMonomial:
    if not isinstance(obj, dict):
        raise JsonSchemaError(path, f"expected an object, got {obj!r}")
    # each field is tested once, inline, and a path is built only when _eager_int
    # words the error that a failed test leads to
    group = _eager_need(obj, "group", path)
    if type(group) is not int or not 0 <= group <= _MAX_EXPONENT:
        _eager_int(group, f"{path}.group", 0, _MAX_EXPONENT)
    level = _eager_need(obj, "level", path)
    if type(level) is not int or not 0 <= level < _DIGITS_CAP:
        _eager_int(level, f"{path}.level", minimum=0)
    coeff = _eager_need(obj, "coeff", path)
    if type(coeff) is not int or abs(coeff) >= _DIGITS_CAP:
        _eager_int(coeff, f"{path}.coeff")
    raw_norms = _eager_need(obj, "norms", path)
    if not isinstance(raw_norms, list):
        raise JsonSchemaError(f"{path}.norms", "expected a list of [i, j, e] triples")
    norms = []
    for idx, t in enumerate(raw_norms):
        if type(t) is list and len(t) == 3:
            i, j, e = t
            if (type(i) is type(j) is type(e) is int and 1 <= i <= _MAX_INDEX
                    and 1 <= j < _DIGITS_CAP and e >= 0):
                norms.append((i, j, e))
                continue
        tpath = f"{path}.norms[{idx}]"  # a bad triple, or a good one in a list subclass
        if not isinstance(t, list) or len(t) != 3:
            raise JsonSchemaError(tpath, "expected an [i, j, e] triple")
        i = _eager_int(t[0], f"{tpath}[0]", 1, _MAX_INDEX)
        j = _eager_int(t[1], f"{tpath}[1]", minimum=1)
        norms.append((i, j, _eager_int(t[2], f"{tpath}[2]", minimum=0)))
    if level > group:
        # rejected here, before the exponent maps build a basis table of that length
        raise JsonSchemaError(
            path, f"level {level} out of range for ambient group {CyclicGroup(group)}"
        )
    a = _eager_exp_vector(_eager_need(obj, "a", path), path, "a", level, "s")
    u = _eager_exp_vector(_eager_need(obj, "u", path), path, "u", level, "2s")
    for i, j, e in norms:
        if j > level:
            raise JsonSchemaError(path, f"norm factor ({i}, {j}) out of range at level {level}")
    m = ClassMonomial._trusted(CyclicGroup(group), level, coeff, norms, a, u)
    for _, _, e in m.norms:  # merged, so triples that add up are bounded, and each one too
        if e >= _DIGITS_CAP:
            raise JsonSchemaError(f"{path}.norms", f"exponent has more than {_MAX_DIGITS} digits")
    return m


def eager_obj_to_differential(obj, path: str = "") -> Differential:
    if not isinstance(obj, dict):
        raise JsonSchemaError(path, f"expected an object, got {obj!r}")
    # page is the discriminator, so it is checked first
    page = _eager_int(_eager_need(obj, "page", path), f"{path}.page", minimum=2)
    group = _eager_int(_eager_need(obj, "group", path), f"{path}.group", 0, _MAX_EXPONENT)
    source = eager_obj_to_monomial(_eager_need(obj, "source", path), f"{path}.source")
    target = eager_obj_to_monomial(_eager_need(obj, "target", path), f"{path}.target")
    provenance = _eager_need(obj, "provenance", path)
    if provenance not in PROVENANCES:
        raise JsonSchemaError(f"{path}.provenance", f"must be one of {PROVENANCES}")
    d = Differential(CyclicGroup(group), page, source, target, provenance)
    problems = validate(d)
    if problems:
        raise JsonSchemaError(path, problems[0])
    return d


def eager_import_json(data: bytes | str) -> list[Union[ClassMonomial, Differential]]:
    """Inverse of :func:`export_json`; objects with a ``page`` field are
    differentials, everything else must be a monomial."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        raw = json.loads(text)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, UnicodeDecodeError and the int digit limit are
        # all ValueErrors; RecursionError comes from deep nesting
        raise JsonSchemaError("$", f"not valid JSON: {e}") from e
    if not isinstance(raw, list):
        raise JsonSchemaError("$", f"expected a list, got {type(raw).__name__}")
    out: list[Union[ClassMonomial, Differential]] = []
    for idx, obj in enumerate(raw):
        path = f"items[{idx}]"
        if isinstance(obj, dict) and "page" in obj:
            out.append(eager_obj_to_differential(obj, path))
        else:
            out.append(eager_obj_to_monomial(obj, path))
    return out


def random_rep(rng: random.Random, group: CyclicGroup, span: int = 6) -> VirtualRep:
    n = group.exponent
    triv = rng.randint(-span, span)
    sigma = rng.randint(-span, span) if n >= 1 else 0
    lam = {i: rng.randint(-span, span) for i in range(1, n)}
    return VirtualRep.of(group, triv=triv, sigma=sigma, lam=lam)


def random_actual_rep(rng: random.Random, group: CyclicGroup, span: int = 5) -> VirtualRep:
    n = group.exponent
    sigma = rng.randint(0, span) if n >= 1 else 0
    lam = {i: rng.randint(0, span) for i in range(1, n)}
    return VirtualRep.of(group, sigma=sigma, lam=lam)


def random_monomial(
    rng: random.Random,
    group: CyclicGroup,
    level: int | None = None,
    max_norms: int = 2,
) -> ClassMonomial:
    """A pseudo-random in-scope monomial: norm factors at its own level."""
    lv = group.exponent if level is None else level
    norms = []
    for _ in range(rng.randint(0, max_norms)):
        if lv >= 1:
            norms.append((rng.randint(1, 4), lv, rng.randint(1, 3)))
    a = tuple(rng.randint(0, 4) for _ in range(lv))
    u = tuple(rng.randint(0, 4) for _ in range(lv))
    return ClassMonomial(group, lv, 1, tuple(norms), a, u)


def random_document(rng: random.Random):
    """A pseudo-random chart document whose differentials are all valid."""
    from sliceshear import (
        ChartDocument,
        GuideSpec,
        LeibnizZeroError,
        hhr_family,
        leibniz,
    )

    exponent = rng.randint(1, 4)
    group = CyclicGroup(exponent)
    doc = ChartDocument(group=group, grading=VirtualRep.zero(group))
    if rng.random() < 0.5:
        doc.grading = random_rep(rng, group, span=3)
    if rng.random() < 0.8:
        x_min = rng.randint(-3, 0)
        x_max = x_min + rng.randint(0, 10)
        doc.window = (x_min, x_max, rng.randint(0, 12))
    for idx in range(rng.randint(0, 4)):
        level = rng.randint(0, exponent)
        doc.classes.append((f"c{idx}", random_monomial(rng, group, level)))
    for _ in range(rng.randint(0, 3)):
        d = hhr_family(exponent - 1, rng.randint(1, 3))
        if rng.random() < 0.5:
            p = ClassMonomial(
                group,
                exponent,
                u_exp=tuple(rng.randint(0, 2) for _ in range(exponent)),
            )
            try:
                d = leibniz(d, p)
            except LeibnizZeroError:
                pass
        doc.diffs.append(d)
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("L", "vanish", "boundary"))
        if kind == "L":
            doc.guides.append(GuideSpec("L", k=rng.randint(0, exponent)))
        elif kind == "vanish":
            n = exponent - 1
            h = (1 << n) * rng.randint(1, 2)
            doc.guides.append(GuideSpec("vanish", k=rng.randint(0, n), h=h))
        else:
            doc.guides.append(GuideSpec("boundary"))
    return doc


def reference_emit_svg(doc: ChartDocument) -> bytes:
    """``svg.emit_svg`` as it was before item positions were written as
    integers, kept as the oracle for its bytes."""
    if doc.window is None:
        raise DslSemanticError("cannot render a chart without a window")
    x_min, x_max, s_max = doc.window
    width = 2 * PAD + (x_max - x_min) * CELL
    height = 2 * PAD + s_max * CELL

    def X(x: Union[int, Fraction]) -> Union[int, Fraction]:
        return PAD + (x - x_min) * CELL

    def Y(s: Union[int, Fraction]) -> Union[int, Fraction]:
        return height - PAD - s * CELL

    def inside(x: int, s: int) -> bool:
        return x_min <= x <= x_max and 0 <= s <= s_max

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        _STYLE,
        "  <defs>",
        '    <marker id="arrow" viewBox="0 0 8 8" refX="7" refY="4" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">',
        '      <path d="M 0 0 L 8 4 L 0 8 z" fill="context-stroke"/>',
        "    </marker>",
        "  </defs>",
    ]

    # grid and integer tick labels
    for x in range(x_min, x_max + 1):
        px = _fmt(X(x))
        out.append(
            f'  <line class="grid" x1="{px}" y1="{_fmt(Y(0))}" '
            f'x2="{px}" y2="{_fmt(Y(s_max))}"/>'
        )
        out.append(
            f'  <text x="{px}" y="{_fmt(Y(0) + 14)}" text-anchor="middle">{x}</text>'
        )
    for s in range(0, s_max + 1):
        py = _fmt(Y(s))
        out.append(
            f'  <line class="grid" x1="{_fmt(X(x_min))}" y1="{py}" '
            f'x2="{_fmt(X(x_max))}" y2="{py}"/>'
        )
        out.append(
            f'  <text x="{_fmt(X(x_min) - 8)}" y="{_fmt(Y(s) + 3)}" '
            f'text-anchor="end">{s}</text>'
        )

    # axes: the filtration-0 row and, when visible, the stem-0 column
    out.append(
        f'  <line class="axis" x1="{_fmt(X(x_min))}" y1="{_fmt(Y(0))}" '
        f'x2="{_fmt(X(x_max))}" y2="{_fmt(Y(0))}"/>'
    )
    if x_min <= 0 <= x_max:
        out.append(
            f'  <line class="axis" x1="{_fmt(X(0))}" y1="{_fmt(Y(0))}" '
            f'x2="{_fmt(X(0))}" y2="{_fmt(Y(s_max))}"/>'
        )

    for g in doc.guides:
        line, label = _guide_line(g, doc)
        seg = line and _clip(line, doc.window)
        if seg is None:
            continue
        (xa, sa), (xb, sb) = seg
        out.append(
            f'  <line class="guide" x1="{_fmt(X(xa))}" y1="{_fmt(Y(sa))}" '
            f'x2="{_fmt(X(xb))}" y2="{_fmt(Y(sb))}"/>'
        )
        out.append(
            f'  <text class="guide-label" x="{_fmt(X(xb) + 4)}" '
            f'y="{_fmt(Y(sb) - 4)}">{label}</text>'
        )

    visible = 0
    for d in doc.diffs:
        sx, sy = d.source.stem, d.source.filtration
        tx, ty = d.target.stem, d.target.filtration
        if not (inside(sx, sy) and inside(tx, ty)):
            continue
        visible += 1
        out.append(
            f'  <line class="d-{d.provenance}" x1="{_fmt(X(sx))}" y1="{_fmt(Y(sy))}" '
            f'x2="{_fmt(X(tx))}" y2="{_fmt(Y(ty))}" marker-end="url(#arrow)"/>'
        )
    for name, m in doc.classes:
        x, s = m.stem, m.filtration
        if m.is_zero or not inside(x, s):
            continue
        visible += 1
        out.append(
            f'  <circle class="cls" cx="{_fmt(X(x))}" cy="{_fmt(Y(s))}" r="3.5"/>'
        )
        out.append(
            f'  <text x="{_fmt(X(x) + 6)}" y="{_fmt(Y(s) - 6)}">{escape(name, quote=False)}</text>'
        )

    if (doc.classes or doc.diffs) and visible == 0:
        out.append(
            f'  <text class="warning" x="{PAD}" y="{PAD - 24}">'
            "warning: window excludes every declared item</text>"
        )

    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")
