"""Shared test helpers: brute-force oracles and random-value generators.

The character oracle is deliberately independent of the production code: it
evaluates characters numerically (sums of cosines over group elements) and
rounds, rather than reusing any kernel/basis rule from the package.
"""

from __future__ import annotations

import math
import random

from sliceshear import ClassMonomial, CyclicGroup, VirtualRep, regular_rep


def character(V: VirtualRep, j: int) -> float:
    """Character of V at the group element gamma^j of C_{2^n}."""
    n = V.group.exponent
    value = float(V.c_triv)
    if n >= 1:
        value += V.c_sigma * (-1.0) ** j
        for i in V.lambda_range:
            value += V.c_lambda(i) * 2.0 * math.cos(2.0 * math.pi * j / (1 << (i + 1)))
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
