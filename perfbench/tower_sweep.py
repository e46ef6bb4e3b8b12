"""tower-sweep: batch derivation of families and admissibility verdicts.

One op is one case (n, i, m) of the grid n <= 5, i <= 6, m in {1,2,3,4,8}:
hu_kriz_seed(i) -> transport(., n) -> compare with hhr_family(n, i) ->
validate -> admissible against VanishingProfile(n, 2^n m, 2^i - 2^i s).  The
same op shears a few seeded random monomials with correspond_class and
round-trips the transported differential and those images through
export_json/import_json.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

from sliceshear import (
    ClassMonomial,
    CyclicGroup,
    ShearContext,
    VanishingProfile,
    VirtualRep,
    admissible,
    correspond_class,
    export_json,
    hhr_family,
    hu_kriz_seed,
    import_json,
    transport,
    validate,
)
from sliceshear.differentials import RegionWarning

import oracle
import probes
from common import TASK

GRID = [(n, i, m) for n in range(6) for i in range(1, 7) for m in (1, 2, 3, 4, 8)]
SHEARS_PER_CASE = 4
GAUGE = TASK  # op times are scaled by the in-process gauge (see common.py)
WINDOW = len(GRID)  # ops per timing window: one pass over the grid


@dataclass
class Case:
    n: int
    i: int
    m: int
    profile: VanishingProfile
    shears: list  # (source monomial, context) pairs
    violations: list  # expected (k, clause) pairs, sorted


def _fields(m: ClassMonomial):
    return m.level, m.norms, m.a_exp, m.u_exp


def _random_shear(rng: random.Random, n: int):
    k = rng.randint(1, max(1, n))
    source = CyclicGroup(rng.randint(1, 2))
    level = rng.randint(1, source.exponent)
    norms = tuple(
        (rng.randint(1, 4), rng.randint(1, level), rng.randint(1, 3))
        for _ in range(rng.randint(0, 2))
    )
    a = tuple(rng.randint(0, 4) for _ in range(level))
    u = tuple(rng.randint(0, 4) for _ in range(level))
    return ClassMonomial(source, level, 1, norms, a, u), ShearContext.lift(source, k)


def _case(n: int, i: int, m: int, shears: list) -> Case:
    group = CyclicGroup(n + 1)
    grading = VirtualRep.of(group, triv=1 << i, sigma=-(1 << i))
    return Case(
        n, i, m,
        VanishingProfile(n, (1 << n) * m, grading),
        shears,
        # the length bound N_k - (2^k - 1) fails exactly when i > m 2^(n-k)
        [(k, "length") for k in range(n + 1) if i > m << (n - k)],
    )


def generate(rng: random.Random) -> list[Case]:
    """One pass: every grid case once, in seeded order."""
    return [
        _case(n, i, m, [_random_shear(rng, n) for _ in range(SHEARS_PER_CASE)])
        for n, i, m in rng.sample(GRID, len(GRID))
    ]


def operate(c: Case):
    d = transport(hu_kriz_seed(c.i), c.n)
    ref = hhr_family(c.n, c.i)
    problems = validate(d)
    violations = admissible(d, c.profile)
    images = [correspond_class(m, ctx) for m, ctx in c.shears]
    back = import_json(export_json([d, *images]))
    return d, ref, problems, violations, images, back


def check(c: Case, out) -> bool:
    d, ref, problems, violations, images, back = out
    src, tgt = oracle.family_exponents(c.n, c.i)
    if d != ref or problems or d.page != oracle.family_page(c.n, c.i):
        return False
    if (_fields(d.source), _fields(d.target)) != (src, tgt):
        return False
    if sorted((v.k, v.clause) for v in violations) != c.violations:
        return False
    for (m, ctx), image in zip(c.shears, images):
        if not oracle.shearing_invariants_hold(_fields(m), _fields(image), ctx.k):
            return False
    return back == [d, *images]


def warm_up() -> None:
    for c in (_case(n, i, m, []) for n, i, m in GRID[::9]):
        if not check(c, operate(c)):
            raise RuntimeError(f"tower case {(c.n, c.i, c.m)} fails its oracle")


def describe(pool: list[Case]) -> dict:
    return {
        "cases": len(pool),
        "grid": "n 0..5, i 1..6, m in {1,2,3,4,8}",
        "shears_per_case": SHEARS_PER_CASE,
        "expected_length_violations": sum(len(c.violations) for c in pool),
    }


def traced(c: Case, tr):
    seed = tr.call("differentials.hu_kriz_seed", hu_kriz_seed, c.i)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RegionWarning)
        d = tr.call("differentials.transport", transport, seed, c.n)
    tr.count("differentials.transports")
    tr.count("differentials.region_warnings", len(caught))
    ref = tr.call("differentials.hhr_family", hhr_family, c.n, c.i)
    problems = tr.call("differentials.validate", validate, d)
    violations = tr.call("vanishing.admissible", admissible, d, c.profile)
    images = [
        tr.call("shearing.correspond_class", correspond_class, m, ctx)
        for m, ctx in c.shears
    ]
    data = tr.call("jsonio.export_json", export_json, [d, *images])
    tr.count("jsonio.bytes", len(data))
    back = tr.call("jsonio.import_json", import_json, data)
    out = d, ref, problems, violations, images, back
    return out, out


def probe(c: Case, out, tr) -> None:
    """Bidegree and construction of every monomial the op built, and the
    profile grading's tau/line_L/fixed points for each k."""
    d, _, _, _, images, _ = out
    for m in (d.source, d.target, *images):
        probes.monomial(tr, m)
    probes.grading(tr, c.profile.grading, c.n + 1)
