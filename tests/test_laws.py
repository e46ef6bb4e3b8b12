"""The tower's fixed-point laws, against the code that computed them before.

Every tau, threshold, boundary, region verdict and tower row is read from one
fixed series per grading.  The functions in ``helpers`` named ``reference_*``
are the earlier per-k implementations, kept verbatim; each test here compares
the two on random gradings over C_{2^n}, n <= 8, and checks the laws the
paper's tower rests on: the tau laws, and that shearing k_1 steps and then k_2
is shearing k_1 + k_2, with fixed points, restriction and pullback composing
and inverting the same way.
"""

import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from sliceshear import (
    ClassMonomial,
    CyclicGroup,
    Differential,
    Line,
    RepError,
    ShearContext,
    VirtualRep,
    boundary_line,
    constant_C,
    correspond_class,
    hhr_family,
    line_L,
    region_of,
    shear_degree,
    shear_length,
    tau_series,
    tower_report,
    transport,
    validate,
)
from sliceshear.differentials import RegionWarning
from helpers import (
    random_monomial,
    random_rep,
    reference_boundary,
    reference_constant_C,
    reference_fixed_dimension,
    reference_region_of,
    reference_tau_series,
    reference_tower_report,
    reference_validate,
)


@st.composite
def gradings(draw, min_exponent: int = 0, max_exponent: int = 8):
    n = draw(st.integers(min_exponent, max_exponent))
    span = draw(st.sampled_from([3, 12, 60]))
    coeffs = draw(st.lists(st.integers(-span, span), min_size=n + 1, max_size=n + 1))
    return VirtualRep(CyclicGroup(n), tuple(coeffs))


def _error(call, *args) -> str:
    with pytest.raises(RepError) as info:
        call(*args)
    return str(info.value)


# -- equality with the per-k code ---------------------------------------------


@given(gradings())
def test_fixed_dimension_matches_reference(V):
    n = V.group.exponent
    assert [V.fixed_dimension(k) for k in range(n + 1)] == [
        reference_fixed_dimension(V, k) for k in range(n + 1)
    ]
    for k in (-1, n + 1):
        assert _error(V.fixed_dimension, k) == _error(reference_fixed_dimension, V, k)


@given(gradings())
def test_tau_series_matches_reference(V):
    n = V.group.exponent
    for k in range(n + 1):
        assert tau_series(V, k) == reference_tau_series(V, k)
    for k in (-1, n + 1):
        assert _error(tau_series, V, k) == _error(reference_tau_series, V, k)


@given(gradings())
def test_constant_C_matches_reference(V):
    n = V.group.exponent
    for k in range(1, n):
        assert constant_C(V, k) == reference_constant_C(V, k)
    for k in (0, max(n, 1)):
        assert _error(constant_C, V, k) == _error(reference_constant_C, V, k)


@given(gradings(min_exponent=1))
def test_boundary_matches_reference(V):
    n = V.group.exponent - 1
    assert boundary_line(V, n) == Line(*reference_boundary(V, n))
    assert _error(boundary_line, V, n + 1) == _error(reference_boundary, V, n + 1)


@st.composite
def towers(draw):
    n = draw(st.integers(1, 7))
    return n, draw(st.integers(1, 4)), draw(gradings(n + 1, n + 1))


@given(towers())
def test_tower_report_matches_reference(case):
    n, m, V = case
    assert tower_report(n, m, V) == reference_tower_report(n, m, V)


def _region_case(rng: random.Random) -> tuple[ClassMonomial, ShearContext]:
    """A class and a context, k = 0 included.  Half the classes sit at a
    filtration next to the threshold (on it when it is an integer), with
    norms that put the stem on either side of |V^{C_{2^k}}|."""
    k = rng.randint(0, 4)
    source = CyclicGroup(rng.randint(1 if k else 0, 4))
    grading = random_rep(rng, CyclicGroup(source.exponent + k), span=rng.choice([2, 6, 30]))
    ctx = ShearContext.lift(source, k, grading)
    level = rng.randint(0, source.exponent)
    if level == 0 or rng.random() < 0.5:
        return random_monomial(rng, source, level), ctx
    threshold = reference_constant_C(grading, k) if k else 0
    filtration = rng.choice([math.floor(threshold), math.ceil(threshold) + rng.randint(0, 1)])
    norms = ((rng.randint(1, 4), level, rng.randint(1, 40)),) * rng.randint(0, 1)
    a = (filtration,) + (0,) * (level - 1)
    return ClassMonomial(source, level, 1, norms, a), ctx


@given(st.randoms(use_true_random=False))
def test_region_of_matches_reference(rng):
    m, ctx = _region_case(rng)
    assert region_of(m, ctx) == reference_region_of(m, ctx)


def test_region_sweep_hits_every_verdict_and_fractional_thresholds():
    rng = random.Random(11)
    verdicts, fractional, identity = set(), 0, 0
    for _ in range(1500):
        m, ctx = _region_case(rng)
        got = region_of(m, ctx)
        assert got == reference_region_of(m, ctx)
        verdicts.add(got)
        fractional += ctx.k > 0 and ctx.source_threshold.denominator > 1
        identity += ctx.k == 0
    assert verdicts == {"interior", "boundary", "outside"}
    assert fractional and identity


def _validate_case(rng: random.Random) -> Differential:
    """A differential that is valid or breaks one chosen law (several, for
    random endpoints)."""
    n, i = rng.randint(0, 3), rng.randint(1, 4)
    group = CyclicGroup(n + 1)
    d = hhr_family(n, i)
    kind = rng.choice(
        ["valid", "transported", "group", "level", "zero", "random", "degree", "huge"]
    )
    if kind == "transported":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegionWarning)
            return transport(hhr_family(0, i), n)
    if kind == "group":
        other = CyclicGroup(n + 2)
        source, target = (random_monomial(rng, other, n + 1) for _ in range(2))
        return Differential(group, d.page, source, target)
    if kind == "level":
        return Differential(group, d.page, d.source, random_monomial(rng, group, rng.randint(0, n)))
    if kind == "zero":
        return Differential(group, d.page, ClassMonomial.zero(group), d.target)
    if kind == "random":
        source, target = random_monomial(rng, group), random_monomial(rng, group)
        return Differential(group, rng.randint(2, 40), source, target)
    if kind == "degree" and n:
        # a_sigma^2 for one a_lambda1 keeps stem and filtration, not the degree
        a = (d.target.a_exp[0] + 2, d.target.a_exp[1] - 1, *d.target.a_exp[2:])
        target = ClassMonomial(group, n + 1, 1, d.target.norms, a)
        return Differential(group, d.page, d.source, target)
    if kind == "huge":
        target = ClassMonomial(group, n + 1, 1, ((1, 1, 10**5000),))
        return Differential(group, d.page, d.source, target)
    return d


@given(st.randoms(use_true_random=False))
def test_validate_matches_reference(rng):
    d = _validate_case(rng)
    assert validate(d) == reference_validate(d)


def test_validate_sweep_breaks_every_law(default_digit_limit):
    rng = random.Random(5)
    kinds = set()
    for _ in range(600):
        d = _validate_case(rng)
        problems = validate(d)
        assert problems == reference_validate(d)
        kinds |= {p.split(":")[0] for p in problems}
    assert kinds == {
        "endpoint group mismatch",
        "level mismatch",
        "differential endpoints must be nonzero classes",
        "stem mismatch",
        "filtration mismatch",
        "degree mismatch",
        "invalid differential",
    }


# -- the tau laws ---------------------------------------------------------------


@given(gradings())
def test_tau_series_starts_at_zero_and_never_decreases(V):
    series = tau_series(V, V.group.exponent)
    assert series[0] == 0
    assert all(a <= b for a, b in zip(series, series[1:]))


@given(gradings(min_exponent=2))
def test_constant_C_is_non_negative(V):
    assert all(constant_C(V, k) >= 0 for k in range(1, V.group.exponent))


@given(towers())
def test_tower_entry_k_is_line_L_and_constant_C_at_k(case):
    n, m, V = case
    entries = tower_report(n, m, V)
    assert [e.k for e in entries] == list(range(1, n + 1))
    for e in entries:
        assert e.line == line_L(V, e.k)
        assert e.threshold == constant_C(V, e.k)
        assert e.target_group == CyclicGroup(n - e.k + 1)
        assert e.target_height == ((1 << n) * m) >> e.k


# -- composition and inverse laws -----------------------------------------------

steps = st.integers(0, 3)
# half hypothesis's default example count keeps these laws under a second
laws = settings(max_examples=50)


@st.composite
def shearable(draw, group: CyclicGroup | None = None, level: int | None = None):
    """A monomial over C_{2^a}, 1 <= a <= 3, with norm factors at every level up
    to its own, so each Euler-class range of the correspondence is exercised."""
    group = group or CyclicGroup(draw(st.integers(1, 3)))
    level = draw(st.integers(0, group.exponent)) if level is None else level
    norm = st.tuples(st.integers(1, 4), st.integers(1, max(level, 1)), st.integers(1, 3))
    norms = draw(st.lists(norm, max_size=2 if level else 0))
    a, u = (draw(st.lists(st.integers(0, 4), min_size=level, max_size=level)) for _ in "au")
    return ClassMonomial(group, level, 1, tuple(norms), tuple(a), tuple(u))


@laws
@given(shearable(), steps, steps)
def test_correspond_class_composes(m, k1, k2):
    once = correspond_class(m, ShearContext.lift(m.group, k1))
    twice = correspond_class(once, ShearContext.lift(once.group, k2))
    assert twice == correspond_class(m, ShearContext.lift(m.group, k1 + k2))


@laws
@given(st.integers(2, 10**6), steps, steps)
def test_shear_length_composes(r, k1, k2):
    assert shear_length(shear_length(r, k1), k2) == shear_length(r, k1 + k2)


@st.composite
def differentials(draw):
    """A seed or family arrow, or one between random classes at one level."""
    if draw(st.booleans()):
        return hhr_family(draw(st.integers(0, 2)), draw(st.integers(1, 4)))
    source = draw(shearable())
    target = draw(shearable(source.group, source.level))
    return Differential(source.group, draw(st.integers(2, 40)), source, target)


@laws
@given(differentials(), steps, steps)
def test_transport_composes(d, k1, k2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegionWarning)
        assert transport(transport(d, k1), k2) == transport(d, k1 + k2)


@laws
@given(st.integers(1, 3), steps, steps, st.randoms(use_true_random=False))
def test_shear_degree_composes_through_the_fixed_grading(a, k1, k2, rng):
    """Shearing by k_1 on the page graded by W^{C_{2^k_2}}, then by k_2 on the
    W-graded page, is shearing by k_1 + k_2 on the W-graded page."""
    W = random_rep(rng, CyclicGroup(a + k1 + k2), span=rng.choice([2, 9, 40]))
    t, s = rng.randint(-50, 50), rng.randint(-50, 50)
    inner = ShearContext.lift(CyclicGroup(a), k1, W.fixed_points(k2))
    outer = ShearContext.lift(inner.target_group, k2, W)
    whole = ShearContext.lift(CyclicGroup(a), k1 + k2, W)
    assert shear_degree(outer, *shear_degree(inner, t, s)) == shear_degree(whole, t, s)


@laws
@given(gradings(), st.data())
def test_restrict_composes(V, data):
    m1 = data.draw(st.integers(0, V.group.exponent))
    m2 = data.draw(st.integers(0, m1))
    assert V.restrict(m1).restrict(m2) == V.restrict(m2)


@laws
@given(gradings(), st.data())
def test_fixed_points_compose(V, data):
    a = data.draw(st.integers(0, V.group.exponent))
    b = data.draw(st.integers(0, V.group.exponent - a))
    assert V.fixed_points(a).fixed_points(b) == V.fixed_points(a + b)


@laws
@given(gradings(max_exponent=6), st.integers(0, 3))
def test_pullback_is_inverse_to_fixed_points(V, extra):
    """Fixed points undo a pullback, and a pulled-back (so fixed) representation
    is the pullback of its fixed points."""
    group = CyclicGroup(V.group.exponent + extra)
    W = V.pullback_to(group)
    assert W.fixed_points(extra) == V
    assert W.fixed_points(extra).pullback_to(group) == W
