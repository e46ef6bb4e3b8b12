"""The tower's fixed-point laws, against the code that computed them before.

Every tau, threshold, boundary, region verdict and tower row is read from one
fixed series per grading.  The functions in ``helpers`` named ``reference_*``
are the earlier per-k implementations, kept verbatim; each test here compares
the two on random gradings over C_{2^n}, n <= 8, and checks the laws the
paper's tower rests on: the tau laws, and that shearing k_1 steps and then k_2
is shearing k_1 + k_2, with fixed points, restriction and pullback composing
and inverting the same way.  Then: the three closed forms kept inline for speed
(``ClassMonomial.degree``, ``correspond_class`` and ``hhr_family``'s target)
equal what their homes, ``rho_bar``, ``expand_euler``, ``expand_orientation``
and ``euler_ratio``, build; the HHR families violate only the length clauses
the closed form predicts; and the constructor, JSON and the DSL accept or
reject the same raw classes and differentials.
"""

import dataclasses
import itertools
import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from sliceshear import (
    ClassMonomial,
    CyclicGroup,
    Differential,
    DifferentialError,
    DslError,
    JsonSchemaError,
    Line,
    MonomialError,
    RepError,
    ShearContext,
    VanishingProfile,
    VirtualRep,
    admissible,
    basis_names,
    boundary_line,
    constant_C,
    correspond_class,
    euler_ratio,
    expand_euler,
    expand_orientation,
    hhr_family,
    hu_kriz_seed,
    line_L,
    norm_class,
    obj_to_differential,
    obj_to_monomial,
    parse_class_expr,
    parse_diff_spec,
    periodicity_element,
    regular_rep,
    region_of,
    rho_bar,
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
    reference_monomial_fields,
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


# -- the inline closed forms against their homes --------------------------------


@laws
@given(shearable())
def test_degree_is_the_sum_of_its_factors_degrees(m):
    """N(t_i)^e normed from C_{2^j} adds e(2^i - 1) regular representations of
    C_{2^j}; the Euler class a_A adds -A and the orientation class u_U adds |U| - U."""
    L = m.level_group
    A = VirtualRep(L, (0, *m.a_exp))
    U = VirtualRep(L, (0, 2 * m.u_exp[0], *m.u_exp[1:]) if m.level else (0,))
    assert expand_euler(A).a_exp == m.a_exp and expand_orientation(U).u_exp == m.u_exp
    norms = VirtualRep.zero(L)
    for i, j, e in m.norms:
        norms += e * ((1 << i) - 1) * regular_rep(CyclicGroup(j)).pullback_to(L)
    assert m.degree() == norms - A + periodicity_element(U)


def test_correspond_class_trades_each_norm_for_its_euler_ratio():
    """N(t_i)^e normed from C_{2^j}, at every j <= level, shears to the norm from
    C_{2^(j+k)} times euler_ratio(k, j, (2^i - 1) e)."""
    for exponent in range(1, 4):
        group = CyclicGroup(exponent)
        grid = itertools.product(range(1, exponent + 1), range(1, 4), range(1, 5), range(3))
        for level, k, i, e in grid:
            ctx = ShearContext.lift(group, k)
            for j in range(1, level + 1):
                ratio = euler_ratio(k, j, ((1 << i) - 1) * e)
                want = norm_class(ctx.target_group, i, j + k, level + k, e) * ClassMonomial(
                    ctx.target_group, level + k, a_exp=ratio.a_exp
                )
                assert correspond_class(norm_class(group, i, j, level, e), ctx) == want


def test_hhr_family_is_its_named_classes():
    """d(u_{2^i sigma}) = N(t_i) a_{(2^i - 1) rho_bar + 2^i sigma} over C_{2^(n+1)}."""
    for n, i in itertools.product(range(5), range(1, 6)):
        group, power = CyclicGroup(n + 1), (1 << i) - 1
        d = hhr_family(n, i)
        assert d.source == expand_orientation(VirtualRep.of(group, sigma=1 << i))
        euler = expand_euler(power * rho_bar(n + 1) + VirtualRep.of(group, sigma=1 << i))
        assert d.target == norm_class(group, i) * euler


def test_hhr_families_violate_only_the_predicted_length_clauses():
    """Against VanishingProfile(n, 2^n m, 2^i - 2^i sigma), hhr_family(n, i)
    violates exactly the length clauses at the k with i > m 2^(n-k)."""
    for n, i, m in itertools.product(range(6), range(1, 7), (1, 2, 3, 4, 8)):
        group = CyclicGroup(n + 1)
        grading = VirtualRep.of(group, triv=1 << i, sigma=-(1 << i))
        got = admissible(hhr_family(n, i), VanishingProfile(n, (1 << n) * m, grading))
        want = [(k, "length") for k in range(n + 1) if i > m << (n - k)]
        assert [(v.k, v.clause) for v in got] == want


# -- agreement between the front ends -------------------------------------------
#
# Raw fields, invalid ones included, go to the constructor, to JSON objects and
# to DSL text that writes out every slot (zero exponents too).  The messages may
# differ; the verdicts, and the objects accepted, may not.


def _verdict(call, *args):
    try:
        return call(*args)
    except (MonomialError, DifferentialError, RepError, JsonSchemaError, DslError):
        return None


def _agree(*results) -> bool:
    """All rejected, or all accepted as one object."""
    return all(r is None for r in results) or (
        None not in results and all(r == results[0] for r in results)
    )


def _raw_field(rng: random.Random, low: int = 0, high: int = 4) -> int:
    # one value in eight is one below the range
    return low - 1 if rng.random() < 0.125 else rng.randint(low, high)


def _raw_class(rng: random.Random, level: int) -> tuple:
    """(coeff, norms, a, u); a vector is one slot too long one time in ten."""
    norms = [
        (_raw_field(rng, 1), _raw_field(rng, 1, max(level, 0) + 1), _raw_field(rng))
        for _ in range(rng.randint(0, 2))
    ]
    vectors = []
    for _ in "au":
        size = max(level, 0) + (rng.random() < 0.1)
        vectors.append([_raw_field(rng) for _ in range(size)])
    return rng.randint(-4, 4), norms, *vectors


def _class_obj(exponent: int, level: int, coeff, norms, a, u) -> dict:
    return {
        "group": exponent,
        "level": level,
        "coeff": coeff,
        "norms": [list(t) for t in norms],
        "a": dict(zip(basis_names(len(a), "s"), a)),
        "u": dict(zip(basis_names(len(u), "2s"), u)),
    }


def _class_text(coeff, norms, a, u) -> str:
    factors = [str(coeff), *(f"Nt[{i},{j}]^{e}" for i, j, e in norms)]
    factors += [f"{name}^{e}" for name, e in zip(basis_names(len(a), "aS", "aL"), a)]
    factors += [f"{name}^{e}" for name, e in zip(basis_names(len(u), "u2S", "uL"), u)]
    return "*".join(factors)


def _class(group: CyclicGroup, level: int, coeff, norms, a, u) -> ClassMonomial:
    return ClassMonomial(group, level, coeff, tuple(map(tuple, norms)), tuple(a), tuple(u))


def _class_verdicts(exponent: int, level: int, raw: tuple) -> list:
    group = CyclicGroup(exponent)
    return [
        _verdict(_class, group, level, *raw),
        _verdict(obj_to_monomial, _class_obj(exponent, level, *raw)),
        _verdict(parse_class_expr, _class_text(*raw), group, level),
    ]


def test_front_ends_agree_on_classes():
    rng = random.Random(13)
    accepted = rejected = 0
    for _ in range(1500):
        exponent = rng.randint(0, 3)
        level = rng.randint(-1, exponent + 1) if rng.random() < 0.2 else rng.randint(0, exponent)
        verdicts = _class_verdicts(exponent, level, _raw_class(rng, level))
        assert _agree(*verdicts), verdicts
        accepted += verdicts[0] is not None
        rejected += verdicts[0] is None
    assert accepted > 300 and rejected > 300


def _raw_differential(rng: random.Random) -> tuple:
    """(exponent, page, source, target): an HHR family arrow with one field
    nudged, or two random classes."""
    n, i = rng.randint(0, 2), rng.randint(1, 3)
    d = hhr_family(n, i)
    ends = [
        [m.coeff, [list(t) for t in m.norms], list(m.a_exp), list(m.u_exp)]
        for m in (d.source, d.target)
    ]
    page, kind = d.page, rng.choice(["valid", "page", "field", "field", "random"])
    if kind == "page":
        page = rng.randint(-1, 3) if rng.random() < 0.5 else page + rng.choice([-2, 2])
    elif kind == "field":
        end = rng.choice(ends)
        slot = rng.choice([s for s in (0, 1, 2, 3) if s != 1 or end[1]])
        if slot == 0:
            end[0] = rng.randint(-2, 3)
        elif slot == 1:
            end[1][0][2] += rng.choice([-2, -1, 1])
        else:
            vec = end[slot]
            vec[rng.randrange(len(vec))] += rng.choice([-2, -1, 1, 2])
    elif kind == "random":
        ends = [list(_raw_class(rng, n + 1)) for _ in "st"]
        page = rng.randint(1, 40)
    return n + 1, page, *ends


def _differential_verdicts(exponent: int, page: int, source, target) -> list:
    group = CyclicGroup(exponent)

    def construct():
        ends = (_class(group, exponent, *end) for end in (source, target))
        d = Differential(group, page, *ends)
        return None if validate(d) else d

    obj = {
        "group": exponent,
        "page": page,
        "source": _class_obj(exponent, exponent, *source),
        "target": _class_obj(exponent, exponent, *target),
        "provenance": "user",
    }
    text = f"{page}: {_class_text(*source)} -> {_class_text(*target)}"
    return [
        _verdict(construct),
        _verdict(obj_to_differential, obj),
        _verdict(parse_diff_spec, text, group),
    ]


def test_front_ends_agree_on_differentials():
    rng = random.Random(17)
    accepted = rejected = 0
    for _ in range(600):
        verdicts = _differential_verdicts(*_raw_differential(rng))
        assert _agree(*verdicts), verdicts
        accepted += verdicts[0] is not None
        rejected += verdicts[0] is None
    assert accepted > 100 and rejected > 200


# -- the trusted producers --------------------------------------------------------
#
# correspond_class, hhr_family and hu_kriz_seed, obj_to_monomial and the DSL
# build monomials through ClassMonomial._trusted, which checks nothing.  Each
# law rebuilds what a producer returns through the checking constructor: the
# two must agree field for field, as plain ints, and behave alike as dataclasses.
# Where the raw fields are at hand, the result is also their canonical form as
# ``reference_monomial_fields`` computes it, since both constructors share one
# canonicalizing body.


def _assert_as_checked(m: ClassMonomial) -> None:
    checked = ClassMonomial(m.group, m.level, m.coeff, m.norms, m.a_exp, m.u_exp)
    fields = [f.name for f in dataclasses.fields(m)]
    assert fields == [f.name for f in dataclasses.fields(checked)]
    assert [getattr(m, f) for f in fields] == [getattr(checked, f) for f in fields]
    ints = (m.level, m.coeff, *m.a_exp, *m.u_exp, *itertools.chain(*m.norms))
    assert {type(x) for x in ints} <= {int} and type(m.norms) is type(m.a_exp) is tuple
    assert list(vars(m)) == list(vars(checked))  # one attribute layout
    assert (hash(m), repr(m)) == (hash(checked), repr(checked))
    assert dataclasses.replace(m, coeff=3) == dataclasses.replace(checked, coeff=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.coeff = 3
    assert (m.degree(), m.bidegree()) == (checked.degree(), checked.bidegree())


@laws
@given(shearable(), st.integers(-9, 9), steps)
def test_correspond_class_builds_what_the_constructor_builds(m, coeff, k):
    m = dataclasses.replace(m, coeff=coeff)
    _assert_as_checked(correspond_class(m, ShearContext.lift(m.group, k)))


@laws
@given(st.integers(0, 6), st.integers(1, 7))
def test_family_arrows_build_what_the_constructor_builds(n, i):
    for d in (hhr_family(n, i), hu_kriz_seed(i)):
        _assert_as_checked(d.source)
        _assert_as_checked(d.target)


@st.composite
def raw_classes(draw):
    """(exponent, level, coeff, norms, a, u) that every front end admits: norms
    unsorted, repeated and with zero exponents, coefficients reduced or not."""
    exponent = draw(st.integers(0, 4))
    level = draw(st.integers(0, exponent))
    norm = st.tuples(st.integers(1, 5), st.integers(1, max(level, 1)), st.integers(0, 3))
    norms = draw(st.lists(norm, max_size=4 if level else 0))
    a, u = (draw(st.lists(st.integers(0, 5), min_size=level, max_size=level)) for _ in "au")
    return exponent, level, draw(st.integers(-20, 20)), norms, a, u


def _assert_canonical_form_of(m: ClassMonomial, raw: tuple) -> None:
    """m is the canonical form of the raw fields, as the earlier constructor made it."""
    _assert_as_checked(m)
    exponent, level, coeff, norms, a, u = raw
    want = reference_monomial_fields(CyclicGroup(exponent), level, coeff, norms, a, u)
    assert (m.group, m.level, m.coeff, m.norms, m.a_exp, m.u_exp) == want


@laws
@given(raw_classes())
def test_json_import_builds_what_the_constructor_builds(raw):
    _assert_canonical_form_of(obj_to_monomial(_class_obj(*raw)), raw)


@laws
@given(raw_classes())
def test_class_expressions_build_what_the_constructor_builds(raw):
    exponent, level, *fields = raw
    m = parse_class_expr(_class_text(*fields), CyclicGroup(exponent), level)
    _assert_canonical_form_of(m, raw)
