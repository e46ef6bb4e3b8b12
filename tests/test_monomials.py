import random

import pytest
from hypothesis import example, given, strategies as st

from sliceshear import (
    ClassMonomial,
    CyclicGroup,
    MonomialError,
    RepError,
    VirtualRep,
    build_D,
    expand_euler,
    expand_orientation,
    norm_class,
    rho_bar,
)
from helpers import (
    random_actual_rep,
    random_monomial,
    reference_degree,
    reference_monomial_fields,
)


def C(n):
    return CyclicGroup(n)


C2 = C(1)


class TestDegree:
    def test_t_generator_over_c2(self):
        m = norm_class(C2, i=3)
        assert m.degree() == VirtualRep.of(C2, triv=7, sigma=7)

    def test_orientation_power(self):
        for i in range(1, 5):
            m = ClassMonomial(C2, 1, u_exp=(1 << (i - 1),))
            assert m.degree() == VirtualRep.of(C2, triv=1 << i, sigma=-(1 << i))

    def test_euler_sigma(self):
        m = ClassMonomial(C2, 1, a_exp=(1,))
        assert m.degree() == VirtualRep.of(C2, sigma=-1)


class TestBidegree:
    def test_orientation_power_is_origin(self):
        m = ClassMonomial(C2, 1, u_exp=(4,))
        assert m.bidegree() == (0, 0, 0)

    def test_seed_target(self):
        m = norm_class(C2, 1) * ClassMonomial(C2, 1, a_exp=(1,))
        assert m.bidegree() == (1, 1, 2)

    def test_top_family_target(self):
        for n in range(0, 4):
            for i in range(1, 4):
                g = C(n + 1)
                power = (1 << i) - 1
                target = (
                    norm_class(g, i)
                    * expand_euler(rho_bar(n + 1)) ** power
                    * expand_euler(VirtualRep.of(g, sigma=1)) ** (1 << i)
                )
                stem, filt, slice_dim = target.bidegree()
                assert stem == -1
                assert filt == (1 << (n + 1)) * power + 1
                assert slice_dim == power * (1 << (n + 1))

    def test_filtration_equals_weighted_a_exponents(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(0, 5)
            m = random_monomial(rng, C(n))
            filt = (m.a_exp[0] if m.level else 0) + 2 * sum(m.a_exp[1:])
            assert m.filtration == filt
            assert m.slice_dim - m.stem == m.filtration


class TestMultiply:
    def test_unit(self):
        rng = random.Random(1)
        for _ in range(50):
            m = random_monomial(rng, C(rng.randint(0, 4)))
            assert m * ClassMonomial.one(m.group, m.level) == m

    def test_euler_additivity(self):
        a_sigma = ClassMonomial(C2, 1, a_exp=(1,))
        sq = a_sigma * a_sigma
        assert sq.a_exp == (2,)
        assert sq == expand_euler(VirtualRep.of(C2, sigma=2))

    def test_two_a_sigma_is_zero(self):
        two_a = ClassMonomial(C2, 1, coeff=2, a_exp=(1,))
        assert two_a.is_zero
        rng = random.Random(2)
        for _ in range(50):
            x = random_monomial(rng, C2)
            assert (two_a * x).is_zero

    def test_lambda_torsion_is_finer(self):
        g = C(2)
        m = ClassMonomial(g, 2, coeff=2, a_exp=(0, 1))
        assert not m.is_zero and m.coeff == 2  # a_lambda_1 kills 4, not 2
        assert ClassMonomial(g, 2, coeff=4, a_exp=(0, 1)).is_zero
        assert ClassMonomial(g, 2, coeff=2, a_exp=(1, 1)).is_zero  # min modulus 2

    @pytest.mark.parametrize("e", [True, 1.5, -1])
    def test_power_rejects_a_non_integer_exponent(self, e):
        # True once passed the isinstance test
        with pytest.raises(MonomialError, match="^monomial powers must be non-negative integers$"):
            ClassMonomial(C(1), 1, a_exp=(1,)) ** e

    def test_multiplies_only_by_a_monomial(self):
        with pytest.raises(TypeError):
            ClassMonomial(C2, 1, a_exp=(1,)) * 2

    def test_mismatch_rejected(self):
        with pytest.raises(MonomialError):
            ClassMonomial.one(C2, 1) * ClassMonomial.one(C(2), 2)
        with pytest.raises(MonomialError):
            ClassMonomial.one(C(2), 1) * ClassMonomial.one(C(2), 2)

    def test_commutative_associative(self):
        rng = random.Random(3)
        for _ in range(100):
            g = C(rng.randint(1, 4))
            m1 = random_monomial(rng, g)
            m2 = random_monomial(rng, g)
            m3 = random_monomial(rng, g)
            assert m1 * m2 == m2 * m1
            assert (m1 * m2) * m3 == m1 * (m2 * m3)


class TestExpandEuler:
    def test_sigma(self):
        v = VirtualRep.of(C2, sigma=1)
        assert expand_euler(v) == ClassMonomial(C2, 1, a_exp=(1,))

    def test_reduced_regular(self):
        m = expand_euler(rho_bar(3))
        assert m.a_exp == (1, 1, 2)

    def test_additive(self):
        rng = random.Random(4)
        for _ in range(100):
            g = C(rng.randint(1, 5))
            v = random_actual_rep(rng, g)
            w = random_actual_rep(rng, g)
            assert expand_euler(v + w) == expand_euler(v) * expand_euler(w)

    def test_rejects_trivial_or_negative(self):
        with pytest.raises(RepError):
            expand_euler(VirtualRep.of(C2, triv=1, sigma=1))
        with pytest.raises(RepError):
            expand_euler(VirtualRep.of(C2, sigma=-1))


class TestOrientation:
    def test_two_sigma(self):
        m = expand_orientation(VirtualRep.of(C2, sigma=2))
        assert m.u_exp == (1,)
        assert m.degree() == VirtualRep.of(C2, triv=2, sigma=-2)

    def test_odd_sigma_rejected(self):
        with pytest.raises(RepError):
            expand_orientation(VirtualRep.of(C2, sigma=1))


class TestBuildD:
    def test_c2_single_factor(self):
        for m in range(1, 4):
            d = build_D(1, m)
            assert d.norms == ((m, 1, 1),)

    def test_c4_factors(self):
        d = build_D(2, 1)
        assert d.norms == ((1, 2, 1), (2, 2, 1))

    def test_bad_indices(self):
        with pytest.raises(MonomialError):
            build_D(0, 1)
        with pytest.raises(MonomialError):
            build_D(1, 0)
        # True and 1.5 once named the group exponent
        for n, m, message in [
            (True, 1, "D index n must be an integer, got True"),
            (1.5, 1, "D index n must be an integer, got 1.5"),
            (1, 1.5, "D index m must be an integer, got 1.5"),
        ]:
            with pytest.raises(MonomialError, match=f"^{message}$"):
                build_D(n, m)


@given(st.integers(0, 4), st.data())
def test_power_matches_repeated_multiply(n, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    m = random_monomial(rng, C(n))
    e = data.draw(st.integers(0, 4))
    expect = ClassMonomial.one(m.group, m.level)
    for _ in range(e):
        expect = expect * m
    assert m**e == expect


def test_zeroth_power_is_one():
    # the general power gives coeff ** 0 == 1, and zero exponents merge away
    m = ClassMonomial(C(2), 2, 3, ((1, 1, 2), (2, 2, 1)), (1, 0), (0, 2))
    for x in (m, ClassMonomial.zero(C(2), 1), ClassMonomial.one(C(0), 0)):
        assert x**0 == ClassMonomial.one(x.group, x.level)
        assert (x**0).is_one


def test_zero_class_canonical_form():
    z = ClassMonomial(C2, 1, coeff=0, norms=((1, 1, 1),), a_exp=(3,), u_exp=(2,))
    assert z.is_zero
    assert z == ClassMonomial.zero(C2, 1)
    assert z.norms == () and z.a_exp == (0,) and z.u_exp == (0,)


@st.composite
def monomials(draw):
    """Levels 0-5 inside groups up to C64, any coefficient (so torsion-reduced
    and zero classes occur), norm factors normed to any j <= level."""
    exponent = draw(st.integers(0, 6))
    level = draw(st.integers(0, min(5, exponent)))
    exps = st.lists(st.integers(0, 6), min_size=level, max_size=level).map(tuple)
    norm = st.tuples(st.integers(1, 5), st.integers(1, max(level, 1)), st.integers(0, 3))
    norms = st.lists(norm, max_size=3 if level else 0).map(tuple)
    coeff = draw(st.integers(-20, 20))
    return ClassMonomial(C(exponent), level, coeff, draw(norms), draw(exps), draw(exps))


class TestClosedFormKernel:
    @given(monomials())
    # the a_sigma edges of filtration = 2 * sum(a_exp) - a_exp[0]: no a_exp at
    # level 0, and a_sigma alone at level 1
    @example(ClassMonomial(C(2), 0, 3))
    @example(ClassMonomial(C2, 1, 1, ((1, 1, 1),), (3,), (1,)))
    def test_matches_chained_reference(self, m):
        ref = reference_degree(m)
        slice_dim = sum(e * ((1 << i) - 1) * (1 << j) for i, j, e in m.norms)
        assert m.degree() == ref
        assert m.bidegree() == (ref.dimension, slice_dim - ref.dimension, slice_dim)
        for k in range(m.level + 1):
            assert ref.fixed_dimension(k) == ref.fixed_points(k).dimension

    @given(monomials())
    def test_cached_grading_leaves_identity_unchanged(self, m):
        m.degree()
        m.bidegree()
        fresh = ClassMonomial(m.group, m.level, m.coeff, m.norms, m.a_exp, m.u_exp)
        assert m == fresh
        assert hash(m) == hash(fresh)
        assert repr(m) == repr(fresh)
        assert type(m).__match_args__ == ("group", "level", "coeff", "norms", "a_exp", "u_exp")


@st.composite
def constructor_args(draw):
    """Arguments for ClassMonomial, valid or not: levels out of range, short,
    long and list-typed exponent vectors, negative or non-integer entries,
    repeated and out-of-range norm factors."""
    exponent = draw(st.integers(0, 4))
    level = draw(st.integers(-1, exponent + 1))
    entry = st.integers(-1, 4) | st.sampled_from([True, 1.0])
    vec = st.lists(entry, max_size=max(level, 0) + 1)
    vec = vec.map(tuple) | vec
    norm = st.tuples(st.integers(-1, 5), st.integers(-1, 6), st.integers(-1, 3))
    norms = st.lists(norm, max_size=4)
    return (
        C(exponent),
        level,
        draw(st.integers(-20, 20) | st.just(1.5)),
        draw(norms.map(tuple) | norms),
        draw(vec),
        draw(vec),
    )


def _fields_or_error(build, args):
    try:
        return build(*args)
    except MonomialError as e:
        return str(e)


def _plain_ints(args) -> bool:
    _, level, coeff, norms, a, u = args
    return all(
        type(x) is int for x in (level, coeff, *a, *u, *(v for t in norms for v in t))
    )


@given(constructor_args())
def test_constructor_matches_two_pass_reference(args):
    """Plain-int arguments are stored as the two-pass constructor stored
    them; a bool or float anywhere is refused."""
    def stored(*a):
        m = ClassMonomial(*a)
        return m.group, m.level, m.coeff, m.norms, m.a_exp, m.u_exp

    if not _plain_ints(args):
        with pytest.raises(MonomialError):
            ClassMonomial(*args)
        return
    assert _fields_or_error(stored, args) == _fields_or_error(reference_monomial_fields, args)


@st.composite
def canonical_inputs(draw):
    """Admitted fields that reach every branch of the canonical form: up to 8
    norm triples, one (i, j) forced to repeat, zero exponents, tuple and list
    triples in any order, and coefficients -1, 0, 1 and 2 with and without
    Euler classes."""
    exponent = draw(st.integers(0, 4))
    level = draw(st.integers(0, exponent))
    norms = []
    if level:
        pair = st.tuples(st.integers(1, 5), st.integers(1, level))
        repeated = draw(pair)
        norms = [(*repeated, draw(st.integers(0, 3))) for _ in range(draw(st.integers(0, 4)))]
        norms += draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, level),
                                         st.integers(0, 3)), max_size=8 - len(norms)))
        norms = [list(t) if draw(st.booleans()) else t for t in draw(st.permutations(norms))]
    euler = draw(st.booleans())
    a = tuple(draw(st.integers(0, 2)) if euler else 0 for _ in range(level))
    u = tuple(draw(st.integers(0, 2)) for _ in range(level))
    return C(exponent), level, draw(st.sampled_from([-1, 0, 1, 2])), norms, a, u


@given(canonical_inputs())
@example((C(3), 3, 2, [(1, 2, 1), [1, 2, 0], (1, 2, 2), [2, 1, 3]], (0, 1, 0), (1, 0, 0)))
@example((C(2), 2, -1, [[1, 1, 0], (1, 1, 0)], (1, 0), (0, 0)))
def test_both_doors_store_the_reference_canonical_form(args):
    """The sort-merge of norm factors and the torsion reduction store what the
    two-pass constructor stored, through the checking and the trusted door."""
    want = reference_monomial_fields(*args)
    for m in (ClassMonomial(*args), ClassMonomial._trusted(*args)):
        assert (m.group, m.level, m.coeff, m.norms, m.a_exp, m.u_exp) == want
        assert all(type(t) is tuple for t in m.norms)


class _Group(CyclicGroup):
    """A CyclicGroup subclass, which the constructor refuses like any other type."""


@pytest.mark.parametrize(
    "args, message",
    [
        ((None, 1), "monomial group must be a CyclicGroup, got NoneType"),
        ((_Group(1), 1), "monomial group must be a CyclicGroup, got _Group"),
        ((10**5000, 1), "monomial group must be a CyclicGroup, got int"),
        ((C2, 1, 1, None), "norms must be an iterable of (i, j, exponent) triples"),
        ((C2, 1, 1, "x"), "norms must be an iterable of (i, j, exponent) triples"),
        ((C2, 1, 1, [3]), "norms must be an iterable of (i, j, exponent) triples"),
        ((C2, 1, 1, [(1, 1)]), "norms must be an iterable of (i, j, exponent) triples"),
        ((C2, 1, 1, [(1, 1, 1, 1)]), "norms must be an iterable of (i, j, exponent) triples"),
    ],
    ids=["group-None", "group-subclass", "group-int-5000-digits", "norms-None", "norms-str",
         "norm-int", "norm-pair", "norm-quadruple"],
)
def test_refuses_a_group_or_norms_of_another_shape(args, message):
    # each once raised a bare AttributeError, TypeError or ValueError
    with pytest.raises(MonomialError) as exc:
        ClassMonomial(*args)
    assert str(exc.value) == message


def test_exponent_vectors_read_any_iterable():
    # a generator once raised a bare TypeError from len(), although norms
    # were read from any iterable
    g = C(2)
    assert ClassMonomial(g, 2, 1, (), (x for x in (1, 2))) == ClassMonomial(g, 2, 1, (), (1, 2))
    assert ClassMonomial(g, 2, u_exp=iter([3])) == ClassMonomial(g, 2, u_exp=(3,))
    with pytest.raises(MonomialError, match="^a_exp has 3 entries, level is 2$"):
        ClassMonomial(g, 2, a_exp=(x for x in (1, 2, 3)))


def test_norm_index_past_the_bound_is_refused():
    with pytest.raises(MonomialError, match="^norm index i must be <= 2048, got 2049$"):
        ClassMonomial(C(1), 1, norms=((2049, 1, 1),))
    # D[n,m] spells the generator indices 2^(n-k) m, k = 1..n
    assert build_D(12, 1).norms[-1] == (2048, 12, 1)
    with pytest.raises(MonomialError, match="^norm index i must be <= 2048, got 4096$"):
        build_D(13, 1)


def test_constructor_keywords_and_replace():
    g = C(3)
    m = ClassMonomial(
        group=g, level=3, coeff=6, norms=[(2, 3, 1), (1, 3, 2)], a_exp=[0, 1], u_exp=(1,)
    )
    assert m == ClassMonomial(g, 3, 6, ((1, 3, 2), (2, 3, 1)), (0, 1, 0), (1, 0, 0))
    # a new value from another's fields: __match_args__ names the keywords
    fields = {name: getattr(m, name) for name in m.__match_args__}
    assert ClassMonomial(**{**fields, "coeff": 1}).coeff == 1
    assert ClassMonomial(**{**fields, "coeff": 4}).is_zero
    assert (m._degree, m._bidegree) == (None, None)
    # one triple skips the merge, which would have rebuilt a list triple as a tuple
    single = ClassMonomial(g, 2, norms=[[1, 2, 1]])
    assert single.norms == ((1, 2, 1),) and type(single.norms[0]) is tuple
    assert hash(single) == hash(ClassMonomial(g, 2, norms=((1, 2, 1),)))
    assert ClassMonomial(g, 2, norms=[[1, 2, 0]]).norms == ()


@pytest.mark.parametrize(
    "norm, message",
    [
        ((10**5000, 2, 1), "norm index i has more than 3000 digits"),
        ((3000, 2, 1), "norm index i must be <= 2048, got 3000"),
        ((1, 10**5000, 1), "norm level j has more than 3000 digits"),
        ((1, -(10**5000), 1), "norm level j has more than 3000 digits"),
        ((3000, 1.5, 1), "norm index i must be <= 2048, got 3000"),
        ((1, 2, 1), r"norm factor \(1, 2\) out of range at level 1"),
    ],
    ids=["i-5000-digits", "i-past-bound", "j-5000-digits", "j-negative-5000-digits",
         "i-past-bound-j-float", "j-out-of-range"],
)
def test_norm_factor_out_of_range_bounds_what_it_prints(norm, message):
    # a norm factor out of range at its level was worded before i was bounded, so an
    # i or j of 5,000 digits raised ValueError while the message printed it
    with pytest.raises(MonomialError, match=f"^{message}$"):
        ClassMonomial(C(1), 1, norms=[norm])
