import random

import pytest

from sliceshear import (
    ClassMonomial,
    CyclicGroup,
    ShearContext,
    ShearError,
    VirtualRep,
    correspond_class,
    euler_ratio,
    expand_euler,
    norm_class,
    region_of,
    rho_bar,
    shear_degree,
    shear_length,
    tower_report,
    unshear_length,
)
from helpers import random_monomial, random_rep


def C(n):
    return CyclicGroup(n)


class _Rep(VirtualRep):
    """A VirtualRep subclass, which the record constructors refuse like any other type."""


class TestLengthMaps:
    def test_doubling_examples(self):
        assert shear_length(2, 1) == 3
        assert shear_length(3, 1) == 5

    def test_top_family_length(self):
        for n in range(0, 5):
            for i in range(1, 6):
                assert shear_length((1 << (i + 1)) - 1, n) == (1 << (n + 1)) * ((1 << i) - 1) + 1

    def test_k0_identity(self):
        for r in range(2, 20):
            assert shear_length(r, 0) == r
            assert unshear_length(r, 0) == r

    def test_unshear_examples(self):
        assert unshear_length(5, 1) == 3
        with pytest.raises(ShearError):
            unshear_length(4, 1)
        for n in range(1, 5):
            for i in range(1, 5):
                assert unshear_length((1 << (n + 1)) * ((1 << i) - 1) + 1, n) == (1 << (i + 1)) - 1

    def test_round_trip_and_rejection(self):
        for k in range(0, 7):
            step = 1 << k
            for r in range(2, 101):
                assert unshear_length(shear_length(r, k), k) == r
            for rp in range(3, 200):
                if k and rp % step != 1 % step:
                    with pytest.raises(ShearError):
                        unshear_length(rp, k)

    @pytest.mark.parametrize("k", [1, 4, 2048])
    def test_round_trip_at_the_digit_bound(self, k):
        # the longest r whose sheared length has at most 3,000 digits; the next
        # r is refused, so every length returned is one unshear_length takes back
        r = ((10**3000 - 2) >> k) + 1
        assert unshear_length(shear_length(r, k), k) == r
        with pytest.raises(ShearError, match="^sheared length has more than 3000 digits$"):
            shear_length(r + 1, k)

    def test_strictly_increasing(self):
        for k in range(0, 6):
            values = [shear_length(r, k) for r in range(2, 50)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_small_pages(self):
        with pytest.raises(ShearError):
            shear_length(1, 1)

    @pytest.mark.parametrize(
        "call, args",
        [
            (shear_length, (3.0, 1)),
            (shear_length, (3, 1.5)),
            (shear_length, (3, True)),
            (unshear_length, (5.0, 1)),
            (unshear_length, (5.0, 0)),
            (unshear_length, (5, 1.0)),
        ],
    )
    def test_rejects_non_integer_lengths_and_steps(self, call, args):
        with pytest.raises(ShearError, match="must be an integer"):
            call(*args)

    def test_context_rejects_a_non_integer_step(self):
        for k in (1.0, True):
            with pytest.raises(ShearError, match="must be an integer"):
                ShearContext(C(1), k, VirtualRep.zero(C(2)))
            # lift once named the group exponent 2.0
            with pytest.raises(ShearError, match=f"^shear step k must be an integer, got {k!r}$"):
                ShearContext.lift(C(1), k)

    @pytest.mark.parametrize(
        "r_prime, k, message",
        [
            (-5, 0, "differential length must be >= 2, got -5"),
            (1, 0, "differential length must be >= 2, got 1"),
            (1, 1, "sheared lengths are >= 3, got 1"),
        ],
    )
    def test_unshear_rejects_what_no_shear_gives(self, r_prime, k, message):
        # k = 0 once returned r_prime unchecked, though shear_length(r_prime, 0) raises
        with pytest.raises(ShearError, match=f"^{message}$"):
            unshear_length(r_prime, k)


class TestContext:
    def test_fields_and_target_group(self):
        ctx = ShearContext.lift(C(1), 2, VirtualRep.of(C(3), triv=1))
        assert ctx.__match_args__ == ("source_group", "k", "grading")
        assert ctx.target_group == C(3) == ctx.grading.group
        assert ShearContext.lift(C(2), 0).target_group == C(2)

    def test_no_shear_has_threshold_zero(self):
        assert ShearContext.lift(C(1), 0).source_threshold == 0

    @pytest.mark.parametrize(
        "args, message",
        [
            ((C(0), 1), "the source group of a nontrivial shear cannot be trivial"),
            ((C(1), 1, VirtualRep.zero(C(3))), "grading 0 lives over C8, expected C4"),
            ((C(1), 2, VirtualRep.of(C(2), sigma=1)), "grading s lives over C4, expected C8"),
        ],
    )
    def test_lift_rejects(self, args, message):
        with pytest.raises(ShearError, match=f"^{message}$"):
            ShearContext.lift(*args)

    @pytest.mark.parametrize("grading", [None, "0", _Rep(C(2), (0, 0, 0))],
                             ids=["None", "str", "subclass"])
    def test_rejects_a_grading_of_another_type(self, grading):
        # None and the string once raised a bare AttributeError
        with pytest.raises(ShearError) as exc:
            ShearContext(C(1), 1, grading)
        assert str(exc.value) == f"shear grading must be a VirtualRep, got {grading!r}"


class TestShearDegree:
    def test_zero_grading_formula(self):
        ctx = ShearContext.lift(C(1), 2)
        for t, s in [(0, 0), (5, 2), (7, 7), (3, -1)]:
            tp, sp = shear_degree(ctx, t, s)
            assert tp == 4 * t
            assert sp == 3 * (t - s) + 4 * s
            assert tp - sp == t - s

    def test_balanced_origin_fixed(self):
        # |V^{C_{2^k}}| * 2^k == |V| keeps the origin fixed
        V = VirtualRep.of(C(2), triv=2, lam={1: 1})  # dim 4, fixed dim 2, k=1
        ctx = ShearContext(C(1), 1, V)
        assert shear_degree(ctx, 0, 0) == (0, 0)

    def test_t_and_s_are_admitted(self):
        # a float once came back as (3.0, 2.5), into the exact arithmetic
        ctx = ShearContext.lift(C(1), 1)
        with pytest.raises(ShearError, match="^t must be an integer, got 1.5$"):
            shear_degree(ctx, 1.5, 1)
        with pytest.raises(ShearError, match="^s must be an integer, got True$"):
            shear_degree(ctx, 1, True)

    def test_seed_target_lands_on_family_filtration(self):
        for n in range(1, 5):
            for i in range(1, 5):
                V = VirtualRep.of(C(n + 1), triv=1 << i, sigma=-(1 << i))
                ctx = ShearContext(C(1), n, V)
                t, s = (1 << (i + 1)) - 2, (1 << (i + 1)) - 1
                tp, sp = shear_degree(ctx, t, s)
                assert sp == (1 << (n + 1)) * ((1 << i) - 1) + 1
                assert tp - sp == t - s == -1


class TestEulerRatio:
    def test_k1_j1(self):
        for i in range(1, 5):
            m = euler_ratio(1, 1, (1 << i) - 1)
            assert m.group == C(2) and m.a_exp == (0, (1 << i) - 1)

    def test_top_equals_reduced_regular_over_sigma(self):
        for n in range(1, 5):
            power = 3
            m = euler_ratio(n, 1, power)
            expanded = expand_euler(rho_bar(n + 1)) ** power
            over_sigma = ClassMonomial(
                C(n + 1), n + 1, a_exp=(power,) + (0,) * n
            )
            assert m * over_sigma == expanded

    def test_degree_identity(self):
        for k in range(1, 4):
            for j in range(1, 4):
                for power in (1, 3):
                    m = euler_ratio(k, j, power)
                    want = -power * (rho_bar(k + j) - rho_bar(k + j, k))
                    assert m.degree() == want

    def test_bad_indices(self):
        with pytest.raises(ShearError):
            euler_ratio(0, 1, 1)
        # 1.5 once named the group exponent 2.5, and True built a class
        for k, j, message in [
            (1.5, 1, "euler_ratio index k must be an integer, got 1.5"),
            (1, True, "euler_ratio index j must be an integer, got True"),
            (0, 1, r"euler_ratio indices must satisfy k, j >= 1, got \(0, 1\)"),
        ]:
            with pytest.raises(ShearError, match=f"^{message}$"):
                euler_ratio(k, j, 1)

    def test_rejects_a_non_integer_power(self):
        for power in (1.5, True):
            with pytest.raises(ShearError, match="must be an integer"):
                euler_ratio(1, 1, power)


class TestCorrespond:
    def test_names_preserved(self):
        ctx = ShearContext.lift(C(2), 2)
        a = ClassMonomial(C(2), 2, a_exp=(3, 1))
        u = ClassMonomial(C(2), 2, u_exp=(2, 5))
        ca, cu = correspond_class(a, ctx), correspond_class(u, ctx)
        assert ca.a_exp == (3, 1, 0, 0) and ca.level == 4
        assert cu.u_exp == (2, 5, 0, 0) and not any(cu.a_exp)

    def test_t_generator_level_one(self):
        for k in range(1, 4):
            for i in range(1, 4):
                ctx = ShearContext.lift(C(1), k)
                m = norm_class(C(1), i)
                out = correspond_class(m, ctx)
                want = norm_class(C(k + 1), i) * euler_ratio(k, 1, (1 << i) - 1)
                assert out == want

    def test_seed_target_maps_to_family_target(self):
        for n in range(1, 5):
            for i in range(1, 5):
                ctx = ShearContext.lift(C(1), n)
                seed_target = norm_class(C(1), i) * ClassMonomial(
                    C(1), 1, a_exp=((1 << (i + 1)) - 1,)
                )
                out = correspond_class(seed_target, ctx)
                g = C(n + 1)
                want = (
                    norm_class(g, i)
                    * expand_euler(rho_bar(n + 1)) ** ((1 << i) - 1)
                    * expand_euler(VirtualRep.of(g, sigma=1)) ** (1 << i)
                )
                assert out == want

    def test_multiplicative(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 5)
            k = rng.randint(1, n)
            src = C(n - k + 1)
            ctx = ShearContext.lift(src, k)
            m1 = random_monomial(rng, src)
            m2 = random_monomial(rng, src)
            assert correspond_class(m1 * m2, ctx) == correspond_class(
                m1, ctx
            ) * correspond_class(m2, ctx)

    def test_invariants_I1_I2_I3(self):
        rng = random.Random(37)
        for _ in range(300):
            n = rng.randint(1, 5)
            k = rng.randint(1, n)
            src = C(n - k + 1)
            ctx = ShearContext.lift(src, k, random_rep(rng, C(n + 1)))
            m = random_monomial(rng, src)
            out = correspond_class(m, ctx)
            assert out.degree().fixed_points(k) == m.degree()
            assert out.filtration == (1 << k) * m.filtration + (
                1 << k
            ) * m.degree().dimension - out.degree().dimension
            assert out.stem == m.stem

    def test_wrong_group_rejected(self):
        ctx = ShearContext.lift(C(1), 1)
        with pytest.raises(ShearError):
            correspond_class(ClassMonomial.one(C(2), 2), ctx)

    def test_k0_identity(self):
        m = random_monomial(random.Random(0), C(2))
        ctx = ShearContext.lift(C(2), 0)
        assert correspond_class(m, ctx) is m


class TestRegion:
    def test_interior_boundary_outside(self):
        # V = lambda_1 over C4 gives threshold 1 on the source side
        V = VirtualRep.of(C(2), lam={1: 1})
        ctx = ShearContext(C(1), 1, V)
        assert ctx.source_threshold == 1
        high = norm_class(C(1), 2) * ClassMonomial(C(1), 1, a_exp=(2,))  # (4, 2)
        assert region_of(high, ctx) == "interior"
        edge = norm_class(C(1), 1) * ClassMonomial(C(1), 1, a_exp=(1,))  # (1, 1)
        assert region_of(edge, ctx) == "boundary"
        low = norm_class(C(1), 1)  # (2, 0) below s = 1
        assert region_of(low, ctx) == "outside"
        behind = ClassMonomial(C(1), 1, a_exp=(2,))  # stem -2
        assert region_of(behind, ctx) == "outside"


class TestTower:
    def test_n2_m1(self):
        entries = tower_report(2, 1)
        assert [(e.k, e.line.slope, e.threshold, e.target_group.exponent, e.target_height)
                for e in entries] == [(1, 1, 0, 2, 2), (2, 3, 0, 1, 1)]
        assert all(e.line.intercept == 0 for e in entries)

    def test_n1_m1(self):
        entries = tower_report(1, 1)
        assert len(entries) == 1
        e = entries[0]
        assert (e.k, e.line.slope, e.target_group.exponent, e.target_height) == (1, 1, 1, 1)

    def test_slopes(self):
        for n in range(1, 6):
            for m in (1, 2):
                for e in tower_report(n, m):
                    assert e.line.slope == (1 << e.k) - 1
                    assert e.target_height == ((1 << n) * m) >> e.k

    def test_bad_indices(self):
        with pytest.raises(ShearError):
            tower_report(0, 1)
        # 1.5 once leaked a TypeError or named the group exponent, and True built a table
        for n, m, message in [
            (1, 1.5, "tower index m must be an integer, got 1.5"),
            (True, 1, "tower index n must be an integer, got True"),
            (1.5, 1, "tower index n must be an integer, got 1.5"),
            (0, 1, r"tower indices must satisfy n >= 1, m >= 1, got \(0, 1\)"),
        ]:
            with pytest.raises(ShearError, match=f"^{message}$"):
                tower_report(n, m)

    def test_rejects_a_grading_over_another_group(self):
        with pytest.raises(ShearError, match="^tower grading must live over C8, got C4$"):
            tower_report(2, 1, VirtualRep.zero(C(2)))

    @pytest.mark.parametrize("grading", ["0", (0, 0, 0), 0], ids=["str", "tuple", "int"])
    def test_rejects_a_grading_of_another_type(self, grading):
        # each once raised a bare AttributeError
        with pytest.raises(ShearError) as exc:
            tower_report(1, 1, grading)
        assert str(exc.value) == f"tower grading must be a VirtualRep, got {grading!r}"
