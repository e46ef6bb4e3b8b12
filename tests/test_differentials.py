import random

import pytest

from sliceshear import (
    ClassMonomial,
    CyclicGroup,
    Differential,
    DifferentialError,
    LeibnizZeroError,
    PermanentCycleFact,
    RegionWarning,
    ShearError,
    VirtualRep,
    correspond_class,
    ShearContext,
    expand_orientation,
    hhr_family,
    hu_kriz_seed,
    leibniz,
    norm_class,
    periodicity_element,
    permanent_cycle_seeds,
    transport,
    validate,
)
from helpers import random_monomial


def C(n):
    return CyclicGroup(n)


C2 = C(1)


class TestValidate:
    def test_seeds_valid(self):
        for i in range(1, 9):
            assert validate(hu_kriz_seed(i)) == []

    def test_family_valid(self):
        for n in range(0, 5):
            for i in range(1, 7):
                assert validate(hhr_family(n, i)) == []

    def test_filtration_mismatch(self):
        src = ClassMonomial.one(C2, 1)
        tgt = ClassMonomial(C2, 1, a_exp=(4,))  # (-4, 4)
        d = Differential(C2, 3, src, tgt)
        problems = validate(d)
        assert any("filtration mismatch" in p for p in problems)

    def test_stem_reported_first_for_wrong_target(self):
        # d_4: u2S -> aS^4 has a filtration match but wrong stem and degree
        src = ClassMonomial(C2, 1, u_exp=(1,))
        tgt = ClassMonomial(C2, 1, a_exp=(4,))
        problems = validate(Differential(C2, 4, src, tgt))
        assert problems and problems[0].startswith("stem mismatch")

    def test_degree_too_long_to_print(self, default_digit_limit):
        # the degree mismatch message would print degrees with more digits
        # than int-to-str allows
        src = norm_class(C2, 20000)
        d = Differential(C2, 2, src, src * ClassMonomial(C2, 1, a_exp=(1,)))
        problems = validate(d)
        assert len(problems) == 1
        assert problems[0].startswith("invalid differential: Exceeds the limit")

    def test_page_minimum(self):
        src = ClassMonomial.one(C2, 1)
        with pytest.raises(DifferentialError):
            Differential(C2, 1, src, src)


class TestSeeds:
    def test_i1(self):
        d = hu_kriz_seed(1)
        assert d.page == 3
        assert d.source == ClassMonomial(C2, 1, u_exp=(1,))
        assert d.target == norm_class(C2, 1) * ClassMonomial(C2, 1, a_exp=(3,))
        assert d.provenance == "seed"

    def test_i2(self):
        d = hu_kriz_seed(2)
        assert d.page == 7
        assert d.source.u_exp == (2,)
        assert d.target.a_exp == (7,)

    def test_bidegrees(self):
        for i in range(1, 7):
            d = hu_kriz_seed(i)
            assert d.source.bidegree()[:2] == (0, 0)
            assert d.target.bidegree()[:2] == (-1, (1 << (i + 1)) - 1)

    def test_bad_index(self):
        with pytest.raises(DifferentialError):
            hu_kriz_seed(0)

    @pytest.mark.parametrize("i", [1.5, 1.0, True])
    def test_rejects_a_non_integer_index(self, i):
        # a float once leaked a bare TypeError, and True a MonomialError
        with pytest.raises(DifferentialError, match=f"seed index must be an integer, got {i!r}"):
            hu_kriz_seed(i)
        with pytest.raises(DifferentialError, match="seed index must be >= 1, got 0"):
            hu_kriz_seed(0)


class TestFamily:
    def test_n0_is_seed(self):
        for i in range(1, 6):
            assert hhr_family(0, i) == hu_kriz_seed(i)

    def test_n1_i1(self):
        d = hhr_family(1, 1)
        assert d.page == 5
        assert d.target == norm_class(C(2), 1) * ClassMonomial(C(2), 2, a_exp=(3, 1))

    @pytest.mark.parametrize(
        "n, i, message",
        [
            (1, 1.5, "family index must be an integer, got 1.5"),
            (1, True, "family index must be an integer, got True"),
            (1.0, 1, "group index must be an integer, got 1.0"),
            (1, 0, "family index must be >= 1, got 0"),
            (-1, 1, "group index must be >= 0, got -1"),
        ],
    )
    def test_rejects_a_bad_index(self, n, i, message):
        with pytest.raises(DifferentialError, match=message):
            hhr_family(n, i)

    def test_page_congruence(self):
        for n in range(0, 5):
            for i in range(1, 6):
                assert hhr_family(n, i).page % (1 << n) == 1 % (1 << n)


class TestTransport:
    def test_reproduces_family(self):
        for n in range(0, 5):
            for i in range(1, 7):
                assert transport(hu_kriz_seed(i), n) == hhr_family(n, i)

    def test_k0_identity(self):
        d = hu_kriz_seed(2)
        assert transport(d, 0) == d

    def test_d3_shears_to_d5(self):
        assert transport(hu_kriz_seed(1), 1).page == 5

    def test_provenance(self):
        assert transport(hu_kriz_seed(1), 2).provenance == "transported"

    def test_out_of_region_warns(self):
        # the lambda_1 grading puts the threshold at s = 1, above the seed source
        V = VirtualRep.of(C(2), lam={1: 1})
        with pytest.warns(RegionWarning):
            transport(hu_kriz_seed(1), 1, grading=V)

    def test_in_region_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transport(hu_kriz_seed(1), 1)

    def test_results_validate(self):
        for n in range(0, 5):
            for i in range(1, 6):
                assert validate(transport(hu_kriz_seed(i), n)) == []

    @pytest.mark.parametrize("grading", [None, VirtualRep.zero(CyclicGroup(2))])
    def test_rejects_a_non_integer_step(self, grading):
        # 1.0 once named the group exponent 2.0
        with pytest.raises(ShearError, match="^shear step k must be an integer, got 1.0$"):
            transport(hu_kriz_seed(1), 1.0, grading)


class TestLeibniz:
    def test_unit(self):
        d = hu_kriz_seed(1)
        assert leibniz(d, ClassMonomial.one(C2, 1)) is d

    def test_orientation_multiple(self):
        d = hu_kriz_seed(1)
        u = ClassMonomial(C2, 1, u_exp=(1,))
        out = leibniz(d, u)
        assert out.source.u_exp == (2,)
        assert out.target == d.target * u
        assert out.page == 3
        assert validate(out) == []

    def test_euler_multiple(self):
        for n in range(0, 3):
            for i in range(1, 4):
                d = hhr_family(n, i)
                a_sigma = ClassMonomial(d.group, n + 1, a_exp=(1,) + (0,) * n)
                out = leibniz(d, a_sigma)
                assert out.target.a_exp[0] == (1 << (i + 1))
                assert validate(out) == []

    def test_zero_target_reported(self):
        d = hu_kriz_seed(1)
        two = ClassMonomial(C2, 1, coeff=2)
        with pytest.raises(LeibnizZeroError, match="class killed is zero"):
            leibniz(d, two)

    def test_mismatch(self):
        d = hu_kriz_seed(1)
        with pytest.raises(Exception):
            leibniz(d, ClassMonomial.one(C(2), 2))

    def test_commutes_with_transport(self):
        rng = random.Random(41)
        for _ in range(100):
            i = rng.randint(1, 4)
            k = rng.randint(1, 3)
            d = hu_kriz_seed(i)
            p = random_monomial(rng, C2)
            try:
                left = transport(leibniz(d, p), k)
            except LeibnizZeroError:
                continue
            ctx = ShearContext.lift(C2, k)
            right = leibniz(transport(d, k), correspond_class(p, ctx))
            assert left == right


class TestPermanentCycles:
    def test_seed_periodicities(self):
        for m in (1, 2, 3):
            facts = permanent_cycle_seeds(m)
            assert facts[0].group == C2
            assert facts[0].periodicity == VirtualRep.of(
                C2, triv=1 << (m + 1), sigma=-(1 << (m + 1))
            )
        facts = permanent_cycle_seeds(1)
        c4 = C(2)
        want = [
            VirtualRep.of(c4, triv=4, sigma=-4),
            VirtualRep.of(c4, triv=16, lam={1: -8}),
            VirtualRep.of(c4, triv=10, sigma=-2, lam={1: -4}),
            VirtualRep.of(c4, triv=8, sigma=-8),
            VirtualRep.of(c4, triv=64, lam={1: -32}),
            VirtualRep.of(c4, triv=36, sigma=-4, lam={1: -16}),
        ]
        assert [f.periodicity for f in facts[1:]] == want

    def test_theory_labels(self):
        facts = permanent_cycle_seeds(2)
        assert facts[0].theory == "BPR<2>"
        assert facts[1].theory == "BP((C4))<1>"
        assert facts[4].theory == "BP((C4))<2>"

    def test_periodicity_element(self):
        v = VirtualRep.of(C2, sigma=2)
        assert periodicity_element(v) == VirtualRep.of(C2, triv=2, sigma=-2)

    def test_facts_are_pure_orientation_classes(self):
        for f in permanent_cycle_seeds(1):
            assert f.u_class.coeff == 1
            assert not f.u_class.norms and not any(f.u_class.a_exp)
            assert f.u_class == expand_orientation(f.oriented_rep)

    def test_rejects_a_class_over_another_group(self):
        u = ClassMonomial(C(2), 2, u_exp=(1, 0))
        with pytest.raises(DifferentialError, match="does not match"):
            PermanentCycleFact(C2, 1, u, "x")

    @pytest.mark.parametrize("truncation", [1.5, 1.0, True, "1"])
    def test_rejects_a_non_integer_truncation(self, truncation):
        u = ClassMonomial(C2, 1, u_exp=(1,))
        with pytest.raises(DifferentialError, match="must be an integer"):
            PermanentCycleFact(C2, truncation, u, "x")

    def test_rejects_a_truncation_below_one(self):
        u = ClassMonomial(C2, 1, u_exp=(1,))
        with pytest.raises(DifferentialError, match="^theory truncation index must be >= 1, got 0$"):
            PermanentCycleFact(C2, 0, u, "x")

    @pytest.mark.parametrize(
        "m, message",
        [
            (1.5, "height index must be an integer, got 1.5"),
            (True, "height index must be an integer, got True"),
            (0, "height index must be >= 1, got 0"),
        ],
    )
    def test_seeds_reject_a_bad_height_index(self, m, message):
        with pytest.raises(DifferentialError, match=message):
            permanent_cycle_seeds(m)

    def test_oriented_rep_slots(self):
        u = ClassMonomial(C(3), 3, u_exp=(1, 2, 3))
        assert PermanentCycleFact(C(3), 1, u, "x").oriented_rep.coeffs == (0, 2, 2, 3)
        bare = PermanentCycleFact(C(2), 1, ClassMonomial(C(2), 0), "x")
        assert bare.oriented_rep == VirtualRep.zero(C(0))
