import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sliceshear import (
    CyclicGroup,
    RepError,
    VirtualRep,
    boundary_line,
    constant_C,
    line_L,
    regular_rep,
    rho_bar,
    tau,
    vanishing_line,
)
from sliceshear.reps import basis_names, parse_rep, tau_series
from helpers import fixed_dim_oracle, random_rep, restrict_oracle


def C(n: int) -> CyclicGroup:
    return CyclicGroup(n)


groups = st.integers(min_value=0, max_value=6).map(CyclicGroup)


@st.composite
def reps(draw, max_exponent=6):
    group = CyclicGroup(draw(st.integers(0, max_exponent)))
    n = group.exponent
    coeffs = draw(
        st.tuples(*[st.integers(-8, 8) for _ in range(1 if n == 0 else n + 1)])
    )
    return VirtualRep(group, coeffs)


class TestGroup:
    def test_order_and_subgroups(self):
        g = C(3)
        assert g.order == 8
        assert g.subgroup(0) == C(0)
        assert g.subgroup(3) == g
        assert g.quotient(2) == C(1)
        with pytest.raises(RepError):
            g.subgroup(4)
        with pytest.raises(RepError):
            CyclicGroup(-1)

    def test_coefficients_are_plain_ints(self):
        # a bool passed the isinstance test, directly or added to a zero slot
        for make in (
            lambda: VirtualRep(C(3), (True, 0, 0, 0)),
            lambda: VirtualRep.of(C(3), lam={1: True}),
        ):
            with pytest.raises(RepError, match="^coefficients must be integers, got True$"):
                make()

    def test_str(self):
        assert str(C(0)) == "C1"
        assert str(C(4)) == "C16"

    def test_str_past_int_digit_limit(self, default_digit_limit):
        # 2^14284 has 4,300 digits and still prints; 2^14285 has 4,301
        assert str(C(14284)) == f"C{1 << 14284}"
        assert str(C(14285)) == "C_(2^14285)"


class TestDimension:
    def test_zero(self):
        assert VirtualRep.zero(C(3)).dimension == 0

    def test_reduced_regular(self):
        # 2^(n-1) lambda_n + ... + lambda_1 + sigma over C_(2^(n+1))
        for n in range(0, 5):
            assert rho_bar(n + 1).dimension == (1 << (n + 1)) - 1

    def test_cancelling(self):
        v = VirtualRep.of(C(2), triv=2, sigma=-2)
        assert v.dimension == 0


class TestFixedPoints:
    def test_sigma_over_c4(self):
        v = VirtualRep.of(C(2), sigma=1)
        w = v.fixed_points(1)
        assert w == VirtualRep.of(C(1), sigma=1)
        assert w.dimension == fixed_dim_oracle(v, 1)

    def test_lambda1_over_c4_is_killed(self):
        v = VirtualRep.of(C(2), lam={1: 1})
        w = v.fixed_points(1)
        assert w.is_zero
        assert fixed_dim_oracle(v, 1) == 0

    @given(reps())
    def test_k0_is_identity(self, v):
        assert v.fixed_points(0) == v

    def test_exhaustive_oracle_small(self):
        # full-rep oracle equality on random virtual reps (irreducible case is
        # covered exhaustively in the acceptance suite)
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(0, 6)
            v = random_rep(rng, C(n))
            for k in range(n + 1):
                assert v.fixed_points(k).dimension == fixed_dim_oracle(v, k)
                assert v.fixed_dimension(k) == fixed_dim_oracle(v, k)


class TestPullback:
    def test_sigma_to_c8(self):
        v = VirtualRep.of(C(1), sigma=1)
        assert v.pullback_to(C(3)) == VirtualRep.of(C(3), sigma=1)

    def test_zero(self):
        assert VirtualRep.zero(C(1)).pullback_to(C(4)).is_zero

    def test_lambda_round_trip(self):
        v = VirtualRep.of(C(2), lam={1: 1})
        w = v.pullback_to(C(3))
        assert w == VirtualRep.of(C(3), lam={1: 1})
        assert w.fixed_points(1) == v

    def test_smaller_target_rejected(self):
        v = VirtualRep.zero(C(3))
        with pytest.raises(RepError):
            v.pullback_to(C(2))

    @given(reps(max_exponent=5), st.integers(0, 3))
    def test_round_trip(self, v, k):
        big = CyclicGroup(v.group.exponent + k)
        assert v.pullback_to(big).fixed_points(k) == v


class TestRestrict:
    def test_regular_rep_scaling(self):
        for n in range(1, 6):
            for m in range(0, n + 1):
                got = regular_rep(C(n)).restrict(m)
                want = (1 << (n - m)) * regular_rep(C(m))
                assert got == want
                assert got == restrict_oracle(regular_rep(C(n)), m)

    def test_sigma_to_c2(self):
        v = VirtualRep.of(C(2), sigma=1)
        assert v.restrict(1) == VirtualRep.of(C(1), triv=1)
        assert v.restrict(1) == restrict_oracle(v, 1)

    @given(reps())
    def test_identity(self, v):
        assert v.restrict(v.group.exponent) == v

    def test_oracle_random(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(0, 5)
            v = random_rep(rng, C(n))
            for m in range(n + 1):
                assert v.restrict(m) == restrict_oracle(v, m)


class TestTau:
    def test_zero_rep(self):
        z = VirtualRep.zero(C(3))
        for k in range(4):
            assert tau(z, k) == 0

    def test_k0(self):
        rng = random.Random(3)
        for _ in range(50):
            v = random_rep(rng, C(rng.randint(0, 5)))
            assert tau(v, 0) == 0

    def test_two_sigma_over_c4(self):
        v = VirtualRep.of(C(2), sigma=2)
        assert tau(v, 1) == max(0, v.fixed_points(1).dimension * 2 - 2)
        assert tau(v, 1) == 2

    def test_monotone_in_k(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 6)
            v = random_rep(rng, C(n))
            values = [tau(v, k) for k in range(n + 1)]
            assert values == sorted(values)

    def test_out_of_range(self):
        with pytest.raises(RepError):
            tau(VirtualRep.zero(C(1)), 2)
        with pytest.raises(RepError, match="tau index k=2 out of range for C2"):
            tau_series(VirtualRep.zero(C(1)), 2)

    def test_series_is_running_max_over_the_oracle(self):
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randint(0, 6)
            v = random_rep(rng, C(n), span=rng.choice([3, 40]))
            k = rng.randint(0, n)
            terms = [fixed_dim_oracle(v, j) * 2**j - v.dimension for j in range(k + 1)]
            assert tau_series(v, k) == [max(terms[: j + 1]) for j in range(k + 1)]
            assert tau_series(v, k) == [tau(v, j) for j in range(k + 1)]


_PER_K_READERS = {
    "tau": tau,
    "tau_series": tau_series,
    "line_L": line_L,
    "constant_C": constant_C,
    "fixed_dimension": VirtualRep.fixed_dimension,
    "restrict": VirtualRep.restrict,
    "rho_bar": lambda V, k: rho_bar(3, k),
    "fixed_points": VirtualRep.fixed_points,
    "quotient": lambda V, k: V.group.quotient(k),
    "subgroup": lambda V, k: V.group.subgroup(k),
    "lambda": lambda V, k: VirtualRep.of(V.group, lam={k: 1}),
}


@pytest.mark.parametrize(
    "reader, k, message",
    [
        ("tau", 1.0, "tau index k must be an integer, got 1.0"),
        ("tau", True, "tau index k must be an integer, got True"),
        ("tau_series", 1.0, "tau index k must be an integer, got 1.0"),
        ("line_L", 1.0, "tau index k must be an integer, got 1.0"),
        ("constant_C", 1.0, "threshold index k must be an integer, got 1.0"),
        ("fixed_dimension", 1.0, "fixed-point index k must be an integer, got 1.0"),
        ("restrict", 1.0, "restriction level m must be an integer, got 1.0"),
        ("rho_bar", 1.0, "rho_bar index k must be an integer, got 1.0"),
        ("fixed_points", 1.0, "subgroup index k must be an integer, got 1.0"),
        ("fixed_points", True, "subgroup index k must be an integer, got True"),
        ("quotient", True, "subgroup index k must be an integer, got True"),
        ("subgroup", 1.0, "subgroup index k must be an integer, got 1.0"),
        ("lambda", 1.5, "lambda index must be an integer, got 1.5"),
        ("lambda", True, "lambda index must be an integer, got True"),
        # the messages for ints are unchanged
        ("tau", 4, "tau index k=4 out of range for C8"),
        ("line_L", -1, "tau index k=-1 out of range for C8"),
        ("constant_C", 3, "threshold index k=3 out of range for C8"),
        ("fixed_dimension", 4, "fixed-point index k=4 out of range for C8"),
        ("restrict", 4, "restriction level m=4 out of range for C8"),
        ("rho_bar", 3, r"rho_bar index k=3 out of range for C_\(2\^3\)"),
        ("quotient", 4, r"cannot form the quotient of C8 by C_\(2\^4\)"),
        ("subgroup", -1, r"C_\(2\^-1\) is not a subgroup of C8"),
        ("lambda", 3, r"lambda_3 is not a basis element of RO\(C8\)"),
    ],
)
def test_per_k_readers_reject_a_non_integer_index(reader, k, message):
    # a float once leaked a bare TypeError from list or tuple indexing, or
    # named the group exponent; tau(V, True) returned tau(V, 1), and
    # fixed_points(True) a representation of C4
    with pytest.raises(RepError, match=f"^{message}$"):
        _PER_K_READERS[reader](parse_rep("3-2s+l1", C(3)), k)


class TestSeriesMemo:
    """The per-k numbers are memoized on the representation, invisibly."""

    @given(reps())
    def test_reading_the_series_changes_no_field_equality_hash_or_repr(self, v):
        twin = VirtualRep(v.group, v.coeffs)
        before = (dataclasses.fields(VirtualRep), repr(v), hash(v), str(v))
        assert tau_series(v, v.group.exponent) == tau_series(twin, v.group.exponent)
        fresh = VirtualRep(v.group, v.coeffs)
        assert (dataclasses.fields(VirtualRep), repr(v), hash(v), str(v)) == before
        assert [f.name for f in dataclasses.fields(VirtualRep)] == ["group", "coeffs"]
        assert v == fresh and fresh == v and hash(fresh) == hash(v) and repr(fresh) == repr(v)
        assert len({v, fresh, twin}) == 1

    def test_replace_computes_its_own_series(self):
        v = VirtualRep.of(C(3), triv=1, sigma=2, lam={1: 3, 2: -1})
        assert tau_series(v, 3) == [0, 11, 11, 11]
        w = dataclasses.replace(v, coeffs=(0, 0, 0, 5))
        same = dataclasses.replace(v)
        assert "_series" in vars(v)
        assert "_series" not in vars(w) and "_series" not in vars(same)
        assert tau_series(w, 3) == [
            max(fixed_dim_oracle(w, i) * 2**i - w.dimension for i in range(j + 1))
            for j in range(4)
        ]
        assert tau_series(same, 3) == [0, 11, 11, 11]
        assert vars(same)["_series"] is not vars(v)["_series"]

    def test_a_returned_series_is_the_callers_own(self):
        v = VirtualRep.of(C(2), sigma=-3, lam={1: 2})
        first = tau_series(v, 2)
        first[:] = [99] * len(first)
        assert tau_series(v, 2) == [tau(v, k) for k in range(3)] != first


class TestLineL:
    def test_slope_one_through_origin(self):
        line = line_L(VirtualRep.zero(C(2)), 1)
        assert line.slope == 1 and line.intercept == 0
        assert line.on_or_above(3, 3)
        assert not line.on_or_above(3, 2)

    def test_horizontal(self):
        line = line_L(VirtualRep.zero(C(2)), 0)
        assert line.slope == 0 and line.intercept == 0
        assert line.equation() == "s = 0"

    def test_two_sigma_intercept(self):
        line = line_L(VirtualRep.of(C(2), sigma=2), 1)
        assert line.slope == 1 and line.intercept == 2

    def test_intercepts_are_ints(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randint(0, 4)
            v = random_rep(rng, C(n + 1))
            k = rng.randint(0, n)
            lines = [line_L(v, k), vanishing_line(v, 1 << n, n, k), boundary_line(v, n)]
            assert [type(line.intercept) for line in lines] == [int] * 3


class TestConstantC:
    def test_zero_rep(self):
        assert constant_C(VirtualRep.zero(C(3)), 2) == 0

    def test_pulled_back_dimension_zero(self):
        # anything pulled back from the quotient by C_{2^k} with dim 0
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 5)
            k = rng.randint(1, n)
            small = random_rep(rng, C(n + 1 - k))
            small = small - VirtualRep.of(C(n + 1 - k), triv=small.dimension)
            assert small.dimension == 0
            v = small.pullback_to(C(n + 1))
            assert constant_C(v, k) == 0
            assert tau(v, k) == 0

    def test_sigma_over_c4(self):
        assert constant_C(VirtualRep.of(C(2), sigma=1), 1) == 0

    def test_non_negative(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 6)
            v = random_rep(rng, C(n))
            for k in range(1, n):
                assert constant_C(v, k) >= 0

    def test_can_be_fractional_and_positive(self):
        v = VirtualRep.of(C(2), lam={1: 1})
        assert constant_C(v, 1) == Fraction(1)
        w = VirtualRep.of(C(3), lam={2: 1})
        assert constant_C(w, 2) == Fraction(1, 2)


class TestRhoBar:
    def test_full_reduced_regular(self):
        v = rho_bar(4)
        assert v == VirtualRep.of(C(4), sigma=1, lam={1: 1, 2: 2, 3: 4})
        assert v + VirtualRep.of(C(4), triv=1) == regular_rep(C(4))

    def test_lambda_coefficients(self):
        for k in range(0, 4):
            v = rho_bar(5, k)
            assert v.c_sigma == 1 and v.c_triv == 0
            for m in range(1, 5):
                want = (1 << (m - 1)) if m <= 4 - k else 0
                assert v.coeffs[1 + m] == want
            assert v.dimension == (1 << (5 - k)) - 1

    def test_difference_is_upper_lambda_block(self):
        # rho_bar(k+j) - rho_bar(k+j, k) = sum_{m=j}^{k+j-1} 2^(m-1) lambda_m
        for k in range(1, 4):
            for j in range(1, 4):
                diff = rho_bar(k + j) - rho_bar(k + j, k)
                want = VirtualRep.of(
                    C(k + j), lam={m: 1 << (m - 1) for m in range(j, k + j)}
                )
                assert diff == want

    def test_out_of_range(self):
        with pytest.raises(RepError):
            rho_bar(3, 3)


class TestRepFormat:
    @given(reps())
    def test_str_is_nonempty(self, v):
        assert str(v)

    def test_examples(self):
        assert str(VirtualRep.of(C(2), triv=2, sigma=-2)) == "2-2s"
        assert str(VirtualRep.of(C(2), triv=10, sigma=-2, lam={1: -4})) == "10-2s-4l1"
        assert str(VirtualRep.zero(C(1))) == "0"
        assert str(VirtualRep.of(C(2), sigma=1)) == "s"


def test_basis_names():
    assert basis_names(0) == ()
    assert basis_names(1) == ("s",)
    assert basis_names(4) == ("s", "l1", "l2", "l3")
    assert basis_names(3, "u2S", "uL") == ("u2S", "uL1", "uL2")
    # memoized, but bounded: levels arrive from JSON input
    assert basis_names.cache_info().maxsize is not None
