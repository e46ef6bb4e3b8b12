import random
import warnings

import pytest
from hypothesis import given, strategies as st

from sliceshear import (
    ClassMonomial,
    CyclicGroup,
    Differential,
    LeibnizZeroError,
    RegionWarning,
    RepError,
    VanishingProfile,
    VirtualRep,
    N_constant,
    admissible,
    boundary_line,
    hhr_family,
    leibniz,
    line_L,
    max_length,
    tau,
    transport,
    vanishing_line,
)
from helpers import random_monomial, random_rep, reference_admissible


def C(n):
    return CyclicGroup(n)


def family_profile(n: int, m: int, i: int) -> VanishingProfile:
    """Profile for the height-(2^n m) theory on the page where hhr_family(n, i) lives."""
    V = VirtualRep.of(C(n + 1), triv=1 << i, sigma=-(1 << i))
    return VanishingProfile(n, (1 << n) * m, V)


KINDS = ("valid", "bool", "float", "negative", "past range")


def _pick(kind: str, valid: int, past: int):
    """An argument of the given kind; ``valid`` is admitted, ``past`` lies past its range."""
    return {"valid": valid, "bool": True, "float": float(valid), "negative": -1 - valid,
            "past range": past}[kind]


def _first_refusal(*checks) -> str | None:
    """The message of the first (value, name[, most, where]) check that refuses
    its value, worded as the engine's admission rule words it; a check with a
    ``most`` admits [0, most]."""
    for value, name, *bound in checks:
        if type(value) is not int:
            return f"{name} must be an integer, got {value!r}"
        if bound and not 0 <= value <= bound[0]:
            return f"{name}={value} out of range for {bound[1]}"
    return None


def _n_constant_refusal(h, n, k) -> str | None:
    """What N_constant(h, n, k) raises: its admissions in argument order, then h's divisibility."""
    refusal = _first_refusal((h, "height"), (n, "group index n"), (k, "vanishing index k", n, f"n={n}"))
    if refusal is None and (h < 1 or h % (1 << k)):
        return f"height {h} is not divisible by 2^{k}"
    return refusal


class TestNConstant:
    def test_spot_values(self):
        assert N_constant(1, 0, 0) == 3
        assert N_constant(4, 2, 0) == 121
        assert N_constant(4, 2, 1) == 26
        assert N_constant(4, 2, 2) == 12

    def test_grid_formula_and_length_bound(self):
        for h in (1, 2, 4, 8):
            for n in range(0, 4):
                if h % (1 << n):
                    continue
                for k in range(n + 1):
                    want = (1 << (h // (1 << k) + n + 1)) - (1 << (n + 1)) + (1 << k)
                    assert N_constant(h, n, k) == want
                    assert max_length(h, n, k) == want - ((1 << k) - 1)

    def test_strictly_decreasing_in_k(self):
        for n in range(1, 4):
            for m in (1, 2):
                h = (1 << n) * m
                values = [N_constant(h, n, k) for k in range(n + 1)]
                assert all(a > b for a, b in zip(values, values[1:]))

    def test_divisibility_enforced(self):
        with pytest.raises(RepError):
            N_constant(2, 1, 1) and N_constant(1, 1, 1)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((4, 2, 1.0), "vanishing index k must be an integer, got 1.0"),
            ((4, True, 1), "group index n must be an integer, got True"),
            ((4.0, 2, 1), "height must be an integer, got 4.0"),
            ((4, 2, 3), "vanishing index k=3 out of range for n=2"),
        ],
    )
    def test_rejects_a_non_integer_index(self, args, message):
        # a float once leaked a bare TypeError, and n = True was accepted
        with pytest.raises(RepError, match=message):
            N_constant(*args)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((4.0, 2, 1), "height must be an integer, got 4.0"),
            ((3, 2, 1), "height 3 is not divisible by 2"),
        ],
    )
    def test_max_length_rejects_a_non_integer_height(self, args, message):
        with pytest.raises(RepError, match=message):
            max_length(*args)

    @pytest.mark.parametrize(
        "n, h, message",
        [
            (1.0, 2, "profile index n must be an integer, got 1.0"),
            (1, 2.0, "height must be an integer, got 2.0"),
            (1, True, "height must be an integer, got True"),
            (1, 3, "height 3 is not a positive multiple of 2"),
            (2, 4, "profile grading must live over C8, got C4"),
        ],
    )
    def test_profile_rejects_a_non_integer_index(self, n, h, message):
        with pytest.raises(RepError, match=message):
            VanishingProfile(n, h, VirtualRep.zero(C(2)))

    @pytest.mark.parametrize("grading", [None, (0, 0)], ids=["None", "tuple"])
    def test_profile_rejects_a_grading_of_another_type(self, grading):
        # each once raised a bare AttributeError
        with pytest.raises(RepError) as exc:
            VanishingProfile(1, 2, grading)
        assert str(exc.value) == f"profile grading must be a VirtualRep, got {grading!r}"

    @given(
        st.integers(0, 3), st.integers(0, 3), st.integers(1, 3),
        st.sampled_from(KINDS), st.sampled_from(KINDS), st.sampled_from(KINDS),
    )
    def test_the_first_failed_admission_words_the_error(self, n0, k0, m, h_kind, n_kind, k_kind):
        # several bad arguments at once: the message is the first refusal in
        # the order each call admits them, and a call with none succeeds
        k0 %= n0 + 1
        h0 = m << n0
        h = _pick(h_kind, h0, h0 + 1)
        n = _pick(n_kind, n0, k0 - 1)
        k = _pick(k_kind, k0, n0 + 1)
        V, W = VirtualRep.zero(C(n0 + 1)), VirtualRep.zero(C(n0))
        cases = [
            (N_constant, (h, n, k), _n_constant_refusal(h, n, k)),
            (max_length, (h, n, k), _n_constant_refusal(h, n, k)),
            # line_L(V, k) admits k before N_constant(h, n0, k) admits its arguments
            (vanishing_line, (V, h, k),
             _first_refusal((k, "tau index k", n0 + 1, V.group)) or _n_constant_refusal(h, n0, k)),
            (tau, (W, k), _first_refusal((k, "tau index k", n0, W.group))),
            (line_L, (W, k), _first_refusal((k, "tau index k", n0, W.group))),
        ]
        for call, args, want in cases:
            if want is None:
                call(*args)
                continue
            with pytest.raises(RepError) as info:
                call(*args)
            assert str(info.value) == want, (call.__name__, args)


class TestVanishingLine:
    def test_horizontal(self):
        line = vanishing_line(VirtualRep.zero(C(1)), 1, 0)
        assert line.slope == 0 and line.intercept == 3

    def test_slope_one_offset(self):
        line = vanishing_line(VirtualRep.zero(C(3)), 4, 1)
        assert line.slope == 1 and line.intercept == 26

    def test_is_shifted_stratification_line(self):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(0, 3)
            m = rng.choice((1, 2))
            h = (1 << n) * m
            k = rng.randint(0, n)
            V = random_rep(rng, C(n + 1))
            base = line_L(V, k)
            shifted = vanishing_line(V, h, k)
            assert shifted.slope == base.slope
            assert shifted.intercept == base.intercept + N_constant(h, n, k)


class TestBoundary:
    def test_zero_grading(self):
        for n in range(0, 4):
            line = boundary_line(VirtualRep.zero(C(n + 1)))
            assert line.slope == (1 << (n + 1)) - 1
            assert line.intercept == 0

    def test_sigma_over_c4(self):
        line = boundary_line(VirtualRep.of(C(2), sigma=1))
        assert line.intercept == 3
        assert line.slope == 3

    def test_family_target_is_on_the_boundary(self):
        for n in range(0, 4):
            for i in range(1, 4):
                d = hhr_family(n, i)
                prof = family_profile(n, i, i)
                border = boundary_line(prof.grading)
                x = d.target.stem - prof.grading.dimension
                assert d.target.filtration == border.at(x)


class TestAdmissible:
    @pytest.mark.parametrize("profile", [None, "profile"], ids=["None", "str"])
    def test_rejects_a_profile_of_another_type(self, profile):
        # admissible(d, None) once raised a bare AttributeError
        with pytest.raises(RepError) as exc:
            admissible(hhr_family(0, 1), profile)
        assert str(exc.value) == f"admissible profile must be a VanishingProfile, got {profile!r}"

    @pytest.mark.parametrize("d", [None, "d"], ids=["None", "str"])
    def test_rejects_a_differential_of_another_type(self, d):
        with pytest.raises(RepError) as exc:
            admissible(d, family_profile(0, 1, 1))
        assert str(exc.value) == f"admissible differential must be a Differential, got {d!r}"

    def test_family_passes_its_theory(self):
        for n in range(0, 4):
            for m in (1, 2):
                for i in range(1, m + 1):
                    d = hhr_family(n, i)
                    assert admissible(d, family_profile(n, m, i)) == []

    def test_too_long_for_smaller_theory(self):
        # the i-th family differential violates the k = n length bound in
        # every theory with m < i
        for n in range(0, 4):
            d = hhr_family(n, 2)
            violations = admissible(d, family_profile(n, 1, 2))
            assert any(v.clause == "length" and v.k == n for v in violations)

    def test_even_length_congruence_violation(self):
        # admissible constrains arbitrary records; an even-length arrow from
        # the origin breaks the shearing congruence at k = 1
        g = C(2)
        src = ClassMonomial(g, 2, u_exp=(1, 0))  # (0, 0)
        tgt = ClassMonomial(g, 2, a_exp=(2, 1))  # filtration 4
        d = Differential(g, 4, src, tgt)
        prof = VanishingProfile(1, 2, src.degree())
        violations = admissible(d, prof)
        assert any(v.clause == "congruence" and v.k == 1 for v in violations)

    def test_boundary_violation(self):
        g = C(1)
        src = ClassMonomial(g, 1, norms=((1, 1, 2),))  # (4, 0)
        tgt = ClassMonomial(g, 1, norms=((2, 1, 2),), a_exp=(9,))  # (3, 9)
        d = Differential(g, 9, src, tgt)
        prof = VanishingProfile(0, 3, VirtualRep.zero(g))
        violations = admissible(d, prof)
        assert any(v.clause == "boundary" for v in violations)

    def test_target_on_the_vanishing_line(self):
        # a source at (4, 0) is below s = (t-s); its target at (3, 9) lies on
        # the k = 1 vanishing line s = (t-s) + 6 for h = 2, below it for h = 4
        g = C(2)
        src = ClassMonomial(g, 2, norms=((1, 2, 1),))
        tgt = ClassMonomial(g, 2, norms=((2, 2, 1),), a_exp=(9, 0))
        d = Differential(g, 9, src, tgt)
        assert [str(v) for v in admissible(d, VanishingProfile(1, 2, VirtualRep.zero(g)))] == [
            "[k=1 target-region] target at (3, 9) is not strictly below the "
            "vanishing line s = 1(t-s) + 6"
        ]
        assert admissible(d, VanishingProfile(1, 4, VirtualRep.zero(g))) == []

    def test_negative_stem_sources_skipped(self):
        g = C(1)
        src = ClassMonomial(g, 1, a_exp=(2,))  # stem -2
        tgt = ClassMonomial(g, 1, a_exp=(4,))  # stem -4, filtration 4
        d = Differential(g, 2, src, tgt)
        assert admissible(d, VanishingProfile(0, 1, VirtualRep.zero(g))) == []

    def test_group_mismatch_rejected(self):
        d = hhr_family(1, 1)
        with pytest.raises(RepError):
            admissible(d, VanishingProfile(0, 1, VirtualRep.zero(C(1))))


@st.composite
def top_monomials(draw, group):
    lv = group.exponent
    norm = st.tuples(st.integers(1, 4), st.integers(1, lv), st.integers(1, 3))
    vec = st.lists(st.integers(0, 4), min_size=lv, max_size=lv).map(tuple)
    return ClassMonomial(group, lv, 1, tuple(draw(st.lists(norm, max_size=2))), draw(vec), draw(vec))


@st.composite
def admissibility_cases(draw):
    """A profile for n <= 5 with a grading of either sign and h = 2^n m, and a
    family, transported, Leibniz-product or arbitrary-endpoint differential;
    large gradings and a-classes put sources at x < 0."""
    n = draw(st.integers(0, 5))
    group = C(n + 1)
    span = draw(st.sampled_from([3, 12, 60]))
    coeffs = st.lists(st.integers(-span, span), min_size=n + 2, max_size=n + 2)
    profile = VanishingProfile(n, (1 << n) * draw(st.integers(1, 8)), VirtualRep(group, tuple(draw(coeffs))))
    i = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["family", "transported", "leibniz", "arbitrary"]))
    if kind == "family":
        d = hhr_family(n, i)
    elif kind == "transported":
        j = draw(st.integers(0, n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegionWarning)
            d = transport(hhr_family(j, i), n - j)
    elif kind == "leibniz":
        try:
            d = leibniz(hhr_family(n, i), draw(top_monomials(group)))
        except LeibnizZeroError:
            d = hhr_family(n, i)
    else:
        page = draw(st.integers(2, 300))
        d = Differential(group, page, draw(top_monomials(group)), draw(top_monomials(group)))
    return d, profile


class TestAgainstReference:
    """The integer admissibility check against the Fraction-Line one: same
    violations, in the same order, with the same messages."""

    @given(admissibility_cases())
    def test_matches_reference(self, case):
        d, profile = case
        assert admissible(d, profile) == reference_admissible(d, profile)

    def test_seeded_sweep_fires_every_clause(self):
        rng = random.Random(29)
        clauses, skipped = set(), 0
        for _ in range(600):
            n = rng.randint(0, 5)
            group = C(n + 1)
            profile = VanishingProfile(
                n, (1 << n) * rng.randint(1, 8), random_rep(rng, group, span=rng.choice([3, 12, 60]))
            )
            if rng.random() < 0.5:
                d = hhr_family(n, rng.randint(1, 6))
            else:
                src, tgt = random_monomial(rng, group), random_monomial(rng, group)
                d = Differential(group, rng.randint(2, 300), src, tgt)
            got = admissible(d, profile)
            assert got == reference_admissible(d, profile)
            clauses |= {v.clause for v in got}
            skipped += d.source.stem < profile.grading.dimension
        assert clauses == {"length", "congruence", "target-region", "boundary"}
        assert skipped
