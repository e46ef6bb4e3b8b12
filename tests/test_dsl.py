import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import sliceshear.vanishing  # noqa: F401 -- imported before the allocation test measures
from sliceshear import (
    ClassMonomial,
    CyclicGroup,
    DslError,
    DslSemanticError,
    DslSyntaxError,
    GuideSpec,
    VirtualRep,
    build_D,
    dsl,
    hhr_family,
    hu_kriz_seed,
    norm_class,
    parse,
    parse_class_expr,
    parse_diff_spec,
    parse_group_name,
    parse_rep,
    print_canonical,
)
from helpers import (
    random_document,
    random_monomial,
    random_rep,
    reference_parse_class_expr,
    reference_parse_rep,
)


def C(n):
    return CyclicGroup(n)


class TestGroupLiterals:
    def test_valid(self):
        assert parse_group_name("C1") == C(0)
        assert parse_group_name(" C16 ") == C(4)

    def test_invalid(self):
        with pytest.raises(DslSyntaxError):
            parse_group_name("D8")
        with pytest.raises(DslSemanticError):
            parse_group_name("C6")


class TestRepLiterals:
    def test_examples(self):
        g = C(2)
        assert parse_rep("2-2s", g) == VirtualRep.of(g, triv=2, sigma=-2)
        assert parse_rep("4l1+2s", g) == VirtualRep.of(g, sigma=2, lam={1: 4})
        assert parse_rep("1", g) == VirtualRep.of(g, triv=1)
        assert parse_rep("0", g) == VirtualRep.zero(g)
        assert parse_rep("-s", g) == VirtualRep.of(g, sigma=-1)

    def test_l0_sugar(self):
        g = C(2)
        assert parse_rep("l0", g) == VirtualRep.of(g, sigma=2)
        assert parse_rep("3l0-2s", g) == VirtualRep.of(g, sigma=4)

    def test_unknown_basis_is_semantic(self):
        with pytest.raises(DslSemanticError):
            parse_rep("l3", C(2))
        with pytest.raises(DslSemanticError):
            parse_rep("s", C(0))

    def test_syntax_errors(self):
        g = C(2)
        for bad in ("", "2++s", "2 2s", "s+", "x"):
            with pytest.raises(DslSyntaxError):
                parse_rep(bad, g)

    @pytest.mark.parametrize(
        "text, exponent, message, col",
        [
            ("1+l5", 2, "l5 is not a basis element of RO(C4)", 6),
            ("2 - 3s", 0, "s is not a basis element of RO(C1)", 9),
            ("1-l0", 0, "l0 is not available over C1", 6),
            ("s + 2l1", 1, "l1 is not a basis element of RO(C2)", 9),
        ],
    )
    def test_semantic_error_points_at_the_term(self, text, exponent, message, col):
        with pytest.raises(DslSemanticError) as exc:
            parse_rep(text, C(exponent), 4)
        assert (exc.value.reason, exc.value.col) == (message, col)

    def test_round_trip(self):
        rng = random.Random(51)
        for _ in range(300):
            g = C(rng.randint(0, 5))
            v = random_rep(rng, g)
            assert parse_rep(str(v), g) == v


class TestClassExpressions:
    def test_tokens(self):
        g = C(3)
        m = parse_class_expr("Nt[3,3]*aS^8*u2S^2", g)
        assert m.norms == ((3, 3, 1),)
        assert m.a_exp == (8, 0, 0) and m.u_exp == (2, 0, 0)

    def test_coefficient_and_unit(self):
        g = C(1)
        assert parse_class_expr("1", g).is_one
        assert parse_class_expr("3*u2S", g).coeff == 3
        assert parse_class_expr("0", g).is_zero

    def test_d_token_expands(self):
        g = C(2)
        assert parse_class_expr("D[2,1]", g) == build_D(2, 1)
        assert parse_class_expr("D[2,3]^2", g).norms == ((3, 2, 2), (6, 2, 2))

    def test_torsion_applied(self):
        g = C(1)
        assert parse_class_expr("2*aS", g).is_zero
        assert parse_class_expr("-1*aS", g).coeff == 1  # reduced mod 2

    def test_level_marker_constraints(self):
        g = C(3)
        with pytest.raises(DslSemanticError):
            parse_class_expr("aL2", g, level=2)  # basis at C4 stops at aL1
        with pytest.raises(DslSemanticError):
            parse_class_expr("Nt[1,3]", g, level=2)
        with pytest.raises(DslSemanticError):
            parse_class_expr("D[3,1]", g, level=2)

    def test_syntax_errors(self):
        g = C(2)
        for bad in ("", "aS**2", "aS^", "aS aS", "Nt[1]", "*aS", "aS*"):
            with pytest.raises(DslSyntaxError):
                parse_class_expr(bad, g)

    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(300):
            g = C(rng.randint(0, 4))
            lv = rng.randint(0, g.exponent)
            m = random_monomial(rng, g, lv)
            assert parse_class_expr(print_canonical(m), g, lv) == m


class TestCanonicalStrings:
    def test_seed_print(self):
        assert print_canonical(hu_kriz_seed(2)) == "diff 7: u2S^2 -> Nt[2,1]*aS^7"

    def test_family_print(self):
        # the reduced-regular Euler power expands with its sigma part folded in
        assert print_canonical(hhr_family(1, 1)) == "diff 5: u2S -> Nt[1,2]*aL1*aS^3"

    def test_unit_and_zero(self):
        assert print_canonical(ClassMonomial.one(C(1), 1)) == "1"
        assert print_canonical(ClassMonomial.zero(C(1), 1)) == "0"

    def test_representation_and_other_values(self):
        assert print_canonical(VirtualRep.of(C(2), triv=2, sigma=-2)) == "2-2s"
        with pytest.raises(TypeError, match="^cannot print object canonically$"):
            print_canonical(object())

    def test_norms_sorted_by_level_then_index(self):
        g = C(2)
        m = norm_class(g, 2, j=2) * norm_class(g, 1, j=1) * norm_class(g, 1, j=2)
        assert print_canonical(m) == "Nt[1,1]*Nt[1,2]*Nt[2,2]"

    def test_lambda_descending_then_sigma(self):
        g = C(3)
        m = ClassMonomial(g, 3, a_exp=(2, 3, 1), u_exp=(1, 0, 4))
        assert print_canonical(m) == "aL2*aL1^3*aS^2*uL2^4*u2S"


class TestDiffSpecs:
    def test_parse(self):
        d = parse_diff_spec("3: u2S -> Nt[1,1]*aS^3", C(1))
        assert d == hu_kriz_seed(1)
        assert d.provenance == "user"

    def test_page_below_two(self):
        with pytest.raises(DslSemanticError):
            parse_diff_spec("1: u2S -> aS", C(1))

    def test_invalid_bidegree_reports_stem_first(self):
        with pytest.raises(DslSemanticError, match="stem mismatch"):
            parse_diff_spec("4: u2S -> aS^4", C(1))

    def test_not_an_arrow(self):
        with pytest.raises(DslSyntaxError):
            parse_diff_spec("3: u2S", C(1))


class TestDocuments:
    HU_KRIZ = (
        "# classical chart over C2\n"
        "group C2\n"
        "window -2 8 8\n"
        "class u1 = u2S\n"
        "class t1 = Nt[1,1]*aS^3\n"
        "diff 3: u2S -> Nt[1,1]*aS^3\n"
        "diff 7: u2S^2 -> Nt[2,1]*aS^7\n"
        "guide L0\n"
        "guide L1\n"
    )

    def test_parse_hu_kriz(self):
        doc = parse(self.HU_KRIZ)
        assert doc.group == C(1)
        assert doc.diffs[0] == hu_kriz_seed(1)
        assert doc.diffs[1] == hu_kriz_seed(2)
        assert len(doc.classes) == 2 and len(doc.guides) == 2

    def test_empty_chart_valid(self):
        doc = parse("group C4\n")
        assert doc.group == C(2) and not doc.classes and not doc.diffs

    def test_group_must_come_first(self):
        with pytest.raises(DslSyntaxError):
            parse("window 0 4 4\ngroup C2\n")

    def test_duplicate_statements(self):
        with pytest.raises(DslSemanticError):
            parse("group C2\ngroup C2\n")
        with pytest.raises(DslSemanticError):
            parse("group C2\ngrading s\ngrading s\n")
        with pytest.raises(DslSemanticError):
            parse("group C2\nclass a = 1\nclass a = u2S\n")

    def test_semantic_diff_error_carries_line(self):
        text = "group C2\nclass ok = u2S\ndiff 4: u2S -> aS^4\n"
        with pytest.raises(DslSemanticError) as exc:
            parse(text)
        assert exc.value.line == 3
        assert "stem mismatch" in str(exc.value)

    def test_unknown_basis_in_document(self):
        with pytest.raises(DslSemanticError):
            parse("group C2\nclass x = aL1\n")  # C2 level basis is sigma only

    def test_level_marker(self):
        doc = parse("group C8\nclass t = Nt[1,1]*aS^3 @C2\n")
        name, m = doc.classes[0]
        assert m.level == 1 and m.group == C(3)
        assert print_canonical(doc).splitlines()[1] == "class t = Nt[1,1]*aS^3 @C2"

    def test_window_validation(self):
        with pytest.raises(DslSemanticError):
            parse("group C2\nwindow 4 0 4\n")
        with pytest.raises(DslSemanticError):
            parse("group C2\nwindow 0 4 -1\n")

    def test_guide_validation(self):
        with pytest.raises(DslSemanticError):
            parse("group C4\nguide L3\n")
        with pytest.raises(DslSemanticError):
            parse("group C4\nguide vanish h=3 k=1\n")
        with pytest.raises(DslSyntaxError):
            parse("group C4\nguide diagonal\n")

    def test_vanishing_guide_builds_no_offset_at_parse_time(self):
        # N_0 = 2^(h + 2) - 2 would take 25 MB; parsing only checks (h, k)
        tracemalloc.start()
        try:
            doc = parse("group C2\nwindow 0 4 4\nguide vanish h=200000000 k=0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert doc.guides == [GuideSpec("vanish", k=0, h=200000000)]
        assert peak < 1 << 20

    def test_order_insensitive_sections(self):
        text = (
            "group C4\n"
            "diff 5: u2S -> Nt[1,2]*aL1*aS^3\n"
            "grading 2-2s\n"
            "class u1 = u2S\n"
            "window -1 4 6\n"
        )
        doc = parse(text)
        assert doc.grading == VirtualRep.of(C(2), triv=2, sigma=-2)
        assert doc.diffs[0] == hhr_family(1, 1)

    def test_round_trip_documents(self):
        rng = random.Random(57)
        for _ in range(100):
            doc = random_document(rng)
            assert parse(print_canonical(doc)) == doc


# Malformed class expressions and the error each one raises, as the
# token-by-token parser (helpers.reference_parse_class_expr) reports it:
# (text, level, error class, message, column), parsed over C4 at line 7 with
# the expression starting at column 4.
ERROR_CORPUS = [
    ("", None, DslSyntaxError, "empty class expression", 4),
    ("   ", None, DslSyntaxError, "empty class expression", 4),
    ("aS^", None, DslSyntaxError, "expected an integer exponent after ^", 4),
    ("aS^2^3", None, DslSyntaxError, "expected * between factors, got '^'", 8),
    ("aL5 aS", None, DslSemanticError, "aL5 is not in the basis at level C4", 4),
    ("- 3", None, DslSyntaxError, "unexpected '-' in class expression", 4),
    ("aS**2", None, DslSyntaxError, "unexpected '*'", 7),
    ("*aS", None, DslSyntaxError, "unexpected '*'", 4),
    ("aS*", None, DslSyntaxError, "dangling * at end of class expression", 6),
    ("aS aS", None, DslSyntaxError, "expected * between factors, got 'aS'", 6),
    ("Nt[1]", None, DslSyntaxError, "unexpected 'N' in class expression", 4),
    ("aS^-1", None, DslSemanticError, "negative exponents are not allowed", 7),
    ("u2S * aS ^ -2", None, DslSemanticError, "negative exponents are not allowed", 14),
    ("x", None, DslSyntaxError, "unexpected 'x' in class expression", 4),
    ("aL", None, DslSyntaxError, "unexpected 'a' in class expression", 4),
    ("Nt [1,1]", None, DslSyntaxError, "unexpected 'N' in class expression", 4),
    ("Nt[0,1]", None, DslSemanticError, "Nt[0,1]: generator index must be >= 1", 4),
    (
        "Nt[1,3]",
        None,
        DslSemanticError,
        "Nt[1,3]: norm level must lie between 1 and the class level 2",
        4,
    ),
    ("D[0,1]", None, DslSemanticError, "D[0,1]: both indices must be >= 1", 4),
    ("D[3,1]", None, DslSemanticError, "D[3,1] needs a level of at least C8", 4),
    ("aL2", None, DslSemanticError, "aL2 is not in the basis at level C4", 4),
    ("^2", None, DslSyntaxError, "unexpected '^'", 4),
    ("2aS", None, DslSyntaxError, "expected * between factors, got 'aS'", 5),
    ("u2S*uL3^2", None, DslSemanticError, "uL3 is not in the basis at level C4", 8),
    ("aS^ 2 ^3", None, DslSyntaxError, "expected * between factors, got '^'", 9),
    ("aS^\u00b2", None, DslSyntaxError, "unexpected '\u00b2' in class expression", 7),
    ("Nt[1,1]*aS^2*aL1^-3", None, DslSemanticError, "negative exponents are not allowed", 21),
    ("aS@C2", None, DslSyntaxError, "unexpected '@' in class expression", 6),
    ("aS^-1*x", None, DslSyntaxError, "unexpected 'x' in class expression", 10),
    ("u2S", 0, DslSemanticError, "u2S needs a level of at least C2", 4),
    ("1", 3, DslSemanticError, "level 3 out of range for ambient group C4", 4),
    # the level is admitted before any factor is read
    ("aS", 3, DslSemanticError, "level 3 out of range for ambient group C4", 4),
    ("aS", True, DslSemanticError, "level True out of range for ambient group C4", 4),
    ("aS", 1.0, DslSemanticError, "level 1.0 out of range for ambient group C4", 4),
    ("aS", -1, DslSemanticError, "level -1 out of range for ambient group C4", 4),
    ("x*aL5", -1, DslSemanticError, "level -1 out of range for ambient group C4", 4),
]


@pytest.mark.parametrize("text, level, error, message, col", ERROR_CORPUS)
def test_error_corpus(text, level, error, message, col):
    with pytest.raises(DslError) as exc:
        parse_class_expr(text, C(2), level, 7, 4)
    assert type(exc.value) is error
    assert (exc.value.reason, exc.value.line, exc.value.col) == (message, 7, col)


def test_shared_factor_memo_keeps_level_and_column():
    # each second line repeats a factor of the line before, at another level,
    # column or statement kind
    cases = [
        (
            "group C4\nclass a = aS*aL1\nclass b = u2S * aL1 @C2\n",
            DslSemanticError, "aL1 is not in the basis at level C2", 15,
        ),
        (
            "group C4\nclass a = aL1^2\ndiff 3: u2S -> aS*aL1^-2\n",
            DslSemanticError, "negative exponents are not allowed", 22,
        ),
        (
            "group C4\nclass a = aS*aL1\ndiff 3: aS*aL1 -> aS*aL1 x\n",
            DslSyntaxError, "unexpected 'x' in class expression", 24,
        ),
        # a factor valid at one level is checked again at another
        (
            "group C8\nclass x = aL2\nclass y = aL2*aS @C4\n",
            DslSemanticError, "aL2 is not in the basis at level C4", 10,
        ),
        (
            "group C8\nclass x = Nt[1,3]\nclass y = Nt[1,3]*aS @C4\n",
            DslSemanticError, "Nt[1,3]: norm level must lie between 1 and the class level 2", 10,
        ),
    ]
    for text, error, message, col in cases:
        with pytest.raises(DslError) as exc:
            parse(text)
        assert type(exc.value) is error
        assert (exc.value.reason, exc.value.line, exc.value.col) == (message, 3, col)
    # whole expressions are memoized too: the same text at two levels keeps
    # each line's level, and a diff restating a class equals a fresh parse (no
    # space before "@", which would belong to the expression's text)
    target = "Nt[1,3]*aL2^2*aL1*aS^3"
    doc = parse(
        f"group C8\nclass a = aS*aL1\nclass b = aS*aL1@C4\nclass c = aS*aL1\n"
        f"class t = {target}\ndiff 9: u2S -> {target}\n"
    )
    (_, a), (_, b), (_, c), (_, t) = doc.classes
    assert (a.level, b.level) == (3, 2)
    assert a == c == parse_class_expr("aS*aL1", C(3))
    assert b == parse_class_expr("aS*aL1", C(3), level=2)
    assert t == doc.diffs[0].target == parse_class_expr(target, C(3))
    # the expression memo lives for one document: the next one, over another
    # group, gets monomials over that group (the factor cache, which outlives
    # a document, holds no group)
    doc = parse("group C16\nclass a = aS*aL1@C8\nclass b = aS\n")
    assert [m for _, m in doc.classes] == [
        parse_class_expr("aS*aL1", C(4), level=3), parse_class_expr("aS", C(4))
    ]
    # an invalid expression raises at its first line and at its first error,
    # in this document and again at its own column in the next: failures are
    # never memoized
    for text, line, col in [
        ("group C4\nclass a = aS*aL5*aL6\nclass b = aS*aL5*aL6\n", 2, 13),
        ("group C4\nclass longer = aS*aL5*aL6\n", 2, 18),
    ]:
        with pytest.raises(DslSemanticError) as exc:
            parse(text)
        assert (exc.value.reason, exc.value.line, exc.value.col) == (
            "aL5 is not in the basis at level C4", line, col
        )


def _doc_outcome(text):
    try:
        return parse(text)
    except DslError as e:
        return type(e), e.reason, e.line, e.col


# edits that make a valid document fail in a factor, a statement or a level
_EDITS = st.sampled_from(
    list("*^- 07#\n") + ["aS", "aL5", "uL2", "u2S", "Nt[1,9]", "D[9,1]", "x", "@C2", "^-1"]
)


@st.composite
def mutated_documents(draw):
    """A random document's canonical text with up to three edits, each an
    insertion that may overwrite up to two characters."""
    text = print_canonical(random_document(random.Random(draw(st.integers(0, 2**16)))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_EDITS) + text[at + draw(st.integers(0, 2)) :]
    return text


@settings(max_examples=200, deadline=None)
@given(mutated_documents(), mutated_documents())
# a piece valid at the other document's level and not at this one's
@example("group C4\nclass b = aL2\n", "group C8\nclass a = aL2\n")
def test_factor_cache_never_changes_a_parse(text, other):
    dsl._factor.cache_clear()
    cold = _doc_outcome(text)
    # warm the cache with another document, whose pieces may stand at other
    # levels, with these pieces at other columns, and with these
    for warm in (other, text.replace(" = ", " =   "), text):
        _doc_outcome(warm)
    assert _doc_outcome(text) == cold


def test_cached_factor_error_takes_each_documents_column():
    # each pair holds one piece at two columns, parsed in a row; the error
    # inside the piece keeps its offset from the piece's start
    pairs = [
        ("aL5", DslSemanticError, "aL5 is not in the basis at level C4", 0),
        ("aS^-1", DslSemanticError, "negative exponents are not allowed", 3),
        ("aS aL1", DslSyntaxError, "expected * between factors, got 'aL1'", 2),
        ("aS^", DslSyntaxError, "expected an integer exponent after ^", 0),
    ]
    for piece, error, message, offset in pairs:
        for head, col in [("class a = ", 10), ("class abc = u2S*", 16)]:
            with pytest.raises(error) as exc:
                parse(f"group C4\n{head}{piece}\n")
            assert (exc.value.reason, exc.value.line, exc.value.col) == (
                message, 2, col + offset
            )


def test_factor_cache_is_bounded():
    info = dsl._factor.cache_info
    dsl._factor.cache_clear()
    for k in range(1100):
        assert parse_class_expr(f"aS*{2 * k + 1}", C(2)).coeff == 1
    assert info().misses == 1101 and info().currsize <= info().maxsize == 1024
    dsl._factor.cache_clear()
    # a level past 64 and a text past 256 characters bypass the cache
    a = (1,) + (0,) * 63 + (1,)
    assert parse_class_expr("aS*aL64*3", C(65)) == ClassMonomial(C(65), 65, 1, (), a)
    long = "aS*" + " " * 256 + "aL1"
    assert parse_class_expr(long, C(2)) == ClassMonomial(C(2), 2, 1, (), (1, 1))
    assert info().currsize == 0
    # the same pieces at level 64, in a short text, enter it
    parse_class_expr("aS*aL63*3", C(64))
    assert info().currsize == 3


@pytest.mark.parametrize(
    "expr, col",
    [
        ("3^6000000*aS", 10),
        # 10^4300 has 4,301 digits: bit lengths leave it open, the power decides
        ("aS*10^4300", 13),
        ("aS*  -2^99999999999999999999", 13),
    ],
)
def test_coefficient_power_past_digit_limit(default_digit_limit, expr, col):
    with pytest.raises(DslSemanticError) as exc:
        parse(f"group C2\nclass x = {expr}\n")
    assert (exc.value.reason, exc.value.line, exc.value.col) == (
        "coefficient power has more than 4300 digits", 2, col
    )


def test_coefficient_power_within_digit_limit(default_digit_limit):
    assert parse_class_expr("10^4299", C(0)).coeff == 10**4299
    assert parse_class_expr("-10^4299", C(0)).coeff == -(10**4299)
    # bases 0, 1 and -1 stay small at any exponent
    e = 10**30
    assert [parse_class_expr(f"{x}^{e + 1}", C(0)).coeff for x in (0, 1, -1)] == [0, 1, -1]
    # with no digit limit, the power is not bounded
    sys.set_int_max_str_digits(0)
    try:
        assert parse_class_expr("10^4400", C(0)).coeff == 10**4400
    finally:
        dsl._factor.cache_clear()  # it holds a factor read under no limit


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("group C2\ngroup C4\n", "duplicate group statement", 2, 6),
        ("group C2\ngrading s\ngrading 1\n", "duplicate grading statement", 3, 8),
        ("group C2\nwindow 0 4 4\nwindow 0 1 1\n", "duplicate window statement", 3, 7),
        ("group C2\nclass a = aS\nclass a = 1\n", "duplicate class name 'a'", 3, 6),
        ("group C4\nguide L9\n", "guide L9 is out of range for C4", 2, 6),
        ("group C4\nguide vanish h=3 k=1\n", "height 3 is not divisible by 2^1", 2, 15),
        ("group C4\nguide vanish h=3 k=0\n", "height 3 is not a multiple of 2^1 for C4", 2, 15),
        ("group C4\nguide vanish h=4 k=2\n", "vanishing index k=2 out of range for n=1", 2, 19),
        ("group C1\nguide vanish h=1 k=0\n", "vanishing guides need a group of at least C2", 2, 6),
        ("group C1\nguide boundary\n", "boundary guides need a group of at least C2", 2, 6),
    ],
)
def test_statement_errors_carry_the_column(text, message, line, col):
    with pytest.raises(DslSemanticError) as exc:
        parse(text)
    assert (exc.value.reason, exc.value.line, exc.value.col) == (message, line, col)


_WS = st.sampled_from(["", "", "", " ", "  ", "\t", "\u00a0", "\x1c"])
# ASCII digits, a leading zero and Arabic-Indic digits (Unicode Nd, like \d)
_DIGITS = st.sampled_from(["0", "1", "2", "3", "01", "12", "\u0661", "\u0662"])
_JUNK = st.sampled_from(
    ["", "x", "-", "^", "*", "\u00b2", "@C2", "Nt[1]", "Nt [1,1]", "aL", "- 3", "1_0", "+2", "--1"]
)


@st.composite
def class_expr_soups(draw):
    """Factor tokens with optional exponents, whitespace around and inside
    them, joined mostly by * but also by **, ^, a space or nothing."""
    text = ""
    for idx in range(draw(st.integers(0, 4))):
        if idx:
            text += draw(st.sampled_from(["*"] * 12 + ["**", "^", " ", ""]))
        kind = draw(st.sampled_from(["aS", "u2S", "aL", "uL", "Nt", "D", "num", "junk"]))
        if kind in ("aL", "uL"):
            base = kind + draw(_DIGITS)
        elif kind in ("Nt", "D"):
            i, j = draw(_DIGITS), draw(_DIGITS)
            base = f"{kind}[{draw(_WS)}{i}{draw(_WS)},{draw(_WS)}{j}{draw(_WS)}]"
        elif kind == "num":
            base = draw(st.sampled_from(["", "-"])) + draw(_DIGITS)
        elif kind == "junk":
            base = draw(_JUNK)
        else:
            base = kind
        if draw(st.booleans()):
            sign = draw(st.sampled_from(["", "", "-", "- "]))
            base += f"{draw(_WS)}^{draw(_WS)}{sign}{draw(_DIGITS)}"
        text += draw(_WS) + base + draw(_WS)
    return text


def _outcome(parser, *args):
    try:
        return parser(*args)
    except Exception as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


@settings(max_examples=400, deadline=None)
@given(class_expr_soups(), st.integers(0, 4), st.integers(-1, 4), st.integers(0, 5))
@example("aS*+2", 1, -1, 0)
@example("aS*--1", 1, -1, 0)
@example("1_0*aS", 1, -1, 0)
@example("aL01 ^ 2*Nt[ 1 , 2 ]", 3, -1, 3)
@example("u2S\u00a0*\u00a0aL\u0661^\u0662", 2, 2, 1)
@example("D[2,1]^-1*x", 2, -1, 0)
@example("*^", 2, -1, 0)
@example("*^-1", 2, -1, 0)
@example("^^2", 2, -1, 0)
@example("aS* *^2", 2, -1, 0)
@example("aS**^2*x", 2, -1, 0)
@example("  *  ", 2, -1, 0)
def test_matches_reference_parser(text, exponent, level, col):
    """level -1 stands for None, the group's own level."""
    group = C(exponent)
    level = None if level < 0 else min(level, exponent)
    expected = _outcome(reference_parse_class_expr, text, group, level, 2, col)
    assert _outcome(parse_class_expr, text, group, level, 2, col) == expected


_REP_BASIS = st.sampled_from(["s", "l0", "l00", "l01", "l1", "l2", "l3", "l\u0661", "l"])
_REP_JUNK = st.sampled_from(["x", "+", "-", "*", "S", "\u00b2", "\u3000"])


@st.composite
def rep_soups(draw):
    """Terms of an optional sign, coefficient and basis element, each with
    whitespace before it, mixed with unknown characters."""
    text = ""
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 9)) == 0:
            text += draw(_WS) + draw(_REP_JUNK)
            continue
        if draw(st.booleans()):
            text += draw(_WS) + draw(st.sampled_from(["+", "-"]))
        if draw(st.booleans()):
            text += draw(_WS) + draw(_DIGITS)
        if draw(st.booleans()):
            text += draw(_WS) + draw(_REP_BASIS)
        text += draw(_WS)
    return text


@settings(max_examples=400, deadline=None)
@given(rep_soups(), st.integers(0, 4), st.integers(0, 5))
@example("2 s", 2, 3)
@example("- 2 l1", 2, 3)
@example("2+-s", 2, 3)
@example("s2", 2, 3)
@example("  x", 2, 3)
@example("2-", 2, 3)
def test_rep_matches_reference_parser(text, exponent, col):
    group = C(exponent)
    expected = _outcome(reference_parse_rep, text, group, col)
    assert _outcome(parse_rep, text, group, col) == expected


_LONG = "1" * 5000  # past the default int/str conversion limit of 4,300 digits


@pytest.mark.parametrize(
    "text, line, col",
    [
        (f"group C{_LONG}\n", 1, 6),
        (f"group C2\ngrading {_LONG}\n", 2, 8),
        (f"group C2\ngrading 1+l{_LONG}\n", 2, 10),
        (f"group C4\ngrading 2s - {_LONG}l1\n", 2, 12),
        (f"group C2\nwindow 0 {_LONG} 4\n", 2, 9),
        (f"group C4\nclass x = aL{_LONG}\n", 2, 10),
        (f"group C4\nclass x = aS*{_LONG}\n", 2, 13),
        (f"group C4\nclass   x =   aS*{_LONG}\n", 2, 17),
        (f"group C4\nclass x = aS^{_LONG}\n", 2, 13),
        (f"group C4\nclass x = Nt[{_LONG},1]\n", 2, 10),
        (f"group C4\nclass x = D[1,{_LONG}]\n", 2, 10),
        (f"group C4\nclass x = aS @C{_LONG}\n", 2, 14),
        (f"group C2\ndiff {_LONG}: u2S -> aS\n", 2, 5),
        (f"group C2\ndiff 3: u2S -> aS*uL{_LONG}\n", 2, 18),
        (f"group C4\nguide L{_LONG}\n", 2, 6),
        (f"group C4\nguide vanish h={_LONG} k=1\n", 2, 15),
    ],
)
def test_integer_literal_past_digit_limit(default_digit_limit, text, line, col):
    with pytest.raises(DslSemanticError) as exc:
        parse(text)
    assert exc.value.reason == "integer literal of 5000 digits is too long"
    assert (exc.value.line, exc.value.col) == (line, col)


def test_digit_limit_error_keeps_its_place_in_order(default_digit_limit):
    # errors before the long literal still come first, as they did
    with pytest.raises(DslSemanticError, match="aL5 is not in the basis"):
        parse_class_expr(f"aL5*aL{_LONG}", C(2))
    with pytest.raises(DslSemanticError, match="negative exponents"):
        parse_class_expr(f"aL{_LONG}^-1", C(2))


def test_level_message_for_group_too_large_to_print(default_digit_limit):
    # C_(2^20000) has more digits than int-to-str allows; the group printer
    # spells it as a power of 2
    with pytest.raises(DslSemanticError) as exc:
        parse("group C4\nclass x = D[20000,1]\n")
    assert exc.value.reason == "D[20000,1] needs a level of at least C_(2^20000)"


def test_diff_degree_too_long_to_print_is_semantic(default_digit_limit):
    # validate() words a degree mismatch with the degrees, which have more
    # digits than int-to-str allows
    with pytest.raises(DslSemanticError) as exc:
        parse("group C2\ndiff 2: Nt[20000,1] -> Nt[20000,1]*aS\n")
    assert exc.value.line == 2
    assert exc.value.reason.startswith("invalid differential: Exceeds the limit")


@pytest.mark.parametrize(
    "statement, error, col",
    [
        ("group C6", DslSemanticError, 6),
        ("grading 1+l5", DslSemanticError, 10),
        ("window 4 0 4", DslSemanticError, 7),
        ("class x = aL5", DslSemanticError, 10),
        ("class x = aS @C3", DslSemanticError, 14),
        ("diff 3: u2S -> aS*aL5", DslSemanticError, 18),
        ("guide diagonal", DslSyntaxError, 6),
    ],
)
def test_error_on_line_3_carries_line_and_column(statement, error, col):
    head = "# a chart\n\n" if statement.startswith("group") else "group C4\n\n"
    with pytest.raises(DslError) as exc:
        parse(head + statement + "\n")
    assert type(exc.value) is error
    assert (exc.value.line, exc.value.col) == (3, col)
    assert str(exc.value).startswith(f"line 3, col {col}: ")


# Documents that fail on a line, one for each way a statement can fail: the
# statement errors, the diff errors about the whole spec, and every
# class-expression error of ERROR_CORPUS in a class and in a diff statement
# (but not one with @, which starts a class statement's level).
_LINE_ERRORS = [
    "grading 0\n",
    "@x\n",
    "group C6\n",
    "group X2\n",
    "group C2\n  ^^\n",
    "group C2\nfoo 1\n",
    "group C2\ngroup C2\n",
    "group C4\ngrading 1+l5\n",
    "group C4\ngrading 2++s\n",
    "group C2\ngrading s\ngrading s\n",
    "group C2\nwindow 0 4\n",
    "group C2\nwindow 4 0 4\n",
    "group C2\nwindow 0 4 4\nwindow 0 4 4\n",
    "group C2\nclass = aS\n",
    "group C2\nclass a = aS\nclass a = aS\n",
    "group C2\nclass a = aS @C6\n",
    "group C2\nclass a = aS @C4\n",
    "group C2\ndiff u2S -> aS\n",
    "group C2\ndiff 1: u2S -> aS\n",
    "group C2\nclass ok = u2S\ndiff 4: u2S -> aS^4\n",
    "group C2\ndiff 3: u2S -> u2S\n",
    "group C4\nguide L9\n",
    "group C4\nguide vanish h=3 k=1\n",
    "group C4\nguide vanish h=4 k=2\n",
    "group C1\nguide vanish h=1 k=0\n",
    "group C1\nguide boundary\n",
    "group C4\nguide diagonal\n",
] + [
    doc
    for text, level, *_ in ERROR_CORPUS
    if level is None and "@" not in text
    for doc in (f"group C4\nclass x = {text}\n", f"group C4\ndiff 3: {text} -> aS\n")
]


@pytest.mark.parametrize("text", _LINE_ERRORS)
def test_every_error_on_a_line_carries_line_and_column(text):
    with pytest.raises(DslError) as exc:
        parse(text)
    assert exc.value.line is not None and exc.value.col is not None
    # the empty document fails on no line and keeps neither
    with pytest.raises(DslError) as exc:
        parse("# no statements\n")
    assert (exc.value.line, exc.value.col) == (None, None)


@pytest.mark.parametrize(
    "text, error, line, col",
    [
        ("group C2\ndiff u2S -> aS\n", DslSyntaxError, 2, 5),
        ("group C2\nclass ok = u2S\ndiff 4: u2S -> aS^4\n", DslSemanticError, 3, 5),
        ("group C2\ndiff 1: u2S -> aS\n", DslSemanticError, 2, 5),
        ("group C2\n@x\n", DslSyntaxError, 2, 0),
        ("group C2\n  ^^\n", DslSyntaxError, 2, 2),
        ("group C2\nfoo 1\n", DslSyntaxError, 2, 0),
        ("grading 0\n", DslSyntaxError, 1, 0),
    ],
)
def test_statement_and_spec_errors_point_at_their_start(text, error, line, col):
    with pytest.raises(error) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)
