"""The engine's integer bounds.

Every input past a bound is refused where its integer enters, with an engine
error, before anything is built from it: each input of ``smoke.LIMITS`` exits
2 or 3 at once, and each call of ``smoke.SWEEP`` raises an engine error with
10**10, 10**30 and +-10**5000, each in a child with a capped address space.
Inside the bounds, every printed and rendered value stays printable: the
property tests below draw each bounded field at its bound, and exponents,
coefficients and pages at and past the digit bound through every door.  No
verdict depends on the interpreter's int/str digit limit.
"""

import json
import re
import sys
import time
import tracemalloc
import warnings

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from sliceshear import (
    ChartDocument,
    ClassMonomial,
    CyclicGroup,
    Differential,
    DifferentialError,
    DslSemanticError,
    GuideSpec,
    JsonSchemaError,
    MonomialError,
    N_constant,
    PermanentCycleFact,
    RepError,
    ShearContext,
    ShearError,
    VanishingProfile,
    VirtualRep,
    admissible,
    boundary_line,
    constant_C,
    correspond_class,
    differential_to_obj,
    emit_svg,
    export_json,
    hhr_family,
    import_json,
    leibniz,
    line_L,
    norm_class,
    obj_to_monomial,
    parse,
    parse_class_expr,
    print_canonical,
    shear_degree,
    shear_length,
    tower_report,
    transport,
    validate,
    vanishing_line,
)
from sliceshear.cli import main
from sliceshear.reps import _MAX_EXPONENT as G, _MAX_HEIGHT as H, _MAX_INDEX as I
from sliceshear.reps import _DIGITS_CAP, _EngineError, _MAX_WINDOW as W
from sliceshear.svg import CELL, PAD, _fmt
from smoke import LIMITS, SWEEP, limit_failure, sweep_failure

M = _DIGITS_CAP - 1  # the largest exponent, coefficient, page, t and s: 3,000 nines

# each LIMITS row's JSON error, as main prints it
_REFUSALS = [
    {"message": "height must be <= 4096, got 4000000000"},
    {"message": "Nt[99999999999,1]: generator index must be <= 2048", "col": 0},
    {"message": "shear step k must be <= 2047, got 99999999"},
    {"message": "height must be <= 4096, got 16384"},
    {"message": "group index must be <= 2047, got 100000"},
    {"message": "family index must be <= 2048, got 99999999"},
    {"message": "tower index n must be <= 2047, got 15000"},
    {"message": "shear step k must be <= 2047, got 20000"},
    {"message": "window outside -4096..4096", "line": 2, "col": 7},
    {"message": "Nt[10000000000,1]: generator index must be <= 2048", "line": 3, "col": 10},
    {"message": "coefficient product has more than 3000 digits", "col": 7},
    {"message": "t has more than 3000 digits"},
    {"message": "integer literal of 4000 digits is too long", "col": 0},
    {"message": "integer literal of 4000 digits is too long", "col": 11},
    {"message": "integer literal of 4000 digits is too long", "col": 18},
    {"message": "sheared exponent has more than 3000 digits"},
    {"message": "sheared exponent has more than 3000 digits"},
    {"message": "coefficient power has more than 3000 digits", "line": 3, "col": 10},
    {"message": "coefficient power has more than 3000 digits", "line": 3, "col": 10},
    {"message": "integer literal of 3001 digits is too long", "line": 3, "col": 13},
    {"message": "integer literal of 3001 digits is too long", "line": 3, "col": 5},
]
_IDS = [
    "vanishing-h-4e9", "correspond-Nt-1e11", "transport-k-1e8", "vanishing-h-16384",
    "hhr-n-100000", "hhr-i-1e8", "tower-n-15000", "transport-k-20000", "chart-window-1e6",
    "chart-class-Nt-1e10", "correspond-coefficient-product", "shear-t-4000-digits",
    "rep-lines-coefficient-4000-digits", "correspond-exponent-4000-digits",
    "transport-exponent-4000-digits", "correspond-sheared-exponent", "transport-sheared-exponent",
    "chart-power-2^9999999999", "chart-power-3^100000", "chart-exponent-3001-digits",
    "chart-page-3001-digits",
]


@pytest.mark.parametrize("dsl, argv", LIMITS, ids=_IDS)
def test_input_past_a_bound_exits_2_or_3_at_once(dsl, argv, tmp_path):
    start = time.perf_counter()
    assert limit_failure(dsl, argv, str(tmp_path)) is None
    assert time.perf_counter() - start < 1


def _names_it(row, capsys, monkeypatch, tmp_path) -> None:
    """LIMITS[row], run by main in process, exits 3 with its _REFUSALS error."""
    dsl, argv = LIMITS[row]
    monkeypatch.chdir(tmp_path)
    if dsl is not None:
        (tmp_path / "big.dsl").write_text(dsl)
    assert main(argv) == 3
    captured = capsys.readouterr()
    want = {"code": 3, "kind": "semantic", **_REFUSALS[row]}
    assert captured.out == "" and json.loads(captured.err) == {"error": want}


@pytest.mark.parametrize("row", range(len(LIMITS)), ids=_IDS)
def test_input_past_a_bound_names_it(row, capsys, monkeypatch, tmp_path, default_digit_limit):
    _names_it(row, capsys, monkeypatch, tmp_path)


@pytest.mark.parametrize("row", range(len(LIMITS)), ids=_IDS)
def test_input_past_a_bound_names_it_with_no_digit_limit(
    row, capsys, monkeypatch, tmp_path, default_digit_limit
):
    """The refusal does not hang on the interpreter's int/str digit limit."""
    sys.set_int_max_str_digits(0)  # the fixture restores it
    _names_it(row, capsys, monkeypatch, tmp_path)


@pytest.mark.parametrize("call", SWEEP)
def test_library_call_past_a_bound_raises_an_engine_error(call):
    assert sweep_failure(call) is None


def test_json_norm_index_past_the_bound_is_refused_at_its_path():
    # it was once refused only by validate, after building 2^(10^8) twice
    # (a 79 MB peak), with a message that ended in advice to raise the digit limit
    obj = differential_to_obj(hhr_family(0, 1))
    obj["source"]["norms"] = obj["target"]["norms"] = [[10**8, 1, 1]]
    tracemalloc.start()
    try:
        with pytest.raises(JsonSchemaError) as e:
            import_json(json.dumps([obj]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert str(e.value) == "items[0].source.norms[0][0]: must be <= 2048, got 100000000"


@pytest.mark.parametrize(
    "text, line, col, reason",
    [
        (f"group C{1 << 2049}\n", 1, 6, "group exponent must be <= 2048, got 2049"),
        (f"group C4\nclass x = aS @C{1 << 2049}\n", 2, 14,
         "group exponent must be <= 2048, got 2049"),
        ("group C2\nwindow -4097 0 0\n", 2, 7, "window outside -4096..4096"),
        ("group C2\nwindow 0 0 4097\n", 2, 7, "window outside -4096..4096"),
        ("group C2\nwindow 3 1 4097\n", 2, 7, "degenerate window (3, 1, 4097)"),
        ("group C2\nclass x = aS*D[13,1]\n", 2, 13, "D[13,1]: generator index must be <= 2048"),
        ("group C2\nclass x = Nt[2049,1]\n", 2, 10, "Nt[2049,1]: generator index must be <= 2048"),
        ("group C2\nguide vanish h=4097 k=0\n", 2, 15, "height must be <= 4096, got 4097"),
        (f"group C4\ngrading s+{'9' * 3001}\n", 2, 10, "integer literal of 3001 digits is too long"),
        (f"group C4\ngrading {'9' * 3000}s+s\n", 2, 3010, "coefficient has more than 3000 digits"),
    ],
    ids=["group", "level", "x_min", "s_max", "degenerate-first", "D", "Nt", "guide-height",
         "grading-coefficient", "grading-sum"],
)
def test_chart_text_past_a_bound_is_a_semantic_error_at_its_place(text, line, col, reason):
    with pytest.raises(DslSemanticError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col, exc.value.reason) == (line, col, reason)


@pytest.mark.parametrize(
    "expr, col, reason",
    [
        (f"aS^{M}*aS", 0, "exponent has more than 3000 digits"),
        (f"u2S^{M} * u2S^{M}", 0, "exponent has more than 3000 digits"),
        (f"Nt[1,1]^{M}*D[1,1]", 0, "exponent has more than 3000 digits"),
        (f"Nt[2,2]^{M}*Nt[2,2]^{M}*aS", 0, "exponent has more than 3000 digits"),
        (f"-{M}*-{M}", 3002, "coefficient product has more than 3000 digits"),
    ],
    ids=["a", "u", "Nt-and-D", "Nt-twice", "coefficient"],
)
def test_chart_text_summing_past_the_digit_bound_is_refused(expr, col, reason):
    """Each literal is at the bound, and factors that add up pass it: a sum
    of exponents is refused at the expression, a product at its factor."""
    with pytest.raises(DslSemanticError) as exc:
        parse_class_expr(expr, CyclicGroup(2), line=3)
    assert (exc.value.line, exc.value.col, exc.value.reason) == (3, col, reason)
    # exponents of different factors that add up past the bound are not a sum
    m = parse_class_expr(f"aS^{M}*aL1^{M}*u2S^{M}*Nt[1,1]^{M}*Nt[2,2]^{M}", CyclicGroup(2))
    assert m.a_exp == (M, M) and m.norms == ((1, 1, M), (2, 2, M))


_PATHS = {
    "page": (("page",), 10**3000, "items[0].page: has more than 3000 digits"),
    "coeff": (("source", "coeff"), -(10**3000), "items[0].source.coeff: has more than 3000 digits"),
    "a": (("source", "a"), {"s": 10**3000}, "items[0].source.a.s: has more than 3000 digits"),
    "exponent": (("target", "norms"), [[1, 1, 10**3000]],
                 "items[0].target.norms: exponent has more than 3000 digits"),
    "duplicates": (("target", "norms"), [[1, 1, M], [1, 1, 1]],
                   "items[0].target.norms: exponent has more than 3000 digits"),
    "level": (("source", "level"), 10**3000, "items[0].source.level: has more than 3000 digits"),
    "norm-j": (("target", "norms"), [[1, 10**3000, 1]],
               "items[0].target.norms[0][1]: has more than 3000 digits"),
}


@pytest.mark.parametrize("field", _PATHS)
def test_json_past_the_digit_bound_is_refused_at_its_path(field, default_digit_limit):
    keys, value, message = _PATHS[field]
    obj = differential_to_obj(hhr_family(0, 1))
    holder = obj
    for key in keys[:-1]:
        holder = holder[key]
    holder[keys[-1]] = value
    with pytest.raises(JsonSchemaError) as exc:
        import_json(json.dumps([obj]))
    assert str(exc.value) == message


def _at_bound():
    return norm_class(CyclicGroup(1), 2048, exp=M)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ClassMonomial(CyclicGroup(1), 1, 3) ** 10**10, MonomialError,
         "coefficient has more than 3000 digits"),
        (lambda: ClassMonomial(CyclicGroup(1), 1, 10**3000), MonomialError,
         "coefficient has more than 3000 digits"),
        (lambda: ClassMonomial(CyclicGroup(1), 1, a_exp=[10**3000]), MonomialError,
         "a_exp entry has more than 3000 digits"),
        (lambda: ClassMonomial(CyclicGroup(1), 1, u_exp=(10**1500,)) ** 10**1500, MonomialError,
         "u_exp entry has more than 3000 digits"),
        (lambda: _at_bound() * norm_class(CyclicGroup(1), 2048), MonomialError,
         "norm exponent has more than 3000 digits"),
        (lambda: ClassMonomial(CyclicGroup(1), 1, norms=[(10**5000, 1, 1)]), MonomialError,
         "norm index i has more than 3000 digits"),
        (lambda: Differential(CyclicGroup(1), 10**3000, _at_bound(), _at_bound()),
         DifferentialError, "differential page has more than 3000 digits"),
        (lambda: correspond_class(_at_bound(), ShearContext.lift(CyclicGroup(1), 1)),
         ShearError, "sheared exponent has more than 3000 digits"),
        (lambda: transport(Differential(CyclicGroup(1), M, _at_bound(), _at_bound()), 0),
         None, None),
        (lambda: transport(Differential(CyclicGroup(1), M, ClassMonomial(CyclicGroup(1), 1),
                                        ClassMonomial(CyclicGroup(1), 1)), 1),
         DifferentialError, "differential page has more than 3000 digits"),
        (lambda: shear_length(3, 10**5000), ShearError, "shear step k has more than 3000 digits"),
        (lambda: shear_length(10**3000, 1), ShearError,
         "differential length has more than 3000 digits"),
        (lambda: shear_length(10**3000 - 1, 1), ShearError,
         "sheared length has more than 3000 digits"),
        (lambda: PermanentCycleFact(10**3000, VirtualRep.of(CyclicGroup(1), sigma=2), "x"),
         DifferentialError, "theory truncation index has more than 3000 digits"),
        (lambda: ClassMonomial(CyclicGroup(1), 10**5000), MonomialError,
         "level has more than 3000 digits"),
        (lambda: parse_class_expr("aS", CyclicGroup(1), -(10**5000)), DslSemanticError,
         "level has more than 3000 digits"),
        (lambda: N_constant(-(10**5000), 0, 0), RepError, "height has more than 3000 digits"),
    ],
    ids=["power", "coefficient", "a-entry", "u-power", "product", "norm-index", "page",
         "correspond", "transport-k-0", "transport-page", "admit", "admit-open-above",
         "sheared-length", "admit-open-above-truncation", "monomial-level", "class-expr-level",
         "height"],
)
def test_library_value_past_the_digit_bound_raises_an_engine_error(
    call, error, message, default_digit_limit
):
    """Each refusal comes at once, and names no value too long to print."""
    start = time.perf_counter()
    if error is None:
        call()
    else:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message
    assert time.perf_counter() - start < 1


class _Int(int):
    """An int subclass, which every door refuses by type and words through its repr."""


_C2 = CyclicGroup(1)
_ONE = ClassMonomial(_C2, 1)
_MONOMIAL = {"group": 1, "level": 1, "coeff": 1, "norms": [], "a": {}, "u": {}}
# every refusal that names the value it got, called with that value
_DESCRIBED = {
    "admit": (lambda x: line_L(VirtualRep.zero(_C2), x), RepError),
    "rep-group": (lambda x: VirtualRep(x, (0,)), RepError),
    "rep-coefficient": (lambda x: VirtualRep(_C2, (x, 0)), RepError),
    "differential-group": (lambda x: Differential(x, 3, _ONE, _ONE), DifferentialError),
    "differential-source": (lambda x: Differential(_C2, 3, x, _ONE), DifferentialError),
    "differential-target": (lambda x: Differential(_C2, 3, _ONE, x), DifferentialError),
    "differential-provenance": (lambda x: Differential(_C2, 3, _ONE, _ONE, x), DifferentialError),
    "permanent-cycle": (lambda x: PermanentCycleFact(1, x, "x"), DifferentialError),
    "shear-group": (lambda x: ShearContext(x, 0, VirtualRep.zero(_C2)), ShearError),
    "shear-grading": (lambda x: ShearContext(_C2, 0, x), ShearError),
    "tower": (lambda x: tower_report(1, 1, x), ShearError),
    "profile": (lambda x: VanishingProfile(0, 1, x), RepError),
    "admissible-differential": (
        lambda x: admissible(x, VanishingProfile(0, 1, VirtualRep.zero(_C2))), RepError),
    "admissible-profile": (lambda x: admissible(hhr_family(0, 1), x), RepError),
    "json-object": (lambda x: obj_to_monomial(x), JsonSchemaError),
    "json-int": (lambda x: obj_to_monomial({**_MONOMIAL, "coeff": x}), JsonSchemaError),
    "json-exponents": (lambda x: obj_to_monomial({**_MONOMIAL, "a": x}), JsonSchemaError),
    "guide-field": (lambda x: GuideSpec("boundary", k=x), DslSemanticError),
}


@pytest.mark.parametrize(
    "site, value",
    # a plain int coefficient of a representation has no digit bound yet
    [(site, value) for site in _DESCRIBED for value in (10**5000, _Int(10**5000))
     if (site, type(value)) != ("rep-coefficient", int)],
    ids=lambda v: v if type(v) is str else type(v).__name__,
)
def test_a_refusal_names_an_int_too_long_to_print_by_its_size(site, value, default_digit_limit):
    """Each refusal that prints the value it got once leaked the int/str
    limit's bare ValueError for an int of 5,001 digits."""
    call, error = _DESCRIBED[site]
    with pytest.raises(error) as exc:
        call(value)
    assert str(exc.value).endswith("more than 3000 digits")


def test_chart_text_at_each_bound_is_accepted():
    doc = parse(
        f"group C{1 << G}\nwindow -{W} {W} {W}\nclass x = Nt[{I},{G}]*D[12,1]\n"
        f"class y = aS @C2\nguide L{G}\n"
    )
    assert doc.window == (-W, W, W) and doc.classes[0][1].norms[-1] == (I, G, 1)
    assert parse(f"group C4\nguide vanish h={H} k=1\n").guides == [GuideSpec("vanish", 1, H)]
    assert parse(f"group C4\ngrading {M}-{M}s+{M}l1\n").grading.coeffs == (M, -M, M)


@pytest.mark.parametrize(
    "argv",
    [
        ["shear", "--n", str(G - 1), "--k", str(G - 1), "--V", f"{M}-{M}s", "--t", str(M),
         f"--s=-{M}"],
        ["rep", "lines", "--group", f"C{1 << G}", "--V", f"{M}-{M}s-{M}l{G - 1}", "--json"],
    ],
    ids=["shear", "rep-lines"],
)
def test_cli_calls_at_the_digit_bound_print(argv, capsys, default_digit_limit):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_every_integer_from_t_s_and_coefficients_at_their_bound_prints(default_digit_limit):
    """Every coefficient of a grading over C_(2^2048) at 3,600 digits, and t
    and s at theirs: each tau, line, threshold and shear_degree result prints
    under the default digit limit."""
    group = CyclicGroup(G)
    for signs in [(1,) * (G + 1), (1,) + (-1,) * G, (-1, -1) + (1,) * (G - 1)]:
        V = VirtualRep(group, tuple(M * sign for sign in signs))
        lines = [line_L(V, k) for k in range(G + 1)]
        lines += [boundary_line(V), *(vanishing_line(V, H, k) for k in range(13))]
        values = [V.dimension, *(line.intercept for line in lines), constant_C(V, G - 1)]
        for k in (1, G - 1):
            ctx = ShearContext(CyclicGroup(G - k), k, V)
            values += [*shear_degree(ctx, M, -M), *shear_degree(ctx, -M, M)]
        assert max(len(str(abs(v))) for v in values) <= 4300


def test_every_integer_from_exponents_coefficients_and_pages_at_their_bound_prints(
    default_digit_limit,
):
    """Monomials over C_(2^2048) whose coefficient, exponents and norm
    exponents are at the bound, with the largest norm index at the top levels,
    in a differential whose page is at the bound: degrees, bidegrees,
    canonical text, validate's messages and JSON print under the default
    digit limit, the longest integer within 100 digits of it, and the JSON
    reads back."""
    group = CyclicGroup(G)
    norms = [(I, G, M), (I - 1, G, M), (I, G - 1, M)]
    source = ClassMonomial(group, G, -M, norms, (), [M] * 3)
    target = ClassMonomial(group, G, 1, norms, [M] * 3, [M] * 3)
    d = Differential(group, M, source, target)
    texts = [print_canonical(d), *validate(d), export_json([d.source, d.target]).decode()]
    texts += [str(x) for m in (source, target) for x in (m.degree(), m.bidegree())]
    longest = max(len(run) for text in texts for run in re.findall(r"\d+", text))
    assert 4200 < longest <= 4300
    assert import_json(texts[-5]) == [source, target]


def test_the_largest_group_prints_under_the_lowest_digit_limit(default_digit_limit):
    sys.set_int_max_str_digits(640)
    assert str(CyclicGroup(G)) == f"C{1 << G}"
    with pytest.raises(RepError, match=f"^group exponent must be <= {G}, got {G + 1}$"):
        CyclicGroup(G + 1)


# the widest pixel coordinate a window inside the bounds places
_PIXELS = 2 * PAD + 2 * W * CELL


@given(st.integers(-_PIXELS, _PIXELS))
def test_every_pixel_inside_the_bounds_prints_as_its_integer(v):
    assert _fmt(v) == str(v)


@st.composite
def _bounded_monomials(draw, group):
    """Monomials whose norm indices, levels and group reach their bounds, with
    exponents and coefficients of up to 101 digits."""
    n = group.exponent
    level = draw(st.sampled_from([n, 0]) | st.integers(0, n))
    big = st.sampled_from([0, 1, 10**100]) | st.integers(0, 3)
    norms, a, u = [], [0] * level, [0] * level
    if level:
        index = st.sampled_from([I, 1]) | st.integers(1, I)
        norm_level = st.sampled_from([level, 1]) | st.integers(1, level)
        norms = draw(st.lists(st.tuples(index, norm_level, big), max_size=3))
        slots = st.sampled_from([level - 1, 0]) | st.integers(0, level - 1)
        for vec in (a, u):
            for slot in draw(st.lists(slots, max_size=3)):
                vec[slot] = draw(big)
    coeff = draw(st.sampled_from([1, -1, 10**100]) | st.integers(-3, 3))
    return ClassMonomial(group, level, coeff, norms, a, u)


# the digit limit the fixture sets holds for every example
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_every_field_at_its_bound_prints_validates_and_renders(default_digit_limit, data):
    """Group, level, norm index, height and window at or near their bounds:
    naming a group, a degree or a bidegree, validating a differential, and
    parsing and rendering a chart raise nothing, and the chart's canonical
    text renders the same bytes as the chart."""
    n = data.draw(st.sampled_from([G, 1, 13]) | st.integers(1, G), label="exponent")
    group = CyclicGroup(n)
    m1, m2 = data.draw(_bounded_monomials(group)), data.draw(_bounded_monomials(group))
    for m in (m1, m2):
        assert str(m.group) == f"C{1 << n}" and str(m.level_group) == f"C{1 << m.level}"
        m.bidegree()
        str(m.degree())
        print_canonical(m)
    page = data.draw(st.sampled_from([2, 10**30]) | st.integers(2, 100))
    assert all(type(p) is str for p in validate(Differential(group, page, m1, m2)))
    i = data.draw(st.sampled_from([I, 1]) | st.integers(1, I), label="i")
    d = hhr_family(n - 1, i)
    family = Differential(group, d.page, d.source, d.target)  # as the parser reads it back
    assert validate(family) == []
    window = data.draw(
        st.sampled_from([(-W, W, W), (-2, 8, 8)])
        | st.tuples(st.integers(-W, 0), st.integers(0, W), st.integers(0, W))
    )
    guides = [GuideSpec("L", k=data.draw(st.sampled_from([n, 0]) | st.integers(0, n))),
              GuideSpec("boundary")]
    if n - 1 <= H.bit_length() - 1:  # a height is a multiple of 2^(n-1)
        h = data.draw(st.sampled_from([H, 1 << (n - 1)]))
        guides.append(GuideSpec("vanish", k=data.draw(st.integers(0, n - 1)), h=h))
    grading = VirtualRep.of(group, triv=data.draw(st.integers(-3, 3)), sigma=1)
    doc = ChartDocument(group, grading, window, [("x", m1), ("y", m2)], [family], guides)
    svg = emit_svg(doc)
    assert emit_svg(parse(print_canonical(doc))) == svg



# exponents, coefficients and pages at, just under and just past the digit bound
_EXPONENTS = st.sampled_from([0, 1, M, M // 3, _DIGITS_CAP]) | st.integers(0, 9)
_COEFFS = st.sampled_from([1, -1, M, -M, _DIGITS_CAP, 3]) | st.integers(-4, 4)
_PAGES = st.sampled_from([2, 3, M, _DIGITS_CAP]) | st.integers(2, 40)
_DOORS = ["init", "mul", "pow", "dsl", "json"]


@st.composite
def _fields(draw, group):
    """(level, coeff, norms, a, u) over group, any of them past the bound; a and u
    set their first three slots at most."""
    level = draw(st.sampled_from([group.exponent, 1]) | st.integers(1, group.exponent))
    index = st.sampled_from([I, 1]) | st.integers(1, I)
    norm_level = st.sampled_from([level, 1]) | st.integers(1, level)
    norms = draw(st.lists(st.tuples(index, norm_level, _EXPONENTS), max_size=2))
    a = draw(st.lists(_EXPONENTS, max_size=min(level, 3)))
    u = draw(st.lists(_EXPONENTS, max_size=min(level, 3)))
    return level, draw(_COEFFS), norms, a, u


def _through(door, group, fields):
    """The monomial that the named door builds from fields."""
    level, coeff, norms, a, u = fields
    if door == "init":
        return ClassMonomial(group, level, coeff, norms, a, u)
    if door == "mul":  # every field but the coefficient doubled
        return ClassMonomial(group, level, coeff, norms, a, u) * ClassMonomial(
            group, level, 1, norms, a, u
        )
    if door == "pow":
        return ClassMonomial(group, level, coeff, norms, a, u) ** 2
    if door == "dsl":
        names = [*zip(("aS", *(f"aL{i}" for i in range(1, level))), a),
                 *zip(("u2S", *(f"uL{i}" for i in range(1, level))), u)]
        factors = [str(coeff), *(f"Nt[{i},{j}]^{e}" for i, j, e in norms)]
        return parse_class_expr("*".join(factors + [f"{t}^{e}" for t, e in names]), group, level)
    obj = {"group": group.exponent, "level": level, "coeff": coeff, "norms": norms,
           "a": dict(zip(("s", *(f"l{i}" for i in range(1, level))), a)),
           "u": dict(zip(("2s", *(f"l{i}" for i in range(1, level))), u))}
    return import_json(json.dumps([obj]))[0]


def _family(A: int) -> Differential:
    """d(u2S^A) = Nt[1,1]^(2A-1) aS^(4A-1) over C2, a valid arrow of page 4A - 1."""
    c2 = CyclicGroup(1)
    target = ClassMonomial(c2, 1, 1, [(1, 1, 2 * A - 1)], [4 * A - 1])
    return Differential(c2, 4 * A - 1, ClassMonomial(c2, 1, u_exp=[A]), target)


def _outcome(build, k: int):
    """Everything the calls on build()'s differential print, in order, and the
    engine error that stopped them, or None."""
    printed = []
    try:
        d = build()
        printed += [print_canonical(d), *validate(d)]
        printed += [str(x) for m in (d.source, d.target) for x in (m.degree(), m.bidegree())]
        n = d.group.exponent - 1
        if 1 << n <= H:  # a height 2^n m of the theory over the group
            printed += map(str, admissible(d, VanishingProfile(n, 1 << n, VirtualRep.zero(d.group))))
        ctx = ShearContext.lift(d.group, k)
        images = [correspond_class(m, ctx) for m in (d.source, d.target)]
        printed += map(print_canonical, images)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            moved = transport(d, k)
        printed += [str(w.message) for w in caught] + [print_canonical(moved), *validate(moved)]
        items = [*images, *(x for x in (d, moved) if not validate(x))]
        data = export_json(items)
        printed.append(data.decode())
    except _EngineError as e:
        return printed, (type(e).__name__, str(e))
    assert import_json(data) == items  # what is written is read back
    return printed, None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_every_door_keeps_what_it_prints_under_the_digit_limit(default_digit_limit, data):
    """Exponents, coefficients and pages at and past the digit bound, through
    each door (the constructor, *, **, the DSL and JSON), in a random arrow or
    times a valid one, then a shear of up to 2047 levels, transport, validate,
    admissible, canonical text and a JSON round trip: each call raises an
    engine error or prints integers of at most 4,300 digits, and the outcome is
    the same with no int/str digit limit."""
    door = st.sampled_from(_DOORS)
    if data.draw(st.booleans(), label="random arrow"):
        exponent = st.sampled_from([1, 3, G // 2, G]) | st.integers(1, 3)
        group = CyclicGroup(data.draw(exponent, label="exponent"))
        ends = [(data.draw(door), data.draw(_fields(group))) for _ in range(2)]
        page = data.draw(_PAGES, label="page")

        def build():
            return Differential(group, page, *(_through(how, group, f) for how, f in ends))
    else:
        group = CyclicGroup(1)
        A = data.draw(st.sampled_from([M // 4, M >> 40, 1]) | st.integers(1, 99), label="A")
        factor = data.draw(door), data.draw(_fields(group))

        def build():
            return leibniz(_family(A), _through(*factor[:1], group, factor[1]))
    top = G - group.exponent
    k = data.draw(st.sampled_from([top, 1, 0]) | st.integers(0, top), label="k")
    outcome = _outcome(build, k)
    event(f"{outcome[1][0]}" if outcome[1] else "printed all")
    runs = (len(run) for text in outcome[0] for run in re.findall(r"\d+", text))
    assert max(runs, default=0) <= 4300
    sys.set_int_max_str_digits(0)
    assert _outcome(build, k) == outcome
