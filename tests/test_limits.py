"""The engine's integer bounds.

Every input past a bound is refused where its integer enters, with an engine
error, before anything is built from it: each input of ``smoke.LIMITS`` exits
2 or 3 at once, and each call of ``smoke.SWEEP`` raises an engine error with
10**10 and 10**30, each in a child with a capped address space.  Inside the
bounds, every printed and rendered value stays printable: the property test
below draws each bounded field at its bound.
"""

import json
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sliceshear import (
    ChartDocument,
    ClassMonomial,
    CyclicGroup,
    Differential,
    DslSemanticError,
    GuideSpec,
    JsonSchemaError,
    RepError,
    ShearContext,
    VirtualRep,
    boundary_line,
    constant_C,
    differential_to_obj,
    emit_svg,
    hhr_family,
    import_json,
    line_L,
    parse,
    print_canonical,
    shear_degree,
    validate,
    vanishing_line,
)
from sliceshear.cli import main
from sliceshear.reps import _MAX_EXPONENT as G, _MAX_HEIGHT as H, _MAX_INDEX as I
from sliceshear.reps import _DIGITS_CAP, _MAX_WINDOW as W
from sliceshear.svg import CELL, PAD, _fmt
from smoke import LIMITS, SWEEP, limit_failure, sweep_failure

M = _DIGITS_CAP - 1  # the largest t, s and parsed coefficient, 3,600 nines

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
    {"message": "coefficient product has more than 4300 digits", "col": 7},
    {"message": "t has more than 3600 digits"},
    {"message": "coefficient has more than 3600 digits", "col": 0},
]
_IDS = [
    "vanishing-h-4e9", "correspond-Nt-1e11", "transport-k-1e8", "vanishing-h-16384",
    "hhr-n-100000", "hhr-i-1e8", "tower-n-15000", "transport-k-20000", "chart-window-1e6",
    "chart-class-Nt-1e10", "correspond-coefficient-product", "shear-t-4000-digits",
    "rep-lines-coefficient-4000-digits",
]


@pytest.mark.parametrize("dsl, argv", LIMITS, ids=_IDS)
def test_input_past_a_bound_exits_2_or_3_at_once(dsl, argv, tmp_path):
    start = time.perf_counter()
    assert limit_failure(dsl, argv, str(tmp_path)) is None
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("row", range(len(LIMITS)), ids=_IDS)
def test_input_past_a_bound_names_it(row, capsys, monkeypatch, tmp_path, default_digit_limit):
    dsl, argv = LIMITS[row]
    monkeypatch.chdir(tmp_path)
    if dsl is not None:
        (tmp_path / "big.dsl").write_text(dsl)
    assert main(argv) == 3
    captured = capsys.readouterr()
    want = {"code": 3, "kind": "semantic", **_REFUSALS[row]}
    assert captured.out == "" and json.loads(captured.err) == {"error": want}


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
        (f"group C4\ngrading s+{'9' * 3601}\n", 2, 10, "coefficient has more than 3600 digits"),
        (f"group C4\ngrading {'9' * 3600}s+s\n", 2, 3610, "coefficient has more than 3600 digits"),
    ],
    ids=["group", "level", "x_min", "s_max", "degenerate-first", "D", "Nt", "guide-height",
         "grading-coefficient", "grading-sum"],
)
def test_chart_text_past_a_bound_is_a_semantic_error_at_its_place(text, line, col, reason):
    with pytest.raises(DslSemanticError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col, exc.value.reason) == (line, col, reason)


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
