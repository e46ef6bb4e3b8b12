import html
import pathlib
import random
import time
import tracemalloc

import pytest
from hypothesis import event, given, settings, strategies as st

from sliceshear import (
    ChartDocument,
    ClassMonomial,
    CyclicGroup,
    DslSemanticError,
    GuideSpec,
    VirtualRep,
    emit_svg,
    parse,
    parse_group_name,
    print_canonical,
    vanishing_line,
)
from sliceshear.dsl import _GUIDES
from sliceshear.svg import _clip, _escape, _guide_line
from helpers import random_document, random_rep, reference_emit_svg

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def render_golden(stem: str) -> bytes:
    doc = parse((GOLDENS / f"{stem}.dsl").read_text())
    return emit_svg(doc)


class TestGoldens:
    @pytest.mark.parametrize("stem", ["hu_kriz_c2", "sheared_c4"])
    def test_byte_identical(self, stem):
        assert render_golden(stem) == (GOLDENS / f"{stem}.svg").read_bytes()

    @pytest.mark.parametrize("stem", ["hu_kriz_c2", "sheared_c4"])
    def test_deterministic_across_renders(self, stem):
        assert render_golden(stem) == render_golden(stem)


class TestRendering:
    def test_empty_document_axes_only(self):
        doc = parse("group C2\nwindow 0 4 4\n")
        text = emit_svg(doc).decode()
        assert text.count('class="axis"') == 2
        assert "circle" not in text and "marker-end" not in text
        assert "warning" not in text.split("</style>")[1]

    def test_window_required(self):
        doc = parse("group C2\nclass u = u2S\n")
        with pytest.raises(DslSemanticError):
            emit_svg(doc)

    def test_markers_and_arrows_present(self):
        doc = parse(
            "group C2\nwindow -2 4 4\nclass u1 = u2S\n"
            "diff 3: u2S -> Nt[1,1]*aS^3\n"
        )
        text = emit_svg(doc).decode()
        assert text.count("<circle") == 1
        assert text.count('marker-end="url(#arrow)"') == 1
        assert 'class="d-user"' in text

    def test_guide_through_origin_at_45_degrees(self):
        doc = parse("group C2\nwindow 0 4 4\nguide L1\n")
        text = emit_svg(doc).decode()
        # chart origin is at (PAD, height - PAD) = (48, 192); slope-1 line
        # must leave it one cell over per cell up
        assert '<line class="guide" x1="48" y1="192" x2="192" y2="48"/>' in text

    def test_window_excluding_everything_warns(self):
        doc = parse("group C2\nwindow 10 12 4\nclass u1 = u2S\n")
        text = emit_svg(doc).decode()
        assert "warning: window excludes every declared item" in text

    def test_zero_class_not_drawn(self):
        doc = parse("group C2\nwindow -2 4 4\nclass z = 0\n")
        assert b"<circle" not in emit_svg(doc)

    def test_labels_escaped(self):
        group = CyclicGroup(1)
        doc = ChartDocument(group=group, grading=VirtualRep.zero(group))
        doc.window = (0, 2, 2)
        doc.classes.append(("a<b&c>\"'", ClassMonomial.one(group, 1)))
        text = emit_svg(doc).decode()
        assert "a&lt;b&amp;c&gt;\"'<" in text

    @given(st.text(alphabet=st.sampled_from("&<>\"'a;#x1 \u00e9"), max_size=24) | st.text())
    def test_escape_is_html_escape_without_quotes(self, name):
        assert _escape(name) == html.escape(name, quote=False)

    def test_every_random_document_with_window_renders(self):
        rng = random.Random(67)
        rendered = 0
        for _ in range(60):
            doc = random_document(rng)
            if doc.window is None:
                continue
            data = emit_svg(doc)
            assert data.startswith(b"<?xml") and data.endswith(b"</svg>\n")
            assert emit_svg(doc) == data
            assert data == reference_emit_svg(doc)
            rendered += 1
        assert rendered > 20


# Negative x_min, a vanishing guide whose clipped ends are non-integer
# Fractions (x = -8/3), a boundary guide with non-integer pixels, and a class
# at stem 0.  The expected bytes were rendered with Fraction arithmetic for
# every pixel, so they pin the int path of the formatter to the same digits.
FORMATTING_DOC = """\
group C8
grading 1-s
window -4 1 4
class one = 1
class e = aS
class b = 3*u2S*aL1
guide vanish h=4 k=2
guide boundary
"""

FORMATTING_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="276" height="240" viewBox="0 0 276 240">
  <style>
    text { font-family: monospace; font-size: 10px; fill: #222222; }
    .grid { stroke: #eeeeee; stroke-width: 1; }
    .axis { stroke: #555555; stroke-width: 1; }
    .guide { stroke: #888888; stroke-dasharray: 4 3; fill: none; }
    .guide-label { fill: #666666; }
    .cls { fill: #111111; }
    .d-seed { stroke: #1f77b4; stroke-width: 1.5; fill: none; }
    .d-transported { stroke: #d62728; stroke-width: 1.5; fill: none; }
    .d-generated { stroke: #2ca02c; stroke-width: 1.5; fill: none; }
    .d-user { stroke: #111111; stroke-width: 1.5; fill: none; }
    .warning { fill: #bb0000; font-size: 11px; }
  </style>
  <defs>
    <marker id="arrow" viewBox="0 0 8 8" refX="7" refY="4" markerWidth="6" markerHeight="6" orient="auto-start-reverse">
      <path d="M 0 0 L 8 4 L 0 8 z" fill="context-stroke"/>
    </marker>
  </defs>
  <line class="grid" x1="48" y1="192" x2="48" y2="48"/>
  <text x="48" y="206" text-anchor="middle">-4</text>
  <line class="grid" x1="84" y1="192" x2="84" y2="48"/>
  <text x="84" y="206" text-anchor="middle">-3</text>
  <line class="grid" x1="120" y1="192" x2="120" y2="48"/>
  <text x="120" y="206" text-anchor="middle">-2</text>
  <line class="grid" x1="156" y1="192" x2="156" y2="48"/>
  <text x="156" y="206" text-anchor="middle">-1</text>
  <line class="grid" x1="192" y1="192" x2="192" y2="48"/>
  <text x="192" y="206" text-anchor="middle">0</text>
  <line class="grid" x1="228" y1="192" x2="228" y2="48"/>
  <text x="228" y="206" text-anchor="middle">1</text>
  <line class="grid" x1="48" y1="192" x2="228" y2="192"/>
  <text x="40" y="195" text-anchor="end">0</text>
  <line class="grid" x1="48" y1="156" x2="228" y2="156"/>
  <text x="40" y="159" text-anchor="end">1</text>
  <line class="grid" x1="48" y1="120" x2="228" y2="120"/>
  <text x="40" y="123" text-anchor="end">2</text>
  <line class="grid" x1="48" y1="84" x2="228" y2="84"/>
  <text x="40" y="87" text-anchor="end">3</text>
  <line class="grid" x1="48" y1="48" x2="228" y2="48"/>
  <text x="40" y="51" text-anchor="end">4</text>
  <line class="axis" x1="48" y1="192" x2="228" y2="192"/>
  <line class="axis" x1="192" y1="192" x2="192" y2="48"/>
  <line class="guide" x1="48" y1="192" x2="96" y2="48"/>
  <text class="guide-label" x="100" y="44">N k=2</text>
  <line class="guide" x1="150.86" y1="192" x2="171.43" y2="48"/>
  <text class="guide-label" x="175.43" y="44">boundary</text>
  <circle class="cls" cx="192" cy="192" r="3.5"/>
  <text x="198" y="186">one</text>
  <circle class="cls" cx="156" cy="156" r="3.5"/>
  <text x="162" y="150">e</text>
  <circle class="cls" cx="120" cy="120" r="3.5"/>
  <text x="126" y="114">b</text>
</svg>
"""


def test_pixel_formatting_matches_fraction_rendering():
    assert emit_svg(parse(FORMATTING_DOC)) == FORMATTING_SVG.encode()


# -- vanishing guides above the window ----------------------------------------


def test_vanishing_guide_at_the_height_bound_above_the_window_draws_nothing():
    """N_0 at h = 4096, the height bound, has 4,098 bits; the guide clips to
    nothing in a window 4 high, and rendering stays small."""
    doc = parse("group C2\nwindow 0 4 4\nguide vanish h=4096 k=0\n")
    plain = emit_svg(parse("group C2\nwindow 0 4 4\n"))
    tracemalloc.start()
    try:
        data = emit_svg(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert data == plain


def test_a_vanishing_guide_is_skipped_only_where_clip_drops_its_line():
    """Over small h, every vanishing guide gets its full line, and the chart
    leaves a guide out exactly where that line clips to nothing."""
    rng = random.Random(23)
    skipped = drawn = 0
    for _ in range(1500):
        group = CyclicGroup(rng.randint(1, 4))
        n = group.exponent - 1
        grading = random_rep(rng, group, span=rng.choice([1, 4, 20]))
        doc = ChartDocument(group=group, grading=grading)
        x_min = rng.randint(-30, 10)
        doc.window = (x_min, x_min + rng.randint(0, 12), rng.randint(0, 60))
        k = rng.randint(0, n)
        g = GuideSpec("vanish", k=k, h=rng.randint(1, 5) << n)  # 2^k divides h as k <= n
        full = vanishing_line(doc.grading, g.h, k)
        assert _guide_line(g, doc) == (full, f"N k={k}")
        doc.guides = [g]
        shown = f">N k={k}</text>" in emit_svg(doc).decode()
        assert shown == (_clip(full, doc.window) is not None)
        drawn += shown
        skipped += not shown
    assert skipped > 100 and drawn > 100


# -- the render door admits what parse admits -----------------------------------

C2 = CyclicGroup(1)
ZERO = VirtualRep.zero(C2)
# windows a hand-built document once rendered, although parse refuses them, or
# that leaked a bare TypeError or ValueError, or took seconds and hundreds of
# megabytes ((0, 10**6, 10**6)) or ran out of memory ((0, 10**7, 10**7))
REFUSED_WINDOWS = [
    ((3, 0, 2), "degenerate window (3, 0, 2)"),
    ((0, 3, -1), "degenerate window (0, 3, -1)"),
    ((True, 3, 2), "window must be three integers: x_min x_max s_max"),
    ((0.5, 3, 2), "window must be three integers: x_min x_max s_max"),
    ((0, 3), "window must be three integers: x_min x_max s_max"),
    ((0, 10**6, 10**6), "window outside -4096..4096"),
    ((0, 10**7, 10**7), "window outside -4096..4096"),
    ((10**5000, 0, 0), "window bound has more than 3000 digits"),
]


@pytest.mark.parametrize(
    "window, message", REFUSED_WINDOWS,
    ids=["x-reversed", "s-negative", "bool", "float", "two-ints", "1e6", "1e7", "5001-digits"],
)
def test_emit_svg_refuses_a_window_at_once(window, message):
    start = time.perf_counter()
    with pytest.raises(DslSemanticError) as e:
        emit_svg(ChartDocument(C2, ZERO, window))
    assert time.perf_counter() - start < 0.1
    assert str(e.value) == message


def test_emit_svg_refuses_a_grading_over_another_group():
    """A grading over C8 on a C4 chart once drew the L3 guide, a level C4 lacks."""
    doc = ChartDocument(CyclicGroup(2), VirtualRep.zero(CyclicGroup(3)), (0, 4, 4))
    doc.guides = [GuideSpec("L", k=3)]
    with pytest.raises(DslSemanticError, match="grading must be a VirtualRep over its group"):
        emit_svg(doc)
    doc.grading = "0"
    with pytest.raises(DslSemanticError, match="grading must be a VirtualRep over its group"):
        emit_svg(doc)


def test_emit_svg_refuses_what_is_not_a_chart_document():
    with pytest.raises(DslSemanticError, match="renders a ChartDocument, got NoneType"):
        emit_svg(None)


def test_print_canonical_refuses_a_subclass_of_chart_document():
    """parse never returns a subclass, so its text would not read back as the value."""

    class Chart(ChartDocument):
        pass

    with pytest.raises(TypeError, match="cannot print Chart canonically"):
        print_canonical(Chart(C2, ZERO))


@pytest.mark.parametrize("kind", ["nonsense", "", "l", ["L"], None])
def test_a_guide_has_one_of_three_kinds(kind):
    """GuideSpec("nonsense") once rendered as a boundary guide, and
    print_canonical printed it as ``guide boundary``."""
    with pytest.raises(DslSemanticError, match="guide kind must be one of L, vanish, boundary"):
        print_canonical(ChartDocument(C2, ZERO, guides=[GuideSpec(kind)]))


@pytest.mark.parametrize(
    "kind, k, h, message",
    [
        ("boundary", 1, None, "guide boundary has no k, got 1"),
        ("L", 1, 4, "guide L has no h, got 4"),
        ("L", None, None, "guide k must be an integer, got None"),
        ("vanish", True, 2, "guide k must be an integer, got True"),
        ("vanish", 1, 2.0, "guide h must be an integer, got 2.0"),
    ],
)
def test_a_guide_admits_the_fields_its_kind_prints(kind, k, h, message):
    """GuideSpec("boundary", k=1) once printed as ``guide boundary``, which
    parses back as another value, and GuideSpec("L") printed ``guide LNone``."""
    with pytest.raises(DslSemanticError) as e:
        GuideSpec(kind, k, h)
    assert str(e.value) == message


# a guide statement over a group whose chart cannot draw it, and the GuideSpec it spells
REFUSED_GUIDES = [
    ("C1", "guide boundary", GuideSpec("boundary"), "boundary guides need a group of at least C2"),
    ("C1", "guide vanish h=1 k=0", GuideSpec("vanish", 0, 1),
     "vanishing guides need a group of at least C2"),
    ("C4", "guide L-1", GuideSpec("L", -1), "guide L-1 is out of range for C4"),
    ("C4", "guide L3", GuideSpec("L", 3), "guide L3 is out of range for C4"),
    ("C8", "guide vanish h=4 k=3", GuideSpec("vanish", 3, 4),
     "vanishing index k=3 out of range for n=2"),
    ("C8", "guide vanish h=2 k=0", GuideSpec("vanish", 0, 2),
     "height 2 is not a multiple of 2^2 for C8"),
    ("C4", "guide vanish h=4098 k=1", GuideSpec("vanish", 1, 4098),
     "height must be <= 4096, got 4098"),
]


@pytest.mark.parametrize(
    "group, statement, guide, reason",
    REFUSED_GUIDES,
    ids=["boundary", "vanish", "L-negative", "L-past-n", "vanish-k-past-n", "vanish-h-odd",
         "vanish-h-past-bound"],
)
def test_parse_and_emit_svg_refuse_the_same_guides_over_c1(group, statement, guide, reason):
    """All three chart doors refuse each guide with one reason.  Over C1,
    emit_svg once drew a boundary guide and refused a vanishing one with
    RepError "vanishing index k=0 out of range for n=-1"; over C8 it drew
    h = 2, and print_canonical printed each of these guides."""
    with pytest.raises(DslSemanticError) as parsed:
        parse(f"group {group}\n{statement}\n")
    G = parse_group_name(group)
    doc = ChartDocument(G, VirtualRep.zero(G), (0, 4, 4), guides=[guide])
    for door in (emit_svg, print_canonical):
        with pytest.raises(DslSemanticError) as refused:
            door(doc)
        assert refused.value.reason == parsed.value.reason == reason


def test_both_output_doors_refuse_a_broken_field_with_parses_reason():
    """A random document with one field broken (its window, its grading's
    group, or one guide's k or h) is refused by emit_svg and print_canonical
    with one reason, parse's for that statement where parse can spell it."""
    rng = random.Random(33)
    seen = set()
    for _ in range(400):
        doc = random_document(rng)
        e = doc.group.exponent
        field = rng.choice(["window", "grading", "L", "vanish-k", "vanish-h"])
        statement = None
        if field == "window":
            x_min, x_max, s_max = doc.window or (0, 4, 4)
            doc.window = rng.choice(
                [(x_max + 1, x_min, s_max), (x_min, x_max, -1), (x_min, 4097, s_max)]
            )
            statement = "window {} {} {}".format(*doc.window)
        elif field == "grading":
            doc.grading = VirtualRep.zero(CyclicGroup(e + rng.choice([-1, 1])))
        else:
            n = e - 1
            # past the bound, or not a multiple of 2^n (which every h is for n = 0)
            bad_h = [4097 << n, (1 << n) + 1] if n else [4097]
            guide = {
                "L": GuideSpec("L", k=rng.choice([-1, e + 1])),
                "vanish-k": GuideSpec("vanish", k=e, h=1 << n),
                "vanish-h": GuideSpec("vanish", k=0, h=rng.choice(bad_h)),
            }[field]
            doc.guides.insert(rng.randint(0, len(doc.guides)), guide)
            statement = _GUIDES[guide.kind].format(k=guide.k, h=guide.h)
        with pytest.raises(DslSemanticError) as rendered:
            emit_svg(doc)
        with pytest.raises(DslSemanticError) as printed:
            print_canonical(doc)
        assert rendered.value.reason == printed.value.reason
        if statement is not None:
            with pytest.raises(DslSemanticError) as parsed:
                parse(f"group {doc.group}\n{statement}\n")
            assert rendered.value.reason == parsed.value.reason
        seen.add(field)
    assert len(seen) == 5


# integers at, next to and far from the window bound and zero
_window_ints = st.one_of(
    st.integers(-4200, 4200),
    st.sampled_from([-4097, -4096, -4095, -1, 0, 1, 4095, 4096, 4097]),
)


@settings(max_examples=150)
@given(st.tuples(_window_ints, _window_ints, _window_ints))
def test_parse_and_emit_svg_admit_the_same_windows(window):
    """Both doors accept the same windows and word each refusal the same."""
    try:
        parsed = parse("group C2\nwindow {} {} {}\n".format(*window))
    except DslSemanticError as e:
        with pytest.raises(DslSemanticError) as refused:
            emit_svg(ChartDocument(C2, ZERO, window))
        assert (refused.value.reason, e.line, e.col) == (e.reason, 2, 7)
        event(e.reason.split(" (")[0])
    else:
        event("accepted")
        assert parsed.window == window
        assert emit_svg(ChartDocument(C2, ZERO, window)) == emit_svg(parsed)
