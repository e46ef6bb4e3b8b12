import html
import pathlib
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from sliceshear import (
    ChartDocument,
    ClassMonomial,
    CyclicGroup,
    DslSemanticError,
    GuideSpec,
    VirtualRep,
    emit_svg,
    parse,
    vanishing_line,
)
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
        g = GuideSpec("vanish", k=k, h=rng.randint(1, 5) << k)
        full = vanishing_line(doc.grading, g.h, k)
        assert _guide_line(g, doc) == (full, f"N k={k}")
        doc.guides = [g]
        shown = f">N k={k}</text>" in emit_svg(doc).decode()
        assert shown == (_clip(full, doc.window) is not None)
        drawn += shown
        skipped += not shown
    assert skipped > 100 and drawn > 100
