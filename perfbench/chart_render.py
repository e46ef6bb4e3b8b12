"""chart-render: DSL text -> dsl.parse -> svg.emit_svg -> bytes.

Inputs are seeded synthetic chart documents over C2..C16 plus the two
checked-in goldens.  The generator writes every class from exponents it
chose, so it knows each marker's (stem, filtration) without asking the
engine; the oracle checks marker and arrow positions in the SVG against
that, and the goldens byte for byte.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from sliceshear import dsl, svg, validate

import oracle
import probes
from common import ROOT, TASK, rep_literal

# One pass over the inputs is ROUNDS rounds.  A round holds one document per
# size stratum, sizes spaced evenly in log from 20 to 2000 classes, plus one
# golden, and rotates groups and windows across strata; the seed changes only
# the content.  Every round has nearly the same mix, so a run's figures do not
# depend on where in a pass it stops, and the latency percentiles fall where
# sizes are dense rather than between them.
STRATA = 16
ROUNDS = 10
MIN_CLASSES, MAX_CLASSES = 20, 2000
EXPONENTS = (1, 2, 3, 4)
WINDOWS = ((24, 12), (60, 30), (150, 80))  # (x_max - x_min, s_max)
GAUGE = TASK  # op times are scaled by the in-process gauge (see common.py)
WINDOW = STRATA + 1  # ops per timing window: one round
GOLDENS = ("hu_kriz_c2", "sheared_c4")

# Chart geometry of the SVG format: 36 px per cell, 48 px of padding.
CELL, PAD = 36, 48

_CIRCLE = re.compile(rb'<circle class="cls" cx="([^"]*)" cy="([^"]*)"')
_ARROW = re.compile(rb'<line class="d-\w+" x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)"')


@dataclass
class Doc:
    text: str
    exponent: int
    classes: int
    diffs: int
    markers: list | None = None  # expected (cx, cy) byte strings, in class order
    arrows: list | None = None  # expected (x1, y1, x2, y2) byte strings
    golden: bytes | None = None

    @property
    def lines(self) -> int:
        return self.text.count("\n")


def _pow(token: str, e: int) -> str:
    return token if e == 1 else f"{token}^{e}"


def _factors(rng: random.Random, level: int):
    """Random factor tokens at ``level`` plus their exponent data."""
    tokens, norms = [], []
    a, u = [0] * level, [0] * level
    for _ in range(rng.randint(0, 2)):
        i, j, e = rng.randint(1, 4), rng.randint(1, level), rng.randint(1, 3)
        norms.append((i, j, e))
        tokens.append(_pow(f"Nt[{i},{j}]", e))
    if rng.random() < 0.1:
        n, m = rng.randint(1, level), rng.randint(1, 2)
        norms += [((1 << (n - k)) * m, n, 1) for k in range(1, n + 1)]
        tokens.append(f"D[{n},{m}]")
    for slot in range(level):
        if rng.random() < 0.5:
            e = rng.randint(1, 4)
            a[slot] += e
            tokens.append(_pow("aS" if slot == 0 else f"aL{slot}", e))
        if rng.random() < 0.3:
            e = rng.randint(1, 3)
            u[slot] += e
            tokens.append(_pow("u2S" if slot == 0 else f"uL{slot}", e))
    if not tokens:
        u[0] += 1
        tokens.append("u2S")
    return tokens, norms, a, u


def _guide(rng: random.Random, exponent: int) -> str:
    kind = rng.choice(("L", "vanish", "boundary"))
    if kind == "L":
        return f"guide L{rng.randint(0, exponent)}"
    if kind == "vanish":
        n = exponent - 1
        return f"guide vanish h={(1 << n) * rng.randint(1, 3)} k={rng.randint(0, n)}"
    return "guide boundary"


def synthetic_doc(rng: random.Random, exponent: int, n_classes: int, window) -> Doc:
    x_min = -rng.randint(0, 12)
    x_max, s_max = x_min + window[0], window[1]
    height = 2 * PAD + s_max * CELL

    def pixel(x: int, s: int):
        return str(PAD + (x - x_min) * CELL).encode(), str(height - PAD - s * CELL).encode()

    def inside(x: int, s: int) -> bool:
        return x_min <= x <= x_max and 0 <= s <= s_max

    lines = [f"# synthetic chart, {n_classes} classes", f"group C{1 << exponent}"]
    if rng.random() < 0.5:
        lines.append(f"grading {rep_literal(rng, exponent)[0]}")
    lines.append(f"window {x_min} {x_max} {s_max}")
    markers, arrows = [], []
    n_diffs = max(1, n_classes // 20)
    diff_at = set(rng.sample(range(n_classes), n_diffs))
    for idx in range(n_classes):
        level = exponent if rng.random() < 0.8 else rng.randint(1, exponent)
        tokens, norms, a, u = _factors(rng, level)
        coeff = 1
        if rng.random() < 0.15:
            coeff = rng.randint(2, 5)
            tokens.append(str(coeff))
        rng.shuffle(tokens)
        suffix = "" if level == exponent else f" @C{1 << level}"
        lines.append(f"class c{idx} = {'*'.join(tokens)}{suffix}")
        x, s = oracle.stem(norms, a), oracle.filtration(a)
        if not oracle.is_zero_class(coeff, a) and inside(x, s):
            markers.append(pixel(x, s))
        if idx in diff_at:
            n, i = exponent - 1, rng.randint(1, 3)
            page, src, tgt = oracle.family_text(n, i)
            (_, _, a_src, _), (_, n_tgt, a_tgt, _) = oracle.family_exponents(n, i)
            sx, ss = oracle.stem((), a_src), oracle.filtration(a_src)
            tx, ts = oracle.stem(n_tgt, a_tgt), oracle.filtration(a_tgt)
            if rng.random() < 0.5:
                # a leibniz product: both ends times one top-level class
                p_tokens, p_norms, p_a, _ = _factors(rng, exponent)
                p_text = "*".join(p_tokens)
                src, tgt = f"{src}*{p_text}", f"{p_text}*{tgt}"
                dx, ds = oracle.stem(p_norms, p_a), oracle.filtration(p_a)
                sx, ss, tx, ts = sx + dx, ss + ds, tx + dx, ts + ds
            lines.append(f"diff {page}: {src} -> {tgt}")
            if inside(sx, ss) and inside(tx, ts):
                arrows.append(pixel(sx, ss) + pixel(tx, ts))
    lines += [_guide(rng, exponent) for _ in range(rng.randint(1, 3))]
    return Doc(
        text="\n".join(lines) + "\n",
        exponent=exponent,
        classes=n_classes,
        diffs=n_diffs,
        markers=markers,
        arrows=arrows,
    )


def golden_doc(name: str) -> Doc:
    base = ROOT / "tests" / "goldens" / name
    text = base.with_suffix(".dsl").read_text(encoding="utf-8")
    doc = dsl.parse(text)
    return Doc(
        text=text,
        exponent=doc.group.exponent,
        classes=len(doc.classes),
        diffs=len(doc.diffs),
        golden=base.with_suffix(".svg").read_bytes(),
    )


def generate(rng: random.Random) -> list[Doc]:
    goldens = [golden_doc(name) for name in GOLDENS]
    pool = []
    for r in range(ROUNDS):
        block = [goldens[r % 2]]
        for s in range(STRATA):
            size = round(MIN_CLASSES * (MAX_CLASSES / MIN_CLASSES) ** (s / (STRATA - 1)))
            exponent = EXPONENTS[(r + s) % len(EXPONENTS)]
            block.append(synthetic_doc(rng, exponent, size, WINDOWS[(r + 2 * s) % len(WINDOWS)]))
        rng.shuffle(block)
        pool += block
    return pool


def operate(doc: Doc) -> bytes:
    return svg.emit_svg(dsl.parse(doc.text))


def check(doc: Doc, out: bytes) -> bool:
    if doc.golden is not None:
        return out == doc.golden
    return _CIRCLE.findall(out) == doc.markers and _ARROW.findall(out) == doc.arrows


def warm_up() -> None:
    for name in GOLDENS:
        doc = golden_doc(name)
        if operate(doc) != doc.golden:
            raise RuntimeError(f"golden {name} does not render byte for byte")


def describe(pool: list[Doc]) -> dict:
    return {
        "documents": len(pool),
        "classes": sum(d.classes for d in pool),
        "classes_min_max": [min(d.classes for d in pool), max(d.classes for d in pool)],
        "diffs": sum(d.diffs for d in pool),
        "lines": sum(d.lines for d in pool),
        "text_bytes": sum(len(d.text) for d in pool),
        "groups": sorted({f"C{1 << d.exponent}" for d in pool}),
    }


def traced(doc: Doc, tr):
    """The op as a chain of spanned calls; returns (output, parsed document)."""
    parsed = tr.call("dsl.parse", dsl.parse, doc.text)
    out = tr.call("svg.emit_svg", svg.emit_svg, parsed)
    tr.count("dsl.lines", doc.lines)
    tr.count("svg.bytes", len(out))
    tr.count("svg.elements", out.count(b"<line") + out.count(b"<circle") + out.count(b"<text"))
    tr.count("svg.drawn", out.count(b"<circle") + out.count(b'<line class="d-'))
    tr.count("svg.declared", len(parsed.classes) + len(parsed.diffs))
    return out, parsed


def probe(doc: Doc, parsed, tr) -> None:
    """Bidegree and construction of every item, validate for every
    differential, and the grading's tau/line_L/fixed points for each k."""
    for _, m in parsed.classes:
        probes.monomial(tr, m)
    for d in parsed.diffs:
        tr.call("differentials.validate", validate, d)
        probes.monomial(tr, d.source)
        probes.monomial(tr, d.target)
    probes.grading(tr, parsed.grading, parsed.group.exponent)
