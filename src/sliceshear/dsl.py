"""Chart DSL: parsing and canonical printing.

The DSL is line oriented.  A document starts with a ``group`` statement;
``grading``, ``window``, ``class``, ``diff`` and ``guide`` statements may
follow in any order.  ``#`` starts a comment.  Representation literals use
``1``/``s``/``l<i>`` with integer coefficients (``l0`` is sugar for ``2s``);
class expressions multiply tokens ``aS``, ``aL<i>``, ``u2S``, ``uL<i>``,
``Nt[i,j]`` and ``D[n,m]`` with ``^`` exponents.

``print_canonical`` is a right inverse of the parsers: parsing its output
reproduces the value exactly.
"""

from __future__ import annotations

import functools
import re

from .differentials import Differential, DifferentialError, validate
from .monomials import ClassMonomial, _d_norms, _level
from .reps import (
    _DIGITS_CAP, _MAX_INDEX, _MAX_WINDOW, CyclicGroup, DslError, DslSemanticError, DslSyntaxError,
    RepError, VirtualRep, _admit, _bounded, _describe, _int, _Record, _set, basis_names,
    parse_group_name, parse_rep,
)

# The literal parsers and DSL errors come from reps, whose __all__ lists them.
__all__ = [
    "GuideSpec",
    "ChartDocument",
    "parse",
    "parse_class_expr",
    "parse_diff_spec",
    "print_canonical",
]


# each guide kind and the statement that declares it
_GUIDES = {"L": "guide L{k}", "vanish": "guide vanish h={h} k={k}", "boundary": "guide boundary"}


class GuideSpec(_Record):
    """A requested guide line: kind "L" (field k), "vanish" (k and h) or "boundary";
    a field the kind does not print is None.  ``_guide`` tests it against a group."""

    __match_args__ = ("kind", "k", "h")

    def __init__(self, kind: str, k: int | None = None, h: int | None = None) -> None:
        if type(kind) is not str or kind not in _GUIDES:
            raise DslSemanticError(f"guide kind must be one of {', '.join(_GUIDES)}")
        for name, value in (("k", k), ("h", h)):
            if "{%s}" % name in _GUIDES[kind]:  # the kind's statement prints it
                _admit(value, f"guide {name}", error=DslSemanticError)
            elif value is not None:
                raise DslSemanticError(f"guide {kind} has no {name}, got {_describe(value)}")
        _set(self, "kind", kind)
        _set(self, "k", k)
        _set(self, "h", h)


class ChartDocument(_Record):
    """Parsed chart content, renderable to SVG.  Unlike the engine's values it
    is mutable, and so unhashable; a list left out starts empty."""

    __match_args__ = ("group", "grading", "window", "classes", "diffs", "guides")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(
        self, group: CyclicGroup, grading: VirtualRep, window: tuple[int, int, int] | None = None,
        classes: list[tuple[str, ClassMonomial]] | None = None,
        diffs: list[Differential] | None = None, guides: list[GuideSpec] | None = None,
    ) -> None:
        self.group, self.grading, self.window = group, grading, window
        self.classes = [] if classes is None else classes
        self.diffs = [] if diffs is None else diffs
        self.guides = [] if guides is None else guides


# -- class expressions --------------------------------------------------------
#
# A class expression is split on "*" and each piece is read as one factor with
# the token grammar _CLASS_TOKEN.  _factor checks a factor at the class level
# and raises the first error it finds, so an expression's errors come in
# reading order; only when one is raised does _class_expr scan the whole text,
# because an unknown character anywhere comes first.  _factor depends on its
# (level, piece) alone and counts its error columns from the piece's start, so
# one process-wide LRU cache serves every document (a chart draws a few hundred
# distinct pieces); _class_expr adds the piece's column to an error.  parse()
# also shares one memo between the class and diff lines of a document: per
# level, the text of a parsed expression to its monomial.  Columns count from
# where the scan of a token starts, i.e. before its leading whitespace, so a
# factor's column is that of its piece.

_CLASS_TOKEN = re.compile(
    r"""\s*(?:
        (?P<nt>Nt\[\s*(?P<nt_i>\d+)\s*,\s*(?P<nt_j>\d+)\s*\])
      | (?P<dd>D\[\s*(?P<d_n>\d+)\s*,\s*(?P<d_m>\d+)\s*\])
      | (?P<aL>aL(?P<aL_i>\d+))
      | (?P<aS>aS)
      | (?P<u2S>u2S)
      | (?P<uL>uL(?P<uL_i>\d+))
      | (?P<num>-?\d+)
      | (?P<pow>\^)
      | (?P<mul>\*)
    )""",
    re.X,
)


def _tokens(text: str, col: int) -> list[re.Match]:
    """The _CLASS_TOKEN matches that spell text, which starts at column col."""
    stripped = text.rstrip()
    tokens = []
    pos = 0
    while pos < len(stripped):
        m = _CLASS_TOKEN.match(stripped, pos)
        if not m:
            raise DslSyntaxError(
                f"unexpected {stripped[pos:].lstrip()[:1]!r} in class expression", col=col + pos
            )
        tokens.append(m)
        pos = m.end()
    return tokens


@functools.lru_cache(maxsize=1024)
def _factor(lv: int, piece: str) -> tuple | None:
    """The factor that one piece spells at level lv: ("a" or "u", basis index,
    exponent), ("n", norms, 1) or ("c", coefficient, 1); None for a blank piece.
    Error columns count from the start of the piece."""
    tokens = _tokens(piece, 0)
    if not tokens:
        return None
    m, *tokens = tokens
    kind, e = m.lastgroup, 1
    if tokens and tokens[0].lastgroup == "pow":
        if len(tokens) < 2 or tokens[1].lastgroup != "num":
            raise DslSyntaxError("expected an integer exponent after ^", col=0)
        ecol = tokens[1].start()
        e = _int(tokens[1].group("num"), ecol)
        # rejected before the indices are read, so it comes before an
        # error for an index past the digit limit
        if e < 0:
            raise DslSemanticError("negative exponents are not allowed", col=ecol)
        del tokens[:2]
    if kind == "aS" or kind == "u2S":
        if lv < 1:
            raise DslSemanticError(f"{kind} needs a level of at least C2", col=0)
        factor = kind[0], 0, e
    elif kind == "aL" or kind == "uL":
        i = _int(m.group(kind + "_i"), 0)
        if not 1 <= i <= lv - 1:
            raise DslSemanticError(
                f"{kind}{i} is not in the basis at level {CyclicGroup(lv)}", col=0
            )
        factor = kind[0], i, e
    elif kind == "num":
        factor = "c", _bounded(_int(m.group("num"), 0), e, col=0), 1
    elif kind == "nt":
        i, j = _int(m.group("nt_i"), 0), _int(m.group("nt_j"), 0)
        if not 1 <= i <= _MAX_INDEX:
            bound = ">= 1" if i < 1 else f"<= {_MAX_INDEX}"
            raise DslSemanticError(f"Nt[{i},{j}]: generator index must be {bound}", col=0)
        if not 1 <= j <= lv:
            raise DslSemanticError(
                f"Nt[{i},{j}]: norm level must lie between 1 and the class level {lv}", col=0
            )
        factor = "n", ((i, j, e),), 1
    elif kind == "dd":
        i, j = _int(m.group("d_n"), 0), _int(m.group("d_m"), 0)
        if i < 1 or j < 1:
            raise DslSemanticError(f"D[{i},{j}]: both indices must be >= 1", col=0)
        if i > _MAX_INDEX.bit_length() or j << (i - 1) > _MAX_INDEX:  # top index 2^(i-1) j
            raise DslSemanticError(f"D[{i},{j}]: generator index must be <= {_MAX_INDEX}", col=0)
        if i > lv:
            raise DslSemanticError(
                f"D[{i},{j}] needs a level of at least {CyclicGroup(i)}", col=0
            )
        factor = "n", tuple(_d_norms(i, j, e)), 1
    else:  # a ^ or * where a factor should be
        raise DslSyntaxError(f"unexpected {m.group(0).strip()!r}", col=0)
    if tokens:
        t = tokens[0]
        raise DslSyntaxError(
            f"expected * between factors, got {t.group(0).strip()!r}", col=t.start()
        )
    return factor


def _class_expr(
    text: str, group: CyclicGroup, level: int | None, col_offset: int, memo: dict
) -> ClassMonomial:
    lv = group.exponent if level is None else level
    exprs = memo.get(lv)
    if exprs is None:
        exprs = memo[lv] = {}
    mono = exprs.get(text)
    if mono is not None:  # a monomial is immutable, so lines share it
        return mono
    # a text longer than any chart's bypasses the cache, so it holds only small pieces
    factor_at = _factor if len(text) <= 256 else _factor.__wrapped__
    coeff, total = 1, 0  # total: of the exponents, which bounds each sum of them
    a = [0] * lv
    u = [0] * lv
    norms: list[tuple[int, int, int]] = []
    col = col_offset
    pieces = iter(text.split("*"))
    try:
        for piece in pieces:
            try:
                factor = factor_at(lv, piece)
                if factor is None and col - col_offset + len(piece) < len(text):
                    # the * that follows stands where a factor should, and raises
                    factor_at(lv, piece + "*" + next(pieces))
            except DslError as e:
                e.col += col
                raise
            if factor is None:  # the text is blank or ends in *
                # the scan of that * starts after the factor before it
                mul = col_offset + len(text[: col - col_offset - 1].rstrip())
                reason = "dangling * at end of" if col > col_offset else "empty"
                raise DslSyntaxError(f"{reason} class expression", col=mul)
            kind, x, e = factor
            if kind == "c":
                coeff = _bounded(coeff * x, what="coefficient product", col=col)
            elif kind == "n":
                norms += x
                total += x[0][2]  # a factor's norms share one exponent
            else:
                (a if kind == "a" else u)[x] += e
                total += e
            col += len(piece) + 1
    except DslError:
        _tokens(text, col_offset)  # an unknown character anywhere comes first
        raise
    # the callers admit the level and _factor every index and exponent
    mono = ClassMonomial._trusted(group, lv, coeff, norms, tuple(a), tuple(u))
    if total >= _DIGITS_CAP:  # each literal is bounded, but factors may add up past it
        for e in (*mono.a_exp, *mono.u_exp, *(e for *_, e in mono.norms)):
            _bounded(e, what="exponent", col=col_offset)
    exprs[text] = mono
    return mono


def parse_class_expr(
    text: str,
    group: CyclicGroup,
    level: int | None = None,
    line: int | None = None,
    col_offset: int = 0,
) -> ClassMonomial:
    """Parse a class expression such as ``Nt[3,4]*aS^8*u2S^2``."""
    try:
        if level is not None:
            _level(level, group, DslSemanticError, col=col_offset)
        return _class_expr(text, group, level, col_offset, {})
    except DslError as e:
        e.line = line
        raise


_DIFF_SPEC_RE = re.compile(r"\s*(\d+)\s*:\s*(.*?)\s*->\s*(\S.*)$")


def parse_diff_spec(text: str, group: CyclicGroup) -> Differential:
    """Parse ``<r>: <source> -> <target>`` and check the bidegree laws."""
    return _diff_spec(text, group, 0, {})


def _diff_spec(text: str, group: CyclicGroup, col_offset: int, memo: dict) -> Differential:
    m = _DIFF_SPEC_RE.fullmatch(text.rstrip())
    if not m:
        raise DslSyntaxError(
            f"expected '<r>: <source> -> <target>', got {text.strip()!r}", col=col_offset
        )
    page = _int(m.group(1), col_offset + m.start(1))
    source = _class_expr(m.group(2), group, None, col_offset + m.start(2), memo)
    target = _class_expr(m.group(3), group, None, col_offset + m.start(3), memo)
    try:
        d = Differential(group, page, source, target)
    except DifferentialError as e:
        raise DslSemanticError(str(e), col=col_offset + m.start(1)) from e  # the page
    problems = validate(d)
    if problems:
        raise DslSemanticError(problems[0], col=col_offset)
    return d


# -- documents ----------------------------------------------------------------

_STMT_RE = re.compile(r"\s*(\w+)\s*(.*)$")
# a whole class statement, the hot path: groups name, expression and level
_CLASS_RE = re.compile(r"\s*class(?!\w)\s*([A-Za-z_]\w*)\s*=\s*([^@]*)(?:@\s*(.*))?")
_WINDOW_RE = re.compile(r"(-?\d+)\s+(-?\d+)\s+(-?\d+)")
_GUIDE_RE = re.compile(r"L(-?\d+)|vanish\s+h\s*=\s*(-?\d+)\s+k\s*=\s*(-?\d+)|boundary")


def parse(text: str) -> ChartDocument:
    """Parse a chart document; the ``group`` statement must come first."""
    doc: ChartDocument | None = None
    saw_grading = False
    names: set[str] = set()
    memo: dict = {}  # level -> {expression text: monomial}, for this document only
    try:
        for line_no, raw in enumerate(text.splitlines(), 1):
            cut = raw.find("#")
            body = (raw if cut < 0 else raw[:cut]).rstrip()
            if not body:
                continue
            m = doc is not None and _CLASS_RE.fullmatch(body)
            if m:
                name, expr, lvl_text = m.groups()
                if name in names:
                    raise DslSemanticError(f"duplicate class name {name!r}", col=m.start(1))
                names.add(name)
                level = None
                if lvl_text is not None:
                    level = parse_group_name(lvl_text, m.start(3)).exponent
                    if level > doc.group.exponent:
                        raise DslSemanticError(
                            f"level {lvl_text} exceeds the chart group {doc.group}",
                            col=m.start(3),
                        )
                doc.classes.append((name, _class_expr(expr, doc.group, level, m.start(2), memo)))
                continue
            stmt = _STMT_RE.match(body)
            if not stmt:
                col = len(body) - len(body.lstrip())
                raise DslSyntaxError(f"unparseable statement {body.strip()!r}", col=col)
            keyword, rest = stmt.group(1), stmt.group(2)
            col = stmt.start(2)  # columns are positions in the line
            if doc is None:
                if keyword != "group":
                    raise DslSyntaxError(
                        "the document must start with a group statement", col=stmt.start(1)
                    )
                group = parse_group_name(rest, col)
                doc = ChartDocument(group=group, grading=VirtualRep.zero(group))
                continue
            if keyword == "group":
                raise DslSemanticError("duplicate group statement", col=col)
            elif keyword == "grading":
                if saw_grading:
                    raise DslSemanticError("duplicate grading statement", col=col)
                saw_grading = True
                doc.grading = parse_rep(rest, doc.group, col)
            elif keyword == "window":
                if doc.window is not None:
                    raise DslSemanticError("duplicate window statement", col=col)
                m = _WINDOW_RE.fullmatch(rest.strip())
                if not m:
                    raise DslSyntaxError("window takes three integers: x_min x_max s_max", col=col)
                doc.window = _window(tuple(_int(m[i], col + m.start(i)) for i in (1, 2, 3)), col)
            elif keyword == "class":  # one that _CLASS_RE does not match
                raise DslSyntaxError("expected 'class <name> = <expr> [@C<order>]'", col=col)
            elif keyword == "diff":
                doc.diffs.append(_diff_spec(rest, doc.group, col, memo))
            elif keyword == "guide":
                doc.guides.append(_parse_guide(rest.strip(), doc.group, col))
            else:
                raise DslSyntaxError(f"unknown statement {keyword!r}", col=stmt.start(1))
    except DslError as e:
        e.line = line_no
        raise
    if doc is None:
        raise DslSyntaxError("empty document: a group statement is required")
    return doc


def _window(window, col: int | None = None) -> tuple[int, int, int]:
    """The window (x_min, x_max, s_max) as a tuple if it is three plain ints, not
    degenerate and within the bound, else a DslSemanticError at col: the one
    window rule of parse and emit_svg."""
    if type(window) not in (tuple, list) or [*map(type, window)] != [int, int, int]:
        raise DslSemanticError("window must be three integers: x_min x_max s_max", col=col)
    x_min, x_max, s_max = window
    if x_min > x_max or s_max < 0:
        for v in window:  # bounded before the message prints it
            _bounded(v, what="window bound", col=col)
        raise DslSemanticError(f"degenerate window ({x_min}, {x_max}, {s_max})", col=col)
    if max(-x_min, x_max, s_max) > _MAX_WINDOW:
        raise DslSemanticError(f"window outside -{_MAX_WINDOW}..{_MAX_WINDOW}", col=col)
    return x_min, x_max, s_max


def _guide(g: GuideSpec, group: CyclicGroup, col=None, h_col=None, k_col=None) -> GuideSpec:
    """g if group's chart can draw it, else a DslSemanticError at parse's columns:
    the one guide rule of parse, emit_svg and print_canonical."""
    n = group.exponent - 1
    if g.kind == "L":
        if not 0 <= g.k <= group.exponent:
            raise DslSemanticError(f"guide L{g.k} is out of range for {group}", col=col)
    elif n < 0:
        noun = "vanishing" if g.kind == "vanish" else "boundary"
        raise DslSemanticError(f"{noun} guides need a group of at least C2", col=col)
    elif g.kind == "vanish":
        from .vanishing import _check_vanishing_index
        try:
            _check_vanishing_index(g.h, n, g.k)
            if g.h % (1 << n):
                raise RepError(f"height {g.h} is not a multiple of 2^{n} for {group}")
        except RepError as e:  # at h when it names the height, else at k
            raise DslSemanticError(str(e), col=h_col if "height" in str(e) else k_col) from e
    return g


def _parse_guide(rest: str, group: CyclicGroup, col: int) -> GuideSpec:
    m = _GUIDE_RE.fullmatch(rest)
    if not m:
        raise DslSyntaxError(
            f"expected 'L<k>', 'vanish h=<h> k=<k>' or 'boundary', got {rest!r}", col=col
        )
    if m[2] is None:  # L<k> or boundary
        g = GuideSpec("boundary") if m[1] is None else GuideSpec("L", k=_int(m[1], col))
        return _guide(g, group, col)
    h_col, k_col = col + m.start(2), col + m.start(3)
    g = GuideSpec("vanish", h=_int(m[2], h_col), k=_int(m[3], k_col))  # h is read first
    return _guide(g, group, col, h_col, k_col)


def _chart(doc) -> tuple[int, int, int] | None:
    """The chart's window, or None: what emit_svg and print_canonical admit by parse's
    rules first.  Classes and differentials are engine values, admitted when built."""
    if type(doc) is not ChartDocument:
        raise DslSemanticError(f"emit_svg renders a ChartDocument, got {type(doc).__name__}")
    window = None if doc.window is None else _window(doc.window)
    if type(doc.grading) is not VirtualRep or doc.grading.group != doc.group:
        raise DslSemanticError("the chart's grading must be a VirtualRep over its group")
    for g in doc.guides:
        _guide(g, doc.group)
    return window


# -- canonical printing --------------------------------------------------------


def _print_monomial(m: ClassMonomial) -> str:
    factors: list[str] = []

    def push(token: str, e: int) -> None:
        if e == 1:
            factors.append(token)
        elif e > 1:
            factors.append(f"{token}^{e}")

    for i, j, e in m.norms:
        push(f"Nt[{i},{j}]", e)
    for name, e in zip(reversed(basis_names(m.level, "aS", "aL")), reversed(m.a_exp)):
        push(name, e)
    for name, e in zip(reversed(basis_names(m.level, "u2S", "uL")), reversed(m.u_exp)):
        push(name, e)
    if not factors:
        return str(m.coeff)
    if m.coeff != 1:
        factors.insert(0, str(m.coeff))
    return "*".join(factors)


def _print_differential(d: Differential) -> str:
    return f"diff {d.page}: {_print_monomial(d.source)} -> {_print_monomial(d.target)}"


def _print_document(doc: ChartDocument) -> str:
    window, lines = _chart(doc), [f"group {doc.group}"]
    if not doc.grading.is_zero:
        lines.append(f"grading {doc.grading}")
    if window is not None:
        lines.append("window {} {} {}".format(*window))
    for name, m in doc.classes:
        suffix = "" if m.level == doc.group.exponent else f" @{m.level_group}"
        lines.append(f"class {name} = {_print_monomial(m)}{suffix}")
    for d in doc.diffs:
        lines.append(_print_differential(d))
    for g in doc.guides:
        lines.append(_GUIDES[g.kind].format(k=g.k, h=g.h))
    return "\n".join(lines) + "\n"


def print_canonical(x) -> str:
    """Deterministic text form; parsing it reproduces the value exactly."""
    if isinstance(x, ClassMonomial):
        return _print_monomial(x)
    if isinstance(x, Differential):
        return _print_differential(x)
    if type(x) is ChartDocument:  # a subclass would not parse back as itself
        return _print_document(x)
    if isinstance(x, VirtualRep):
        return str(x)
    raise TypeError(f"cannot print {type(x).__name__} canonically")
