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

import re
from dataclasses import dataclass, field

from .differentials import Differential, DifferentialError, validate
from .monomials import ClassMonomial, MonomialError, _d_norms
from .reps import (
    CyclicGroup, DslError, DslSemanticError, DslSyntaxError, RepError, VirtualRep, _int,
    basis_names, parse_group_name, parse_rep,
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


@dataclass(frozen=True)
class GuideSpec:
    """A requested guide line: kind "L", "vanish" or "boundary"."""

    kind: str
    k: int | None = None
    h: int | None = None


@dataclass
class ChartDocument:
    """Parsed chart content, renderable to SVG."""

    group: CyclicGroup
    grading: VirtualRep
    window: tuple[int, int, int] | None = None
    classes: list[tuple[str, ClassMonomial]] = field(default_factory=list)
    diffs: list[Differential] = field(default_factory=list)
    guides: list[GuideSpec] = field(default_factory=list)


# -- class expressions --------------------------------------------------------
#
# A class expression is split on "*" and each piece is read with the token
# grammar _CLASS_TOKEN.  parse() shares one memo of the factors that pieces
# spell between the class and diff lines of a document.  An unknown character
# raises at once, so it comes first wherever it stands.  Any other error waits
# in its place as an "err" factor, and _build, the one home of the semantic
# checks, raises it once the factors before it have passed theirs.

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

# A factor is (kind, x, y, exponent): kind is a _CLASS_TOKEN group name and x,
# y its integers, or kind "err" and x the error to raise.  Columns count from
# where the scan of a token starts, i.e. before its leading whitespace, so a
# factor's column is that of its piece.


def _piece(piece: str, col: int, factors: list, memo: dict) -> None:
    """Append the (factor, column) pairs that one piece spells to factors;
    memoize its factor when the piece is a valid one."""
    stripped = piece.rstrip()
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
    m, *tokens = tokens
    kind, x, y, e = m.lastgroup, 0, 0, 1
    try:
        if tokens and tokens[0].lastgroup == "pow":
            if len(tokens) < 2 or tokens[1].lastgroup != "num":
                raise DslSyntaxError("expected an integer exponent after ^", col=col)
            ecol = col + tokens[1].start()
            e = _int(tokens[1].group("num"), ecol)
            # rejected before the indices are read, so it comes before an
            # error for an index past the digit limit
            if e < 0:
                raise DslSemanticError("negative exponents are not allowed", col=ecol)
            del tokens[:2]
        if kind == "num":
            x = _int(m.group("num"), col)
        elif kind == "aL" or kind == "uL":
            x = _int(m.group(kind + "_i"), col)
        elif kind == "nt" or kind == "dd":
            g = m.lastindex
            x, y = _int(m.group(g + 1), col), _int(m.group(g + 2), col)
        elif kind == "pow" or kind == "mul":
            raise DslSyntaxError(f"unexpected {m.group(0).strip()!r}", col=col)
        factors.append(((kind, x, y, e), col))
        if tokens:
            t = tokens[0]
            raise DslSyntaxError(
                f"expected * between factors, got {t.group(0).strip()!r}", col=col + t.start()
            )
        memo[piece] = kind, x, y, e
    except DslError as err:
        factors.append((("err", err, 0, 0), col))


def _build(factors, group: CyclicGroup, lv: int, col_offset: int):
    """Multiply out (factor, column) pairs in order, with the semantic checks."""
    coeff = 1
    a = [0] * lv
    u = [0] * lv
    norms: list[tuple[int, int, int]] = []
    for (kind, x, y, e), col in factors:
        if kind == "aS" or kind == "u2S":
            if lv < 1:
                raise DslSemanticError(f"{kind} needs a level of at least C2", col=col)
            (a if kind == "aS" else u)[0] += e
        elif kind == "aL" or kind == "uL":
            if not 1 <= x <= lv - 1:
                raise DslSemanticError(
                    f"{kind}{x} is not in the basis at level C{1 << lv}", col=col
                )
            (a if kind == "aL" else u)[x] += e
        elif kind == "nt":
            if x < 1:
                raise DslSemanticError(f"Nt[{x},{y}]: generator index must be >= 1", col=col)
            if not 1 <= y <= lv:
                raise DslSemanticError(
                    f"Nt[{x},{y}]: norm level must lie between 1 and the class "
                    f"level {lv}", col=col
                )
            norms.append((x, y, e))
        elif kind == "num":
            coeff *= x**e
        elif kind == "dd":
            if x < 1 or y < 1:
                raise DslSemanticError(f"D[{x},{y}]: both indices must be >= 1", col=col)
            if x > lv:
                raise DslSemanticError(
                    f"D[{x},{y}] needs a level of at least {CyclicGroup(x)}", col=col
                )
            norms += _d_norms(x, y, e)
        else:
            raise x
    try:
        return ClassMonomial(group, lv, coeff, tuple(norms), tuple(a), tuple(u))
    except MonomialError as e:
        raise DslSemanticError(str(e), col=col_offset) from e


def _class_expr(
    text: str, group: CyclicGroup, level: int | None, col_offset: int, memo: dict
) -> ClassMonomial:
    lv = group.exponent if level is None else level
    factors = []
    col = col_offset
    pieces = iter(text.split("*"))
    for piece in pieces:
        factor = memo.get(piece)
        if factor is None:
            if not piece.strip() and col - col_offset + len(piece) < len(text):
                # the * that follows stands where a factor should
                piece += "*" + next(pieces)
            elif not piece.strip():  # the text is blank or ends in *
                # the scan of that * starts after the factor before it
                mul = col_offset + len(text[: col - col_offset - 1].rstrip())
                reason = "dangling * at end of" if factors else "empty"
                err = DslSyntaxError(f"{reason} class expression", col=mul)
                factors.append((("err", err, 0, 0), mul))
                break
            _piece(piece, col, factors, memo)
        else:
            factors.append((factor, col))
        col += len(piece) + 1
    return _build(factors, group, lv, col_offset)


def parse_class_expr(
    text: str,
    group: CyclicGroup,
    level: int | None = None,
    line: int | None = None,
    col_offset: int = 0,
) -> ClassMonomial:
    """Parse a class expression such as ``Nt[3,4]*aS^8*u2S^2``."""
    try:
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
_WINDOW_RE = re.compile(r"(-?\d+)\s+(-?\d+)\s+(-?\d+)")
_CLASS_DECL_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*([^@]*)(?:@\s*(.*))?$")
_GUIDE_L_RE = re.compile(r"L(\d+)")
_GUIDE_VANISH_RE = re.compile(r"vanish\s+h\s*=\s*(\d+)\s+k\s*=\s*(\d+)")


def parse(text: str) -> ChartDocument:
    """Parse a chart document; the ``group`` statement must come first."""
    doc: ChartDocument | None = None
    saw_grading = False
    names: set[str] = set()
    memo: dict = {}  # factor text -> factor, for this document only
    try:
        for line_no, raw in enumerate(text.splitlines(), 1):
            body = raw.split("#", 1)[0].rstrip()
            if not body.strip():
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
                x_min, x_max, s_max = (_int(m.group(i), col + m.start(i)) for i in (1, 2, 3))
                if x_min > x_max or s_max < 0:
                    raise DslSemanticError(
                        f"degenerate window ({x_min}, {x_max}, {s_max})", col=col
                    )
                doc.window = (x_min, x_max, s_max)
            elif keyword == "class":
                m = _CLASS_DECL_RE.fullmatch(rest)
                if not m:
                    raise DslSyntaxError("expected 'class <name> = <expr> [@C<order>]'", col=col)
                name, expr, lvl_text = m.groups()
                if name in names:
                    raise DslSemanticError(f"duplicate class name {name!r}", col=col + m.start(1))
                names.add(name)
                level = None
                if lvl_text is not None:
                    level = parse_group_name(lvl_text, col + m.start(3)).exponent
                    if level > doc.group.exponent:
                        raise DslSemanticError(
                            f"level {lvl_text} exceeds the chart group {doc.group}",
                            col=col + m.start(3),
                        )
                mono = _class_expr(expr, doc.group, level, col + m.start(2), memo)
                doc.classes.append((name, mono))
            elif keyword == "diff":
                doc.diffs.append(_diff_spec(rest, doc.group, col, memo))
            elif keyword == "guide":
                doc.guides.append(_parse_guide(rest.strip(), doc, col))
            else:
                raise DslSyntaxError(f"unknown statement {keyword!r}", col=stmt.start(1))
    except DslError as e:
        e.line = line_no
        raise
    if doc is None:
        raise DslSyntaxError("empty document: a group statement is required")
    return doc


def _parse_guide(rest: str, doc: ChartDocument, col: int) -> GuideSpec:
    m = _GUIDE_L_RE.fullmatch(rest)
    if m:
        k = _int(m.group(1), col)
        if not 0 <= k <= doc.group.exponent:
            raise DslSemanticError(f"guide L{k} is out of range for {doc.group}", col=col)
        return GuideSpec("L", k=k)
    m = _GUIDE_VANISH_RE.fullmatch(rest)
    if m:
        from .vanishing import _check_vanishing_index
        h_col, k_col = col + m.start(1), col + m.start(2)
        h, k = _int(m.group(1), h_col), _int(m.group(2), k_col)
        n = doc.group.exponent - 1
        if n < 0:
            raise DslSemanticError("vanishing guides need a group of at least C2", col=col)
        try:
            _check_vanishing_index(h, n, k)
        except RepError as e:  # about k when it is out of range, else about h
            raise DslSemanticError(str(e), col=k_col if k > n else h_col) from e
        if h % (1 << n):
            raise DslSemanticError(
                f"height {h} is not a multiple of 2^{n} for {doc.group}", col=h_col
            )
        return GuideSpec("vanish", k=k, h=h)
    if rest == "boundary":
        if doc.group.exponent < 1:
            raise DslSemanticError("boundary guides need a group of at least C2", col=col)
        return GuideSpec("boundary")
    raise DslSyntaxError(
        f"expected 'L<k>', 'vanish h=<h> k=<k>' or 'boundary', got {rest!r}", col=col
    )


# -- canonical printing --------------------------------------------------------


def _print_monomial(m: ClassMonomial) -> str:
    if m.is_zero:
        return "0"
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
    lines = [f"group {doc.group}"]
    if not doc.grading.is_zero:
        lines.append(f"grading {doc.grading}")
    if doc.window is not None:
        lines.append("window {} {} {}".format(*doc.window))
    for name, m in doc.classes:
        suffix = "" if m.level == doc.group.exponent else f" @C{1 << m.level}"
        lines.append(f"class {name} = {_print_monomial(m)}{suffix}")
    for d in doc.diffs:
        lines.append(_print_differential(d))
    for g in doc.guides:
        if g.kind == "L":
            lines.append(f"guide L{g.k}")
        elif g.kind == "vanish":
            lines.append(f"guide vanish h={g.h} k={g.k}")
        else:
            lines.append("guide boundary")
    return "\n".join(lines) + "\n"


def print_canonical(x) -> str:
    """Deterministic text form; parsing it reproduces the value exactly."""
    if isinstance(x, ClassMonomial):
        return _print_monomial(x)
    if isinstance(x, Differential):
        return _print_differential(x)
    if isinstance(x, ChartDocument):
        return _print_document(x)
    if isinstance(x, VirtualRep):
        return str(x)
    raise TypeError(f"cannot print {type(x).__name__} canonically")
