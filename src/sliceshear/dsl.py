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
from .reps import CyclicGroup, RepError, VirtualRep, basis_names
from .vanishing import N_constant

__all__ = [
    "DslError",
    "DslSyntaxError",
    "DslSemanticError",
    "GuideSpec",
    "ChartDocument",
    "parse",
    "parse_group_name",
    "parse_rep",
    "parse_class_expr",
    "parse_diff_spec",
    "print_canonical",
]


class DslError(ValueError):
    """Base for DSL failures; carries the source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        self.reason = message
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if col is not None:
                loc += f", col {col}"
            loc += ": "
        super().__init__(loc + message)


class DslSyntaxError(DslError):
    """The text does not match the grammar."""


class DslSemanticError(DslError):
    """Well-formed text naming something the declared group cannot have."""


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


def _int(text: str, line: int | None = None, col: int | None = None) -> int:
    """int() of a literal the grammar has matched.  A literal longer than the
    interpreter converts (4,300 digits by default) is a semantic error."""
    try:
        return int(text)
    except ValueError:
        raise DslSemanticError(
            f"integer literal of {len(text.lstrip('-'))} digits is too long", line, col
        ) from None


# -- group and representation literals ---------------------------------------

_GROUP_RE = re.compile(r"C(\d+)")


def parse_group_name(text: str, line: int | None = None, col: int | None = None) -> CyclicGroup:
    m = _GROUP_RE.fullmatch(text.strip())
    if not m:
        raise DslSyntaxError(f"expected a group literal like C8, got {text.strip()!r}", line, col)
    order = _int(m.group(1), line, col)
    exponent = order.bit_length() - 1
    if order < 1 or (1 << exponent) != order:
        raise DslSemanticError(f"group order {order} is not a power of 2", line, col)
    return CyclicGroup(exponent)


_REP_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<num>\d+)|(?P<lam>l\d+)|(?P<sig>s))")


def parse_rep(
    text: str,
    group: CyclicGroup,
    line: int | None = None,
    col_offset: int = 0,
) -> VirtualRep:
    """Parse a representation literal such as ``2-2s`` or ``4l1+2s``."""
    n = group.exponent
    triv = sigma = 0
    lam = [0] * max(n, 1)
    pos = 0
    first = True
    stripped = text.rstrip()
    if not stripped.strip():
        raise DslSyntaxError("empty representation literal", line, col_offset)
    while pos < len(stripped):
        m = _REP_TOKEN.match(stripped, pos)
        if not m:
            raise DslSyntaxError(
                f"unexpected {stripped[pos:].lstrip()[:1]!r} in representation literal",
                line,
                col_offset + pos,
            )
        sign = 1
        if m.group("sign"):
            sign = -1 if m.group("sign") == "-" else 1
            pos = m.end()
            m = _REP_TOKEN.match(stripped, pos)
            if not m or m.group("sign"):
                raise DslSyntaxError("dangling sign in representation literal", line, col_offset + pos)
        elif not first:
            raise DslSyntaxError(
                "terms must be joined by + or -", line, col_offset + pos
            )
        first = False
        coeff = None
        if m.group("num"):
            coeff = _int(m.group("num"), line, col_offset)
            pos = m.end()
            m = _REP_TOKEN.match(stripped, pos)
        basis = None
        if m and (m.group("lam") or m.group("sig")):
            basis = m.group("lam") or m.group("sig")
            pos = m.end()
        if coeff is None and basis is None:
            raise DslSyntaxError("expected a coefficient or basis element", line, col_offset + pos)
        value = sign * (1 if coeff is None else coeff)
        if basis is None:
            triv += value
        elif basis == "s":
            if n == 0:
                raise DslSemanticError(f"s is not a basis element of RO({group})", line, col_offset)
            sigma += value
        else:
            i = _int(basis[1:], line, col_offset)
            if i == 0:
                # l0 is parser sugar for 2s
                if n == 0:
                    raise DslSemanticError(f"l0 is not available over {group}", line, col_offset)
                sigma += 2 * value
            elif 1 <= i <= n - 1:
                lam[i] += value
            else:
                raise DslSemanticError(
                    f"l{i} is not a basis element of RO({group})", line, col_offset
                )
    return VirtualRep.of(group, triv=triv, sigma=sigma, lam={i: c for i, c in enumerate(lam) if c})


# -- class expressions --------------------------------------------------------
#
# A class expression is split on "*" into factors and each factor on "^"; str
# methods tell the factor kinds apart.  parse() shares one memo of factor
# classifications between the class and diff lines of a document.  Text that
# the split rejects goes to the token scanner, which reports the first error
# exactly; both paths hand their factors to _build, the one home of the
# semantic checks.

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

# A factor is (kind, x, y, exponent, exponent column - factor column): kind is
# a _CLASS_TOKEN group name, x and y its integers (the token text for a stray
# ^ or *).  Columns count from where the scan of a token starts, i.e. before
# its leading whitespace, as the scanner's error columns do.


def _is_int(text: str) -> bool:
    """An optional minus sign and decimal digits; isdecimal() accepts the
    Unicode Nd set, the same digits as the scanner's ``\\d``."""
    return (text[1:] if text[:1] == "-" else text).isdecimal()


def _classify(piece: str):
    """The factor that the text between two ``*`` spells, or None."""
    base, caret, exp = piece.partition("^")
    e = 1
    if caret:
        exp = exp.strip()
        if not _is_int(exp):
            return None
        e = _int(exp)
    erel = len(base) + 1
    base = base.strip()
    if base == "aS" or base == "u2S":
        return base, 0, 0, e, erel
    head = base[:2]
    if head == "aL" or head == "uL":
        return (head, _int(base[2:]), 0, e, erel) if base[2:].isdecimal() else None
    if base[-1:] == "]" and (head == "D[" or base[:3] == "Nt["):
        i, comma, j = base[2 if head == "D[" else 3 : -1].partition(",")
        i, j = i.strip(), j.strip()
        if comma and i.isdecimal() and j.isdecimal():
            return ("dd" if head == "D[" else "nt"), _int(i), _int(j), e, erel
        return None
    return ("num", _int(base), 0, e, erel) if _is_int(base) else None


def _scanned_factors(text: str, line: int | None, col_offset: int):
    """Yield (factor, column) pairs token by token.  An unknown character
    anywhere fails first; every other syntax error is raised only once the
    factors before it have been consumed."""
    tokens = []
    pos = 0
    stripped = text.rstrip()
    while pos < len(stripped):
        m = _CLASS_TOKEN.match(stripped, pos)
        if not m or m.end() == m.start():
            raise DslSyntaxError(
                f"unexpected {stripped[pos:].lstrip()[:1]!r} in class expression",
                line,
                col_offset + pos,
            )
        if m.lastgroup is not None:
            tokens.append((m, col_offset + m.start()))
        pos = m.end()
    if not tokens:
        raise DslSyntaxError("empty class expression", line, col_offset)
    idx = 0
    while True:
        m, col = tokens[idx]
        kind = m.lastgroup
        idx += 1
        exponent, erel = 1, 0
        if idx < len(tokens) and tokens[idx][0].lastgroup == "pow":
            idx += 1
            if idx >= len(tokens) or tokens[idx][0].lastgroup != "num":
                raise DslSyntaxError("expected an integer exponent after ^", line, col)
            exponent = _int(tokens[idx][0].group("num"), line, tokens[idx][1])
            erel = tokens[idx][1] - col
            idx += 1
        # a negative exponent is rejected before the indices are read, so its
        # error comes before one for an index past the digit limit
        x = y = 0
        if exponent < 0:
            pass
        elif kind == "num":
            x = _int(m.group("num"), line, col)
        elif kind == "aL" or kind == "uL":
            x = _int(m.group(kind + "_i"), line, col)
        elif kind == "nt":
            x, y = _int(m.group("nt_i"), line, col), _int(m.group("nt_j"), line, col)
        elif kind == "dd":
            x, y = _int(m.group("d_n"), line, col), _int(m.group("d_m"), line, col)
        elif kind != "aS" and kind != "u2S":
            x = m.group(0).strip()
        yield (kind, x, y, exponent, erel), col
        if idx == len(tokens):
            return
        m, col = tokens[idx]
        if m.lastgroup != "mul":
            raise DslSyntaxError(
                f"expected * between factors, got {m.group(0).strip()!r}", line, col
            )
        idx += 1
        if idx == len(tokens):
            raise DslSyntaxError("dangling * at end of class expression", line, col)


def _build(factors, group: CyclicGroup, lv: int, line: int | None, col_offset: int):
    """Multiply out (factor, column) pairs in order, with the semantic checks."""
    coeff = 1
    a = [0] * lv
    u = [0] * lv
    norms: list[tuple[int, int, int]] = []
    for (kind, x, y, e, erel), col in factors:
        if e < 0:
            raise DslSemanticError("negative exponents are not allowed", line, col + erel)
        if kind == "aS" or kind == "u2S":
            if lv < 1:
                raise DslSemanticError(f"{kind} needs a level of at least C2", line, col)
            (a if kind == "aS" else u)[0] += e
        elif kind == "aL" or kind == "uL":
            if not 1 <= x <= lv - 1:
                raise DslSemanticError(
                    f"{kind}{x} is not in the basis at level C{1 << lv}", line, col
                )
            (a if kind == "aL" else u)[x] += e
        elif kind == "nt":
            if x < 1:
                raise DslSemanticError(
                    f"Nt[{x},{y}]: generator index must be >= 1", line, col
                )
            if not 1 <= y <= lv:
                raise DslSemanticError(
                    f"Nt[{x},{y}]: norm level must lie between 1 and the class "
                    f"level {lv}", line, col
                )
            norms.append((x, y, e))
        elif kind == "num":
            coeff *= x**e
        elif kind == "dd":
            if x < 1 or y < 1:
                raise DslSemanticError(f"D[{x},{y}]: both indices must be >= 1", line, col)
            if x > lv:
                raise DslSemanticError(
                    f"D[{x},{y}] needs a level of at least {CyclicGroup(x)}", line, col
                )
            norms += _d_norms(x, y, e)
        else:
            raise DslSyntaxError(f"unexpected {x!r}", line, col)
    try:
        return ClassMonomial(group, lv, coeff, tuple(norms), tuple(a), tuple(u))
    except MonomialError as e:
        raise DslSemanticError(str(e), line, col_offset) from e


def _class_expr(
    text: str,
    group: CyclicGroup,
    level: int | None,
    line: int | None,
    col_offset: int,
    memo: dict,
) -> ClassMonomial:
    lv = group.exponent if level is None else level
    factors = []
    col = col_offset
    for piece in text.split("*"):
        factor = memo.get(piece)
        if factor is None:
            try:
                factor = _classify(piece)
            except DslSemanticError:  # a literal past the digit limit
                factor = None
            if factor is None:
                factors = _scanned_factors(text, line, col_offset)
                return _build(factors, group, lv, line, col_offset)
            memo[piece] = factor
        factors.append((factor, col))
        col += len(piece) + 1
    return _build(factors, group, lv, line, col_offset)


def parse_class_expr(
    text: str,
    group: CyclicGroup,
    level: int | None = None,
    line: int | None = None,
    col_offset: int = 0,
) -> ClassMonomial:
    """Parse a class expression such as ``Nt[3,4]*aS^8*u2S^2``."""
    return _class_expr(text, group, level, line, col_offset, {})


_DIFF_SPEC_RE = re.compile(r"\s*(\d+)\s*:\s*(.*?)\s*->\s*(\S.*)$")


def parse_diff_spec(
    text: str,
    group: CyclicGroup,
    level: int | None = None,
    line: int | None = None,
    provenance: str = "user",
) -> Differential:
    """Parse ``<r>: <source> -> <target>`` and check the bidegree laws."""
    return _diff_spec(text, group, level, line, provenance, {})


def _diff_spec(
    text: str,
    group: CyclicGroup,
    level: int | None,
    line: int | None,
    provenance: str,
    memo: dict,
) -> Differential:
    m = _DIFF_SPEC_RE.fullmatch(text.rstrip())
    if not m:
        raise DslSyntaxError(
            f"expected '<r>: <source> -> <target>', got {text.strip()!r}", line
        )
    page = _int(m.group(1), line, m.start(1))
    source = _class_expr(m.group(2), group, level, line, m.start(2), memo)
    target = _class_expr(m.group(3), group, level, line, m.start(3), memo)
    try:
        d = Differential(group, page, source, target, provenance=provenance)
    except DifferentialError as e:
        raise DslSemanticError(str(e), line) from e
    problems = validate(d)
    if problems:
        raise DslSemanticError(problems[0], line)
    return d


# -- documents ----------------------------------------------------------------

_STMT_RE = re.compile(r"(\w+)\s*(.*)$")
_WINDOW_RE = re.compile(r"(-?\d+)\s+(-?\d+)\s+(-?\d+)")
_CLASS_DECL_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*(.*)$")
_GUIDE_L_RE = re.compile(r"L(\d+)")
_GUIDE_VANISH_RE = re.compile(r"vanish\s+h\s*=\s*(\d+)\s+k\s*=\s*(\d+)")


def parse(text: str) -> ChartDocument:
    """Parse a chart document; the ``group`` statement must come first."""
    doc: ChartDocument | None = None
    saw_grading = False
    names: set[str] = set()
    memo: dict = {}  # factor text -> factor, for this document only
    for line_no, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        stmt = _STMT_RE.match(body.strip())
        if not stmt:
            raise DslSyntaxError(f"unparseable statement {body.strip()!r}", line_no)
        keyword, rest = stmt.group(1), stmt.group(2)
        col = body.index(keyword) + len(keyword) + 1
        if doc is None:
            if keyword != "group":
                raise DslSyntaxError(
                    "the document must start with a group statement", line_no
                )
            group = parse_group_name(rest, line_no, col)
            doc = ChartDocument(group=group, grading=VirtualRep.zero(group))
            continue
        if keyword == "group":
            raise DslSemanticError("duplicate group statement", line_no)
        elif keyword == "grading":
            if saw_grading:
                raise DslSemanticError("duplicate grading statement", line_no)
            saw_grading = True
            doc.grading = parse_rep(rest, doc.group, line_no, col)
        elif keyword == "window":
            if doc.window is not None:
                raise DslSemanticError("duplicate window statement", line_no)
            m = _WINDOW_RE.fullmatch(rest.strip())
            if not m:
                raise DslSyntaxError(
                    "window takes three integers: x_min x_max s_max", line_no, col
                )
            x_min, x_max, s_max = (_int(g, line_no, col) for g in m.groups())
            if x_min > x_max or s_max < 0:
                raise DslSemanticError(
                    f"degenerate window ({x_min}, {x_max}, {s_max})", line_no, col
                )
            doc.window = (x_min, x_max, s_max)
        elif keyword == "class":
            m = _CLASS_DECL_RE.fullmatch(rest.strip())
            if not m:
                raise DslSyntaxError("expected 'class <name> = <expr> [@C<order>]'", line_no, col)
            name, expr = m.group(1), m.group(2)
            if name in names:
                raise DslSemanticError(f"duplicate class name {name!r}", line_no)
            names.add(name)
            level = None
            if "@" in expr:
                expr, _, lvl_text = expr.partition("@")
                lvl_group = parse_group_name(lvl_text, line_no)
                level = lvl_group.exponent
                if level > doc.group.exponent:
                    raise DslSemanticError(
                        f"level {lvl_text.strip()} exceeds the chart group {doc.group}",
                        line_no,
                    )
            mono = _class_expr(expr, doc.group, level, line_no, col, memo)
            doc.classes.append((name, mono))
        elif keyword == "diff":
            doc.diffs.append(_diff_spec(rest, doc.group, None, line_no, "user", memo))
        elif keyword == "guide":
            doc.guides.append(_parse_guide(rest.strip(), doc, line_no, col))
        else:
            raise DslSyntaxError(f"unknown statement {keyword!r}", line_no)
    if doc is None:
        raise DslSyntaxError("empty document: a group statement is required")
    return doc


def _parse_guide(rest: str, doc: ChartDocument, line_no: int, col: int) -> GuideSpec:
    m = _GUIDE_L_RE.fullmatch(rest)
    if m:
        k = _int(m.group(1), line_no, col)
        if not 0 <= k <= doc.group.exponent:
            raise DslSemanticError(
                f"guide L{k} is out of range for {doc.group}", line_no
            )
        return GuideSpec("L", k=k)
    m = _GUIDE_VANISH_RE.fullmatch(rest)
    if m:
        h, k = _int(m.group(1), line_no, col), _int(m.group(2), line_no, col)
        n = doc.group.exponent - 1
        if n < 0:
            raise DslSemanticError("vanishing guides need a group of at least C2", line_no)
        try:
            N_constant(h, n, k)
        except RepError as e:
            raise DslSemanticError(str(e), line_no) from e
        if h % (1 << n):
            raise DslSemanticError(
                f"height {h} is not a multiple of 2^{n} for {doc.group}", line_no
            )
        return GuideSpec("vanish", k=k, h=h)
    if rest == "boundary":
        if doc.group.exponent < 1:
            raise DslSemanticError("boundary guides need a group of at least C2", line_no)
        return GuideSpec("boundary")
    raise DslSyntaxError(
        f"expected 'L<k>', 'vanish h=<h> k=<k>' or 'boundary', got {rest!r}",
        line_no,
        col,
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
