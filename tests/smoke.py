"""A stdlib-only smoke test of the CLI.

It runs every ``sliceshear`` command in README.md, in human form and with
``--json``, each in a fresh isolated interpreter, and checks that each exits 0
with output and nothing on stderr, and that each ``--json`` output is JSON.
Each such interpreter runs the ``module:function`` that pyproject.toml's
``[project.scripts]`` names, as an installed ``sliceshear`` does, and the
smoke test fails if that names no function.  It then renders the two SVG
goldens with ``sliceshear chart`` and compares them byte for byte, and runs
README's four documented error examples, checking
each exit code and the ``kind``, ``line`` and ``col`` of the JSON error object
on stderr.  Each input in ``LIMITS``, past one of the engine's bounds, must
exit 2 or 3 with one JSON error line within 5 s, and each library call in
``SWEEP`` must raise an engine error with 10**10, 10**30, 10**5000 and
-10**5000 as its size argument; every such child runs with its address space
capped at 1 GiB.
The coefficient powers of ``POWERS`` must exit the same way again with the
interpreter's int/str digit limit off.
In process, it round-trips the HHR families through JSON, which
builds every monomial through the unchecked constructor, and checks the exact
error text for three malformed objects; round trips at levels 2044-2048 must
leave under 64 KiB allocated, as no basis-name table past a chart's is kept.
Last, it hands a few public calls a bool, a float, an int subclass or an
out-of-range int, and checks the exact
exception class and text of each, so the engine's one admission rule runs on
every supported Python; three inputs that once slipped past the engine's
errors and the group bound, whose largest group still prints its order,
are checked the same way, and so are the calls that read n and the group
from the grading: ``vanishing_line``, ``boundary_line`` and a permanent-cycle
fact.  So are a JSON norm index past the bound and the exact
text of a degree mismatch that ``validate`` reports.  The goldens are also
rendered through the library twice in this process, first with the DSL's
factor cache emptied and then with it warm, and both must be byte-identical.
Two one-shot calls, ``rep dim`` and human-output ``hhr``, must load exactly
their engine modules, and neither may load ``dataclasses`` or ``argparse``.
The CLI's flag-table reader must take each README command, in human and
``--json`` form, as this Python's ``argparse`` reads it, and of the argv
forms in ``READER`` it must take those marked so, the same way, and leave
the rest (abbreviations, ``--``, values that start with ``-``, repeated or
missing flags, help) to ``argparse``, whose rules differ between versions.  The engine's values keep
the record contract of their plain base class: the repr they printed as
dataclasses, equality and hash over their fields (a differential's
provenance left out), and no assignment.  It needs no pytest, so it runs on
any Python 3.10+:

    python3 tests/smoke.py    (from the repository root)

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "tests" / "goldens"
# the chart.dsl that README's `sliceshear chart chart.dsl -o chart.svg` reads
CHART = "group C2\nwindow -2 4 4\ndiff 3: u2S -> Nt[1,1]*aS^3\n"
# README's error examples: (bad.dsl text, argv, exit code, kind, line, col)
ERRORS = [
    ("group C2\nclass x = aS  y\n", ["chart", "bad.dsl", "-o", "bad.svg"], 2, "parse", 2, 12),
    ("group C4\ngrading 1+l5\n", ["chart", "bad.dsl", "-o", "bad.svg"], 3, "semantic", 2, 10),
    (None, ["rep", "dim", "--group", "C8", "--V", "2-x"], 2, "parse", None, 2),
    (None, ["rep", "dim", "--group", "C6", "--V", "0"], 3, "semantic", None, 0),
]
# Inputs past an engine bound, each of which once exited 1 "internal", took
# memory without end or was accepted: (chart.dsl text or None, argv).  Each must
# exit 2 or 3 with one JSON error line, in a child whose address space is capped.
_DIFF = "3: u2S -> Nt[1,1]*aS^3"
# an exponent of 4,000 digits, past the literal bound, and one of 3,000, which
# a shear by one step takes past the exponent bound
_E4, _E3 = "9" * 4000, "9" * 3000
# chart text whose coefficient powers were once refused or not as the
# interpreter's int/str digit limit said
POWERS = [
    ("group C2\nwindow 0 4 4\nclass x = 2^9999999999\n", ["chart", "big.dsl", "-o", "big.svg"]),
    ("group C2\nwindow 0 4 4\nclass x = 3^100000\n", ["chart", "big.dsl", "-o", "big.svg"]),
]
LIMITS = [
    (None, ["vanishing", "--h", "4000000000", "--n", "0"]),
    (None, ["correspond", "--group", "C2", "--k", "1", "Nt[99999999999,1]"]),
    (None, ["transport", "--group", "C2", "--k", "99999999", "--diff", _DIFF]),
    (None, ["vanishing", "--h", "16384", "--n", "2"]),
    (None, ["hhr", "--n", "100000", "--i", "1"]),
    (None, ["hhr", "--n", "1", "--i", "99999999"]),
    (None, ["tower", "--n", "15000", "--m", "1"]),
    (None, ["transport", "--group", "C2", "--k", "20000", "--diff", _DIFF]),
    ("group C2\nwindow -1000000 1000000 1000000\n", ["chart", "big.dsl", "-o", "big.svg"]),
    ("group C2\nwindow 0 4 4\nclass x = Nt[10000000000,1]\n", ["chart", "big.dsl", "-o", "big.svg"]),
    (None, ["correspond", "--group", "C2", "--k", "1", "9^3000*9^3000"]),
    (None, ["shear", "--n", "2047", "--k", "2047", "--V", "0", "--t", "9" * 4000, "--s", "0"]),
    (None, ["rep", "lines", "--group", f"C{1 << 2048}", "--V", "9" * 4000]),
    (None, ["correspond", "--group", "C2", "--k", "1", f"Nt[2048,1]^{_E4}"]),
    (None, ["transport", "--group", "C2", "--k", "1", "--diff",
            f"3: u2S*Nt[2048,1]^{_E4} -> Nt[1,1]*aS^3*Nt[2048,1]^{_E4}"]),
    (None, ["correspond", "--group", "C2", "--k", "1", f"Nt[2048,1]^{_E3}"]),
    (None, ["transport", "--group", "C2", "--k", "1", "--diff",
            f"3: u2S*Nt[2048,1]^{_E3} -> Nt[1,1]*aS^3*Nt[2048,1]^{_E3}"]),
    *POWERS,
    ("group C2\nwindow 0 4 4\nclass x = aS^1" + "0" * 3000 + "\n", ["chart", "big.dsl", "-o", "big.svg"]),
    ("group C2\nwindow 0 4 4\ndiff 1" + "0" * 3000 + ": u2S -> aS\n", ["chart", "big.dsl", "-o", "big.svg"]),
]
# Library calls, each with 10**10, 10**30, 10**5000 and -10**5000 as v, that
# must raise an engine error.  The first 23 take one size argument each of 16
# public functions.  Most once raised MemoryError or OverflowError there or
# never returned; build_D(1, v), tower_report(1, v) and VanishingProfile(0, v,
# ...) returned, and are refused now that i, m and h have bounds.  The next
# reads a JSON differential with norm index 10**8 in both endpoints, and the
# next raises a coefficient to the power v, which once never returned.  The
# next four print a monomial's level or a norm's j in their refusal.  At
# +-10**5000, 13 of the first 23 and those four once let the bare
# ValueError of the int/str digit limit escape.  The last three render a
# hand-built chart whose window holds v, which once sized a grid line for each
# column and row, so MemoryError; a degenerate one must not print a 5,001-digit v.
SWEEP = [
    "s.rho_bar(v)", "s.basis_names(v)", "s.build_D(v, 1)", "s.build_D(1, v)",
    "s.shear_length(3, v)", "s.unshear_length(3, v)", "s.euler_ratio(v, 1, 1)",
    "s.euler_ratio(1, v, 1)", "s.ShearContext.lift(s.CyclicGroup(1), v)", "s.tower_report(v, 1)",
    "s.tower_report(1, v)", "s.hu_kriz_seed(v)", "s.hhr_family(v, 1)", "s.hhr_family(1, v)",
    "s.transport(s.hhr_family(0, 1), v)", "s.permanent_cycle_seeds(v)", "s.N_constant(v, 0, 0)",
    "s.N_constant(4, v, 0)", "s.max_length(v, 1, 0)", "s.max_length(4, v, 0)",
    "s.vanishing_line(s.VirtualRep.zero(s.CyclicGroup(1)), v, 0)",
    "s.VanishingProfile(0, v, s.VirtualRep.zero(s.CyclicGroup(1)))",
    "s.VanishingProfile(v, 4, s.VirtualRep.zero(s.CyclicGroup(1)))",
    "s.import_json(json.dumps([d]))", "s.ClassMonomial(s.CyclicGroup(1), 1, 3) ** v",
    "s.ClassMonomial(s.CyclicGroup(1), v)", "s.parse_class_expr('aS', s.CyclicGroup(1), v)",
    "s.obj_to_monomial(dict(d['source'], norms=[], level=v))",
    "s.obj_to_monomial(dict(d['target'], norms=[[1, v, 1]]))",
    *(f"s.emit_svg(s.ChartDocument(s.CyclicGroup(1), s.VirtualRep.zero(s.CyclicGroup(1)), {w}))"
      for w in ("(0, v, v)", "(-v, 0, 0)", "(v, 0, 0)")),
]
# A child's address space is capped, so an input that builds a huge integer
# fails at once with MemoryError instead of taking the machine's memory
_CAP = (
    "try:\n    import resource\nexcept ImportError:\n    pass\nelse:\n"
    "    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
)
# argv forms beside README's commands, each with whether the CLI's flag-table
# reader takes it (True) or leaves it to argparse (False); a call it takes must
# read as this Python's argparse reads it
READER = [
    (["rep", "dim", "--group=C8", "--V=2-2s"], True),
    (["rep", "--json", "dim", "-g", "C8", "--V", "0"], True),
    (["shear", "--t=-3", "--n", "2", "--k", "2", "--V", "0", "--s", "1"], True),
    (["chart", "-o", "out.svg", "in.dsl"], True),
    (["chart", "in.dsl", "--output=out.svg", "--json"], True),
    (["correspond", "Nt[1,1]", "--k", "1", "-g", "C2", "--level", "C2"], True),
    (["hhr", "--n", " 1", "--i", "1_0"], True),
    (["rep", "dim", "--group", "", "--V="], True),
    (["transport", "--group", "C2", "--k", "1", "--diff=3: u2S -> Nt[1,1]*aS^3"], True),
    (["rep", "dim", "--gr", "C8", "--V", "0"], False),
    (["rep", "dim", "-g=C8", "--V", "0"], False),
    (["rep", "dim", "-gC8", "--V", "0"], False),
    (["shear", "--n", "2", "--k", "2", "--V", "0", "--t", "-3", "--s", "1"], False),
    (["rep", "dim", "--group", "C8", "--V", "-2s"], False),
    (["hhr", "--n", "1", "--i", "1", "--"], False),
    (["hhr", "--", "--n", "1", "--i", "1"], False),
    (["hhr", "--n", "1", "--n", "2", "--i", "1"], False),
    (["chart", "in.dsl", "-o", "a.svg", "--output", "b.svg"], False),
    (["hhr", "--n", "1", "--i", "1", "--json", "--json"], False),
    (["hhr", "--n", "1"], False),
    (["hhr", "--n", "1", "--i"], False),
    (["hhr", "--n", "x", "--i", "1"], False),
    (["hhr", "--n=", "--i", "1"], False),
    (["rep", "frob", "--group", "C8", "--V", "0"], False),
    (["hhr", "--n", "1", "--i", "1", "extra"], False),
    (["rep", "dim", "--group", "C8", "--V", "0", "-h"], False),
    (["--json", "hhr", "--n", "1", "--i", "1"], False),
    ([], False),
]
# malformed JSON monomials and the exact JsonSchemaError text of each
BAD_JSON = [
    ('[{"group": 1, "level": 1, "coeff": 1, "norms": [[1, 2, 1]], "a": {}, "u": {}}]',
     "items[0]: norm factor (1, 2) out of range at level 1"),
    ('[{"group": 2, "level": 2, "coeff": 1, "norms": [], "a": {}, "u": {"l2": 1}}]',
     "items[0].u.l2: basis slot out of range at level 2"),
    ('[{"group": 1, "page": 3, "source": {"group": 1, "level": 1, "coeff": true}}]',
     "items[0].source.coeff: expected an integer, got True"),
]


def script_entry() -> tuple[str, str]:
    """The (module, function) that pyproject.toml's ``[project.scripts]``
    names for ``sliceshear``, read with a regex: 3.10 has no ``tomllib``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    m = re.search(r'^\[project\.scripts\][^\[]*?^sliceshear\s*=\s*"([\w.]+):(\w+)"', text, re.M)
    if not m:
        raise LookupError('pyproject.toml names no sliceshear = "<module>:<function>" script')
    return m.group(1), m.group(2)


ENTRY_MODULE, ENTRY = script_entry()
# the program an installed ``sliceshear`` runs, as its console script calls it
MAIN = (
    f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
    f"from {ENTRY_MODULE} import {ENTRY}; sys.exit({ENTRY}())"
)
# MAIN that also prints the names of the loaded modules to stderr
LOADED = (
    f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); from {ENTRY_MODULE} import {ENTRY}; "
    f"code = {ENTRY}(); print(*sys.modules, file=sys.stderr); sys.exit(code)"
)
# one-shot calls and the engine modules each loads (cli and reps always do)
MODULES = [
    (["rep", "dim", "--group", "C8", "--V", "2-2s"], {"cli", "reps"}),
    (["hhr", "--n", "1", "--i", "1"], {"cli", "reps", "differentials", "dsl", "monomials"}),
]


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("sliceshear ")]


def cli(
    argv: list[str], cwd: str, program: str = MAIN, timeout: float = 60, xopts: tuple = ()
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-I", "-B", *xopts, "-c", program, *argv],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def limit_failure(dsl: str | None, argv: list[str], cwd: str, xopts: tuple = ()) -> str | None:
    """What is wrong with how a LIMITS row exits, or None: it must exit 2 or 3
    within 5 s, printing nothing on stdout and one JSON error line on stderr.
    ``xopts`` are -X options for the child."""
    if dsl is not None:
        pathlib.Path(cwd, "big.dsl").write_text(dsl)
    shown = shlex.join([*xopts, *argv])[:200]
    try:
        proc = cli(argv, cwd, _CAP + MAIN, timeout=5, xopts=xopts)
    except subprocess.TimeoutExpired:
        return f"{shown}: no exit within 5 s"
    try:
        code = json.loads(proc.stderr)["error"]["code"]
    except (ValueError, KeyError, TypeError):
        code = None
    if proc.returncode not in (2, 3) or code != proc.returncode or proc.stdout:
        return f"{shown}: exit {proc.returncode}, stderr {proc.stderr[-300:]!r}"
    return None


# the interpreter's int/str digit limit off: PYTHONINTMAXSTRDIGITS=0, which -I ignores
NO_DIGIT_LIMIT = ("-X", "int_max_str_digits=0")


def sweep_failure(call: str) -> str | None:
    """What is wrong with a SWEEP call, or None: with v = 10**10, 10**30,
    10**5000 and -10**5000 it must raise an engine error each time, in a
    capped child within 5 s."""
    program = (
        f"{_CAP}import json, sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import sliceshear as s\nfrom sliceshear.reps import _EngineError\n"
        "for v in (10**10, 10**30, 10**5000, -10**5000):\n"
        "    d = s.differential_to_obj(s.hhr_family(0, 1))\n"
        "    d['source']['norms'] = d['target']['norms'] = [[10**8, 1, 1]]\n"
        "    try:\n"
        f"        {call}\n"
        "        print('returned')\n"
        "    except _EngineError as e:\n"
        "        print(type(e).__name__)\n"
    )
    try:
        proc = cli([], str(ROOT), program, timeout=5)
    except subprocess.TimeoutExpired:
        return f"{call}: no exit within 5 s"
    got = proc.stdout.split()
    if proc.returncode or len(got) != 4 or "returned" in got:
        return f"{call}: exit {proc.returncode}, printed {got}, stderr {proc.stderr[-300:]!r}"
    return None


def json_failures() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from sliceshear import JsonSchemaError, export_json, hhr_family, import_json

    items = [hhr_family(n, i) for n in range(4) for i in range(1, 4)]
    items += [m for d in items for m in (d.source, d.target)]
    failures = [] if import_json(export_json(items)) == items else ["JSON round trip differs"]
    for text, want in BAD_JSON:
        try:
            import_json(text)
            got = "accepted"
        except JsonSchemaError as e:
            got = str(e)
        if got != want:
            failures.append(f"import_json({text}): got {got!r}, want {want!r}")
    return failures


def retained_after_json_round_trips() -> int:
    """Bytes still allocated after ``export_json``/``import_json`` round trips
    of monomials at levels 2044-2048, past any chart's and up to the group
    bound: the basis-name tables those levels build must not be kept."""
    sys.path.insert(0, str(ROOT / "src"))
    import tracemalloc
    from sliceshear import ClassMonomial, CyclicGroup, export_json, import_json

    def round_trips(levels) -> None:
        for n in levels:
            import_json(export_json([ClassMonomial(CyclicGroup(n), n, a_exp=(0,) * (n - 1) + (1,))]))

    round_trips([3, 100])  # first-call imports and compiled patterns are not counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        round_trips(range(2044, 2049))
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class _Int(int):
    """An int subclass, which the admission rule refuses like a bool or a float."""


def admission_checks() -> list:
    """(what is called, the call, its exception class or None, its exact text) for each check."""
    sys.path.insert(0, str(ROOT / "src"))
    import sliceshear as s

    page = s.differential_to_obj(s.hhr_family(1, 1))
    page["page"] = _Int(page["page"])
    huge = s.differential_to_obj(s.hhr_family(1, 1))
    huge["group"] = 10**30
    wide = s.differential_to_obj(s.hhr_family(0, 1))
    wide["source"]["norms"] = [[10**30, 1, 1]]
    c4, c8 = s.CyclicGroup(2), s.CyclicGroup(3)
    two_s, three_s = (s.VirtualRep.of(s.CyclicGroup(1), sigma=e) for e in (2, 3))
    # u2S -> Nt[1,1]*aL1*aS over C4: stem and filtration agree, the degree does not
    one = s.ClassMonomial(s.CyclicGroup(1), 1)
    skew = s.Differential(c4, 3, s.ClassMonomial(c4, 2, u_exp=(1,)),
                          s.ClassMonomial(c4, 2, 1, ((1, 1, 1),), (1, 1)))
    return [
        ("tau(V, True)", lambda: s.tau(s.VirtualRep.zero(s.CyclicGroup(3)), True),
         s.RepError, "tau index k must be an integer, got True"),
        ("shear_length(3, 1.0)", lambda: s.shear_length(3, 1.0),
         s.ShearError, "shear step k must be an integer, got 1.0"),
        ("hhr_family(1, 0)", lambda: s.hhr_family(1, 0),
         s.DifferentialError, "family index must be >= 1, got 0"),
        ("tower_report(1, 1.5)", lambda: s.tower_report(1, 1.5),
         s.ShearError, "tower index m must be an integer, got 1.5"),
        ("obj_to_differential(<int subclass page>)",
         lambda: s.obj_to_differential(page, "items[0]"),
         s.JsonSchemaError, "items[0].page: expected an integer, got 5"),
        # each returned its input, leaked a TypeError or an OverflowError
        ("unshear_length(1, 0)", lambda: s.unshear_length(1, 0),
         s.ShearError, "differential length must be >= 2, got 1"),
        ("rho_bar('1', 0)", lambda: s.rho_bar("1", 0),
         s.RepError, "rho_bar group index n+1 must be an integer, got '1'"),
        ("import_json(<group 10**30>)", lambda: s.import_json(json.dumps([huge])),
         s.JsonSchemaError, f"items[0].group: must be <= 2048, got {10**30}"),
        ("import_json(<norm index 10**30>)", lambda: s.import_json(json.dumps([wide])),
         s.JsonSchemaError, f"items[0].source.norms[0][0]: must be <= 2048, got {10**30}"),
        # None: the call returns the text; the largest group's order has 617 digits
        ("str(CyclicGroup(2048))", lambda: str(s.CyclicGroup(2048)), None, f"C{1 << 2048}"),
        ("CyclicGroup(2049)", lambda: s.CyclicGroup(2049),
         s.RepError, "group exponent must be <= 2048, got 2049"),
        # n and the group come from the grading
        ("vanishing_line(0 over C8, 4, 1)", lambda: s.vanishing_line(s.VirtualRep.zero(c8), 4, 1),
         None, s.Line(1, 26)),
        ("boundary_line(s over C4)", lambda: s.boundary_line(s.VirtualRep.of(c4, sigma=1)),
         None, s.Line(3, 3)),
        ("PermanentCycleFact(1, 2s, 'x').u_class",
         lambda: s.print_canonical(s.PermanentCycleFact(1, two_s, "x").u_class), None, "u2S"),
        ("PermanentCycleFact(1, 3s, 'x')", lambda: s.PermanentCycleFact(1, three_s, "x"),
         s.RepError, "3s is not orientable: odd sigma multiplicity"),
        # validate compares degree vectors and words a mismatch with representations
        ("validate(u2S -> Nt[1,1]*aL1*aS over C4)", lambda: s.validate(skew), None,
         ["degree mismatch: target degree 1-l1 is not source degree minus one trivial "
          "summand (1-2s)"]),
        # the output doors admit a hand-built chart by parse's rules
        ("emit_svg(<C8 chart with guide vanish h=2 k=0>)", lambda: s.emit_svg(s.ChartDocument(
            c8, s.VirtualRep.zero(c8), (0, 4, 4), guides=[s.GuideSpec("vanish", k=0, h=2)])),
         s.DslSemanticError, "height 2 is not a multiple of 2^2 for C8"),
        ("print_canonical(<chart with window (3, 0, 2)>)", lambda: s.print_canonical(
            s.ChartDocument(c4, s.VirtualRep.zero(c4), (3, 0, 2))),
         s.DslSemanticError, "degenerate window (3, 0, 2)"),
        # each leaked a bare ValueError or AttributeError
        ("Differential(10**5000, 2, m, m)", lambda: s.Differential(10**5000, 2, one, one),
         s.DifferentialError,
         "differential group must be a CyclicGroup, got an integer of more than 3000 digits"),
        ("VirtualRep(None, (0,))", lambda: s.VirtualRep(None, (0,)),
         s.RepError, "representation group must be a CyclicGroup, got None"),
    ]


def admission_failures(checks: list) -> list[str]:
    failures = []
    for shown, call, error, text in checks:
        try:
            got = (None, call())
        except Exception as e:  # the class and text are what is checked
            got = (type(e), str(e))
        if got != (error, text):
            failures.append(f"{shown}: got {got!r}, want {(error, text)!r}")
    return failures


def golden_failures() -> list[str]:
    """Both goldens parsed and rendered in process, cold and then warm."""
    sys.path.insert(0, str(ROOT / "src"))
    from sliceshear import dsl, parse
    from sliceshear.svg import emit_svg

    dsl._factor.cache_clear()
    failures = []
    for state in ("cold", "warm"):
        for golden in sorted(GOLDENS.glob("*.dsl")):
            svg = emit_svg(parse(golden.read_text(encoding="utf-8")))
            if svg != golden.with_suffix(".svg").read_bytes():
                failures.append(f"{golden.name}, {state} factor cache: output differs")
    return failures


def entry_failures() -> list[str]:
    """The script entry names a function of its module."""
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(ENTRY_MODULE)
    if callable(getattr(module, ENTRY, None)):
        return []
    return [f"[project.scripts] names {ENTRY_MODULE}:{ENTRY}, which is not a function"]


def reader_failures(commands: list[list[str]]) -> list[str]:
    """The flag-table reader takes README's commands and the READER forms
    marked True, as argparse reads them, and leaves the others to argparse."""
    sys.path.insert(0, str(ROOT / "src"))
    from sliceshear import cli

    failures = []
    cases = [(argv + extra, True) for argv in commands for extra in ([], ["--json"])]
    for argv, takes in cases + READER:
        args = cli._read(argv)
        if (args is not None) != takes:
            failures.append(f"reader {'declined' if takes else 'took'} {shlex.join(argv)}")
        elif args is not None and vars(args) != (want := vars(cli.build_parser().parse_args(argv))):
            failures.append(f"reader read {shlex.join(argv)} as {vars(args)}, argparse as {want}")
    return failures


def module_failures(cwd: str) -> list[str]:
    failures = []
    for argv, want in MODULES:
        proc = cli(argv, cwd, LOADED)
        names = proc.stderr.split()
        got = {m.removeprefix("sliceshear.") for m in names if m.startswith("sliceshear.")}
        unwanted = sorted({"dataclasses", "argparse"}.intersection(names))
        if proc.returncode or got != want or unwanted:
            failures.append(f"{shlex.join(argv)}: exit {proc.returncode}, loaded {sorted(got)}, "
                            f"want {sorted(want)}, and {unwanted}")
    return failures


def record_failures() -> list[str]:
    """The record contract of the engine's values, on this Python."""
    sys.path.insert(0, str(ROOT / "src"))
    import sliceshear as s

    d = s.hhr_family(1, 1)
    user = s.Differential(d.group, d.page, d.source, d.target)
    twin = s.VirtualRep(s.CyclicGroup(2), (1, -2, 3))
    rep = s.VirtualRep(group=s.CyclicGroup(exponent=2), coeffs=(1, -2, 3))
    failures = []
    if repr(rep) != "VirtualRep(group=CyclicGroup(exponent=2), coeffs=(1, -2, 3))":
        failures.append(f"repr(VirtualRep): got {rep!r}")
    if repr(s.GuideSpec("L", 1)) != "GuideSpec(kind='L', k=1, h=None)":
        failures.append(f"repr(GuideSpec): got {s.GuideSpec('L', 1)!r}")
    if not (rep == twin and hash(rep) == hash(twin) and rep != s.Line(1, 0)):
        failures.append("VirtualRep equality or hash differs from its fields'")
    if not (user == d and hash(user) == hash(d) and repr(user) != repr(d)):
        failures.append("Differential equality or hash reads its provenance")
    for value, field in ((rep, "coeffs"), (d, "provenance"), (s.Line(1, 0), "slope")):
        try:
            setattr(value, field, None)
            failures.append(f"{type(value).__name__}.{field} was assigned")
        except AttributeError:
            pass
    return failures


def main() -> int:
    checks = admission_checks()
    failures = entry_failures() + json_failures() + admission_failures(checks)
    failures += record_failures()
    if (kept := retained_after_json_round_trips()) >= 64 * 1024:
        failures.append(f"JSON round trips at levels 2044-2048 kept {kept} bytes")
    failures += golden_failures()
    commands = readme_commands()
    if not commands:
        failures.append("README.md names no sliceshear command")
    failures += reader_failures(commands)
    with tempfile.TemporaryDirectory() as tmp:
        pathlib.Path(tmp, "chart.dsl").write_text(CHART)
        for argv in commands:
            for extra in ([], ["--json"]):
                proc = cli(argv + extra, tmp)
                shown = shlex.join(["sliceshear", *argv, *extra])
                if proc.returncode or proc.stderr or not proc.stdout.strip():
                    failures.append(f"{shown}: exit {proc.returncode}, stderr {proc.stderr!r}")
                elif extra:
                    try:
                        json.loads(proc.stdout)
                    except ValueError as e:
                        failures.append(f"{shown}: output is not JSON ({e})")
        failures += module_failures(tmp)
        for golden in sorted(GOLDENS.glob("*.dsl")):
            out = pathlib.Path(tmp, golden.stem + ".svg")
            proc = cli(["chart", str(golden), "-o", str(out)], tmp)
            want = golden.with_suffix(".svg").read_bytes()
            if proc.returncode or not out.exists() or out.read_bytes() != want:
                failures.append(f"chart {golden.name}: output differs from {golden.stem}.svg")
        for dsl, argv, code, kind, line, col in ERRORS:
            if dsl is not None:
                pathlib.Path(tmp, "bad.dsl").write_text(dsl)
            proc = cli(argv, tmp)
            try:
                err = json.loads(proc.stderr)["error"]
                got = (proc.returncode, err["kind"], err.get("line"), err.get("col"))
            except (ValueError, KeyError, TypeError):
                got = (proc.returncode, proc.stderr)
            if got != (code, kind, line, col):
                failures.append(f"{shlex.join(argv)} ({dsl!r}): got {got}, "
                                f"want {(code, kind, line, col)}")
        failures += [f for dsl, argv in LIMITS if (f := limit_failure(dsl, argv, tmp))]
        failures += [
            f for dsl, argv in POWERS if (f := limit_failure(dsl, argv, tmp, NO_DIGIT_LIMIT))
        ]
    failures += [f for call in SWEEP if (f := sweep_failure(call))]
    print(f"python {sys.version.split()[0]}: {len(commands)} README commands, "
          f"{len(list(GOLDENS.glob('*.dsl')))} goldens (CLI, and in process cold and warm), "
          f"{len(ERRORS)} error examples, {len(LIMITS)} inputs past a bound "
          f"({len(POWERS)} also with no int/str digit limit), "
          f"{len(SWEEP)} library calls at 10**10, 10**30 and +-10**5000, "
          f"{len(BAD_JSON)} malformed JSON objects, {len(checks)} admission checks, "
          f"{len(READER)} more argv forms for the reader, "
          f"{len(MODULES)} module sets, {len(failures)} failures")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
