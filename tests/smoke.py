"""A stdlib-only smoke test of the CLI.

It runs every ``sliceshear`` command in README.md, in human form and with
``--json``, each in a fresh isolated interpreter, and checks that each exits 0
with output and nothing on stderr, and that each ``--json`` output is JSON.
It then renders the two SVG goldens with ``sliceshear chart`` and compares
them byte for byte, and runs README's four documented error examples, checking
each exit code and the ``kind``, ``line`` and ``col`` of the JSON error object
on stderr.  In process, it round-trips the HHR families through JSON, which
builds every monomial through the unchecked constructor, and checks the exact
error text for three malformed objects.  Last, it hands a few public calls a
bool, a float, an int subclass or an out-of-range int, and checks the exact
exception class and text of each, so the engine's one admission rule runs on
every supported Python; three inputs that once slipped past the engine's
errors and the 14,284/14,285 edge where a group name stops printing its order
are checked the same way, and so are the calls that read n and the group
from the grading: ``vanishing_line``, ``boundary_line`` and a permanent-cycle
fact.  So are a JSON norm index too large to build 2^i from and the exact
text of a degree mismatch that ``validate`` reports.  The goldens are also
rendered through the library twice in this process, first with the DSL's
factor cache emptied and then with it warm, and both must be byte-identical.
Two one-shot calls, ``rep dim`` and human-output ``hhr``, must load exactly
their engine modules, and neither may load ``dataclasses``.  The engine's values keep
the record contract of their plain base class: the repr they printed as
dataclasses, equality and hash over their fields (a differential's
provenance left out), and no assignment.  It needs no pytest, so it runs on
any Python 3.10+:

    python3 tests/smoke.py    (from the repository root)

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
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
# malformed JSON monomials and the exact JsonSchemaError text of each
BAD_JSON = [
    ('[{"group": 1, "level": 1, "coeff": 1, "norms": [[1, 2, 1]], "a": {}, "u": {}}]',
     "items[0]: norm factor (1, 2) out of range at level 1"),
    ('[{"group": 2, "level": 2, "coeff": 1, "norms": [], "a": {}, "u": {"l2": 1}}]',
     "items[0].u.l2: basis slot out of range at level 2"),
    ('[{"group": 1, "page": 3, "source": {"group": 1, "level": 1, "coeff": true}}]',
     "items[0].source.coeff: expected an integer, got True"),
]
MAIN = (
    f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
    "from sliceshear.cli import main; sys.exit(main())"
)
# MAIN that also prints the names of the loaded modules to stderr
LOADED = (
    f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); from sliceshear.cli import main; "
    "code = main(); print(*sys.modules, file=sys.stderr); sys.exit(code)"
)
# one-shot calls and the engine modules each loads (cli and reps always do)
MODULES = [
    (["rep", "dim", "--group", "C8", "--V", "2-2s"], {"cli", "reps"}),
    (["hhr", "--n", "1", "--i", "1"], {"cli", "reps", "differentials", "dsl", "monomials"}),
]


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("sliceshear ")]


def cli(argv: list[str], cwd: str, program: str = MAIN) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-I", "-B", "-c", program, *argv],
        cwd=cwd, capture_output=True, text=True, timeout=60,
    )


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
         s.JsonSchemaError, "items[0]: endpoint group mismatch: source over C4, target over "
         f"C4, differential over C_(2^{10**30})"),
        ("import_json(<norm index 10**30>)", lambda: s.import_json(json.dumps([wide])),
         s.JsonSchemaError, "items[0]: invalid differential: too many digits in integer"),
        # None: the call returns the text; 2^14284 has 4,300 digits, 2^14285 4,301
        ("str(CyclicGroup(14284))", lambda: str(s.CyclicGroup(14284)), None, f"C{1 << 14284}"),
        ("str(CyclicGroup(14285))", lambda: str(s.CyclicGroup(14285)), None, "C_(2^14285)"),
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


def module_failures(cwd: str) -> list[str]:
    failures = []
    for argv, want in MODULES:
        proc = cli(argv, cwd, LOADED)
        names = proc.stderr.split()
        got = {m.removeprefix("sliceshear.") for m in names if m.startswith("sliceshear.")}
        if proc.returncode or got != want or "dataclasses" in names:
            failures.append(f"{shlex.join(argv)}: exit {proc.returncode}, loaded {sorted(got)}, "
                            f"want {sorted(want)}, dataclasses {'dataclasses' in names}")
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
    failures = json_failures() + admission_failures(checks) + record_failures()
    failures += golden_failures()
    commands = readme_commands()
    if not commands:
        failures.append("README.md names no sliceshear command")
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
    print(f"python {sys.version.split()[0]}: {len(commands)} README commands, "
          f"{len(list(GOLDENS.glob('*.dsl')))} goldens (CLI, and in process cold and warm), "
          f"{len(ERRORS)} error examples, "
          f"{len(BAD_JSON)} malformed JSON objects, {len(checks)} admission checks, "
          f"{len(MODULES)} module sets, {len(failures)} failures")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
