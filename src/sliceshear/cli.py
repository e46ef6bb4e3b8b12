"""Command-line interface.

Every subcommand accepts ``--json`` to switch the human output to a JSON
payload.  Set ``SLICESHEAR_COLOR=1`` to colorize human output.  A failure
prints one JSON error object, ``{"error": {"code", "kind", "message"}}``, to
stderr, adding ``"line"`` and ``"col"`` when a DSL or literal error knows
them; every ``chart`` error on a line has both.  The error's class gives its
exit code and kind:

- 0: success
- 1: ``usage`` (bad flags), ``io`` (a file cannot be read or written) or
  ``internal`` (any other exception, as ``"<ExcType>: <text>"``)
- 2: ``parse`` (DSL or literal syntax)
- 3: ``semantic`` (every other engine error)

``python -m sliceshear.cli`` and the installed ``sliceshear`` script both run
``run()``: it calls ``main()`` on ``sys.argv`` and then, on every way out
(``--help``'s ``SystemExit`` too), freezes the cyclic collector with
``gc.freeze()``.  Interpreter shutdown then skips the collector's walk over
every object the process still holds, whose memory goes back to the system
anyway; atexit handlers, stream flushes and reference-count teardown still
run.  ``main(argv)`` itself has no such process-wide effect, so it can be
called in process.

The flags are declared once, in the table ``_commands()``.  ``main`` reads a
call in its plain form straight from that table: the subcommand, exact flag
names as ``--flag value``, ``--flag=value`` or ``-g value``, each flag once.
Every other argv goes to ``build_parser()``, the only code that imports
``argparse``, so argparse loads only for help, usage errors and the argv
forms the reader leaves to it (abbreviations, ``--``, a value that starts
with ``-``, a repeated flag), and writes every help text and usage error.
"""

from __future__ import annotations

import gc
import os
import re
import sys
import warnings
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .reps import _DIGITS_CAP, _MAX_DIGITS, _MAX_EXPONENT, CyclicGroup, DslError, _admit, _bounded
from .reps import _EngineError, line_L, parse_group_name, parse_rep, tau

if TYPE_CHECKING:
    import argparse

__all__ = ["main", "run", "build_parser"]


class _CliFailure(_EngineError):
    """A usage or file error; ``kind`` is "usage" or "io"."""

    code = 1

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _color(text: str, code: str) -> str:
    if os.environ.get("SLICESHEAR_COLOR") == "1":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


# -- handlers -----------------------------------------------------------------
#
# Each handler imports the modules it needs beyond ``reps``, so a one-shot
# call loads only those.  A payload holds the engine's monomials and
# differentials as they are: ``main`` prints it with ``json.dumps``, whose
# ``default=`` hook converts them through ``jsonio``, only under ``--json``.

_REP_FLAG = {"fixed": "k", "restrict": "m", "tau": "k"}  # the flag each op needs


def _handle_rep(args) -> tuple[str, dict]:
    group = parse_group_name(args.group)
    V = parse_rep(args.V, group)
    flag = _REP_FLAG.get(args.op)
    if flag and getattr(args, flag) is None:
        raise _CliFailure("usage", f"rep {args.op} requires --{flag}")
    if args.op == "dim":
        return str(V.dimension), {"dimension": V.dimension}
    if args.op == "tau":
        value = tau(V, args.k)
        return str(value), {"tau": value}
    if args.op != "lines":
        W = V.fixed_points(args.k) if args.op == "fixed" else V.restrict(args.m)
        return f"{W} over {W.group}", {"rep": str(W), "group": W.group.exponent}
    lines = [line_L(V, k) for k in range(group.exponent + 1)]
    rows = [
        f"k={k}  slope={line.slope}  tau={line.intercept}  {line.equation()}"
        for k, line in enumerate(lines)
    ]
    payload = [
        {"k": k, "slope": line.slope, "tau": line.intercept, "intercept": str(line.intercept)}
        for k, line in enumerate(lines)
    ]
    return "\n".join(rows), {"lines": payload}


def _handle_shear(args) -> tuple[str, dict]:
    from .shearing import ShearContext, ShearError, shear_degree
    _admit(args.n, "target group index n", 0, _MAX_EXPONENT - 1, error=ShearError)
    target = CyclicGroup(args.n + 1)
    _admit(args.k, "shear step k", 0, args.n, f"n={args.n}", ShearError)
    V = parse_rep(args.V, target)
    ctx = ShearContext(CyclicGroup(args.n + 1 - args.k), args.k, V)
    t_prime, s_prime = shear_degree(ctx, args.t, args.s)
    return f"(t', s') = ({t_prime}, {s_prime})", {"t_prime": t_prime, "s_prime": s_prime}


def _handle_correspond(args) -> tuple[str, dict]:
    from .dsl import parse_class_expr, print_canonical
    from .shearing import ShearContext, correspond_class, region_of
    source_group = parse_group_name(args.group)
    level = None if args.level is None else parse_group_name(args.level).exponent
    m = parse_class_expr(args.expr, source_group, level)
    target = ShearContext.lift(source_group, args.k).target_group
    ctx = ShearContext(source_group, args.k, parse_rep(args.V, target))
    out = correspond_class(m, ctx)
    region = region_of(m, ctx)
    text = canonical = print_canonical(out)
    if region == "boundary":
        text += "\nnote: source lies on the isomorphism boundary; matched only if it survives localization"
    elif region == "outside":
        text += "\nnote: source lies outside the proven isomorphism region"
    return text, {"class": out, "canonical": canonical, "region": region}


def _handle_tower(args) -> tuple[str, dict]:
    from .shearing import tower_report
    # without a grading, tower_report words an n out of range before any group is built
    V = parse_rep(args.V, CyclicGroup(args.n + 1)) if 0 <= args.n < _MAX_EXPONENT else None
    entries = tower_report(args.n, args.m, V)
    rows = [
        f"k={e.k}  {e.line.equation()}  C={e.threshold}  ->  {e.target_group} "
        f"at height {e.target_height}"
        for e in entries
    ]
    payload = [
        {
            "k": e.k,
            "slope": e.line.slope,
            "intercept": str(e.line.intercept),
            "threshold": str(e.threshold),
            "target_group": e.target_group.exponent,
            "target_height": e.target_height,
        }
        for e in entries
    ]
    return "\n".join(rows), {"tower": payload}


def _handle_hhr(args) -> tuple[str, dict]:
    from .differentials import hhr_family
    from .dsl import print_canonical
    d = hhr_family(args.n, args.i)
    return print_canonical(d), {"differential": d}


def _handle_transport(args) -> tuple[str, dict]:
    from .differentials import transport
    from .dsl import parse_diff_spec, print_canonical
    from .shearing import ShearContext
    source_group = parse_group_name(args.group)
    d = parse_diff_spec(args.diff, source_group)
    target = ShearContext.lift(source_group, args.k).target_group
    grading = None if args.V is None else parse_rep(args.V, target)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = transport(d, args.k, grading)
    notes = [str(w.message) for w in caught]
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    return print_canonical(out), {"differential": out, "warnings": notes}


def _profile(args):
    from .vanishing import VanishingProfile
    _admit(args.n, "profile index n", 0, _MAX_EXPONENT - 1)
    return VanishingProfile(args.n, args.h, parse_rep(args.V, CyclicGroup(args.n + 1)))


def _handle_vanishing(args) -> tuple[str, dict]:
    from .vanishing import N_constant, max_length
    V = _profile(args).grading  # validates h against n
    rows = []
    for k in range(args.n + 1):
        line, N = line_L(V, k), N_constant(args.h, args.n, k)
        rows.append({"k": k, "slope": line.slope, "tau": line.intercept, "N": N,
                     "max_length": max_length(args.h, args.n, k)})
    text = "\n".join("  ".join(f"{key}={value}" for key, value in row.items()) for row in rows)
    return text, {"vanishing": rows}


def _handle_check(args) -> tuple[str, dict]:
    from .dsl import parse_diff_spec
    from .vanishing import admissible
    profile = _profile(args)
    d = parse_diff_spec(args.diff, profile.group)
    violations = admissible(d, profile)
    if not violations:
        return _color("ok", "32"), {"admissible": True, "violations": []}
    rows = [_color(str(v), "31") for v in violations]
    payload = [{"k": v.k, "clause": v.clause, "message": v.message} for v in violations]
    return "\n".join(rows), {"admissible": False, "violations": payload}


def _handle_chart(args) -> tuple[str, dict]:
    from .dsl import parse
    from .svg import emit_svg
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _CliFailure("io", f"cannot read {args.input}: {e}")
    doc = parse(text)
    data = emit_svg(doc)
    try:
        with open(args.output, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise _CliFailure("io", f"cannot write {args.output}: {e}")
    return f"wrote {args.output} ({len(data)} bytes)", {
        "output": args.output,
        "bytes": len(data),
        "classes": len(doc.classes),
        "differentials": len(doc.diffs),
    }


# -- flags --------------------------------------------------------------------
#
# One row per subcommand: (handler, help, positionals, flags).  A positional is
# (dest, choices or None, help); a flag is (names, dest, type, default, help),
# with default ``...`` for a required flag.  ``build_parser`` builds argparse's
# parser from this table, and ``_read`` reads the plain form of a call from it.

_V_HELP = "grading over C_(2^(n+1)) (default 0)"
_DIFF = (("--diff",), "diff", str, ..., "'<r>: <source> -> <target>'")


def _commands() -> dict:
    """The table, built on each call: a row holds the handler this module names
    when the call is read, so a test can replace one."""
    return {
        "rep": (_handle_rep, "representation arithmetic",
                (("op", ("dim", "fixed", "restrict", "tau", "lines"), None),),
                ((("--group", "-g"), "group", str, ..., "ambient group, e.g. C8"),
                 (("--V",), "V", str, ..., "representation literal, e.g. 2-2s"),
                 (("--k",), "k", int, None, "subgroup index for fixed/tau"),
                 (("--m",), "m", int, None, "subgroup index for restrict"))),
        "shear": (_handle_shear, "bidegree transform between chart pages", (),
                  ((("--n",), "n", int, ..., "target group is C_(2^(n+1))"),
                   (("--k",), "k", int, ..., None),
                   (("--V",), "V", str, ..., "grading over the target group"),
                   (("--t",), "t", int, ..., None),
                   (("--s",), "s", int, ..., None))),
        "correspond": (_handle_correspond, "transport a class up the tower",
                       (("expr", None, "class expression over the source group"),),
                       ((("--k",), "k", int, ..., None),
                        (("--group", "-g"), "group", str, ..., "source group, e.g. C2"),
                        (("--level",), "level", str, None,
                         "source class level, e.g. C2 (default: top)"),
                        (("--V",), "V", str, "0", "grading over the target group (default 0)"))),
        "tower": (_handle_tower, "tower of shearing isomorphism regions", (),
                  ((("--n",), "n", int, ..., None),
                   (("--m",), "m", int, ..., "height index, h = 2^n * m"),
                   (("--V",), "V", str, "0", _V_HELP))),
        "hhr": (_handle_hhr, "slice differential family over C_(2^(n+1))", (),
                ((("--n",), "n", int, ..., None), (("--i",), "i", int, ..., None))),
        "transport": (_handle_transport, "shear a differential up the tower", (),
                      ((("--k",), "k", int, ..., None),
                       (("--group", "-g"), "group", str, ..., "source group, e.g. C2"),
                       _DIFF,
                       (("--V",), "V", str, None,
                        "grading over the target group (default: source degree)"))),
        "vanishing": (_handle_vanishing, "vanishing line table", (),
                      ((("--h",), "h", int, ..., "chromatic height, 2^n * m"),
                       (("--n",), "n", int, ..., None),
                       (("--V",), "V", str, "0", _V_HELP))),
        "check": (_handle_check, "admissibility report for a differential", (),
                  ((("--h",), "h", int, ..., None),
                   (("--n",), "n", int, ..., None),
                   _DIFF,
                   (("--V",), "V", str, "0", _V_HELP))),
        "chart": (_handle_chart, "render a chart DSL file to SVG",
                  (("input", None, "path to the .dsl file"),),
                  ((("-o", "--output"), "output", str, ..., "path of the SVG to write"),)),
    }


# an int flag's text as int() reads it: a sign, then decimal digits with single
# underscores between them, with whitespace around; compiled on first use, as
# only a text of more than 3,000 characters is matched
_INT_TEXT = r"\s*[+-]?\d(?:_?\d)*\s*"


def _integer(text: str) -> int:
    """``int(text)`` for an int flag, read the same under any int/str digit
    limit: a literal of more than 3,000 digits reads as -10**3000 or 10**3000,
    the least past the bound, which ``main`` refuses with the flag's name."""
    if (
        len(text) > _MAX_DIGITS
        and re.fullmatch(_INT_TEXT, text)
        and sum(map(str.isdecimal, text)) > _MAX_DIGITS
    ):
        return -_DIGITS_CAP if "-" in text else _DIGITS_CAP
    return int(text)


_integer.__name__ = "int"  # argparse words a bad value "invalid int value", as for int


def build_parser() -> argparse.ArgumentParser:
    """argparse's parser for the table: the one writer of help and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse would exit(2) on usage problems; the documented usage code is 1
        def error(self, message):
            raise _CliFailure("usage", message)

    parser = _Parser(
        prog="sliceshear",
        description="Exact shearing engine for slice spectral sequence charts "
        "over cyclic 2-groups.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True
    for command, (handler, about, positionals, flags) in _commands().items():
        p = sub.add_parser(command, help=about)
        for dest, choices, about in positionals:
            p.add_argument(dest, choices=choices, help=about)
        for names, dest, kind, default, about in flags:
            kind = _integer if kind is int else kind
            if default is ...:
                p.add_argument(*names, dest=dest, type=kind, required=True, help=about)
            else:
                p.add_argument(*names, dest=dest, type=kind, default=default, help=about)
        p.add_argument("--json", action="store_true", help="emit a JSON payload")
        p.set_defaults(handler=handler)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns for a call in the plain
    form, read from the table without argparse: a subcommand, then its
    positionals, exact flag names as ``--flag value``, ``--flag=value`` or
    ``-g value``, each flag and ``--json`` at most once, every required flag,
    ints that ``_integer`` reads and valid choices.  None for any other argv,
    which argparse reads: help, usage errors, abbreviations, ``--``, values
    that start with ``-`` and the forms whose rules differ between versions."""
    row = _commands().get(argv[0]) if argv else None
    if row is None:
        return None
    handler, _, positionals, flags = row
    named = {name: flag for flag in flags for name in flag[0]}
    values, given, rest = {"json": False}, [], iter(argv[1:])
    for arg in rest:
        if arg[:1] != "-":
            given.append(arg)
        elif arg == "--json" and not values["json"]:
            values["json"] = True
        else:
            name, eq, value = arg.partition("=")
            flag = named.get(name)
            if flag is None or (eq and name[:2] != "--") or flag[1] in values:
                return None
            if not eq:
                value = next(rest, "-")  # no value, or one argparse may read as a flag
                if value[:1] == "-":
                    return None
            if flag[2] is int:
                try:
                    value = _integer(value)
                except ValueError:
                    return None
            values[flag[1]] = value
    if len(given) != len(positionals):
        return None
    for (dest, choices, _), value in zip(positionals, given):
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for _, dest, _, default, _ in flags:
        if dest not in values:
            if default is ...:
                return None
            values[dest] = default
    return SimpleNamespace(command=argv[0], handler=handler, **values)


def _engine_obj(value) -> dict:
    """``json.dumps``'s ``default=`` hook: a payload's monomial or differential
    as the object ``export_json`` writes for it."""
    from .differentials import Differential
    from .jsonio import differential_to_obj, monomial_to_obj
    if isinstance(value, Differential):
        return differential_to_obj(value)
    return monomial_to_obj(value)


def main(argv: list[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _read(argv) or build_parser().parse_args(argv)
        for _, dest, kind, _, _ in _commands()[args.command][3]:
            if kind is int and getattr(args, dest) is not None:
                _bounded(getattr(args, dest), what=dest)  # refused whichever reader read it
        text, payload = args.handler(args)
        if args.json:
            import json
            text = json.dumps(payload, indent=2, default=_engine_obj)
        print(text)
        return 0
    except _EngineError as e:
        err = {"code": e.code, "kind": e.kind}
        err["message"] = e.reason if isinstance(e, DslError) else str(e)
        for key in ("line", "col"):
            if getattr(e, key, None) is not None:
                err[key] = getattr(e, key)
    except Exception as e:  # last resort: no failure leaves as a traceback
        err = {"code": 1, "kind": "internal", "message": f"{type(e).__name__}: {e}"}
    import json
    print(json.dumps({"error": err}), file=sys.stderr)
    return err["code"]


def run() -> int:
    """The program: ``main()`` on ``sys.argv``, then the collector frozen
    for the shutdown that follows; returns ``main``'s exit code."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
