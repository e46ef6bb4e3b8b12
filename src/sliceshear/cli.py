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
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings

from .reps import _MAX_EXPONENT, CyclicGroup, DslError, _admit, _EngineError, line_L, tau
from .reps import parse_group_name, parse_rep

__all__ = ["main", "run", "build_parser"]


class _CliFailure(_EngineError):
    """A usage or file error; ``kind`` is "usage" or "io"."""

    code = 1

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on usage problems; the documented usage code is 1
    def error(self, message):
        raise _CliFailure("usage", message)


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


def _handle_vanishing(args) -> tuple[str, dict]:
    from .vanishing import N_constant, VanishingProfile, max_length
    _admit(args.n, "profile index n", 0, _MAX_EXPONENT - 1)
    group = CyclicGroup(args.n + 1)
    V = parse_rep(args.V, group)
    VanishingProfile(args.n, args.h, V)  # validates h against n
    rows = []
    for k in range(args.n + 1):
        line, N = line_L(V, k), N_constant(args.h, args.n, k)
        rows.append({"k": k, "slope": line.slope, "tau": line.intercept, "N": N,
                     "max_length": max_length(args.h, args.n, k)})
    text = "\n".join("  ".join(f"{key}={value}" for key, value in row.items()) for row in rows)
    return text, {"vanishing": rows}


def _handle_check(args) -> tuple[str, dict]:
    from .dsl import parse_diff_spec
    from .vanishing import VanishingProfile, admissible
    _admit(args.n, "profile index n", 0, _MAX_EXPONENT - 1)
    group = CyclicGroup(args.n + 1)
    V = parse_rep(args.V, group)
    profile = VanishingProfile(args.n, args.h, V)
    d = parse_diff_spec(args.diff, group)
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


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sliceshear",
        description="Exact shearing engine for slice spectral sequence charts "
        "over cyclic 2-groups.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("rep", help="representation arithmetic")
    p.add_argument("op", choices=["dim", "fixed", "restrict", "tau", "lines"])
    p.add_argument("--group", "-g", required=True, help="ambient group, e.g. C8")
    p.add_argument("--V", required=True, help="representation literal, e.g. 2-2s")
    p.add_argument("--k", type=int, help="subgroup index for fixed/tau")
    p.add_argument("--m", type=int, help="subgroup index for restrict")
    p.set_defaults(handler=_handle_rep)

    p = sub.add_parser("shear", help="bidegree transform between chart pages")
    p.add_argument("--n", type=int, required=True, help="target group is C_(2^(n+1))")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--V", required=True, help="grading over the target group")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(handler=_handle_shear)

    p = sub.add_parser("correspond", help="transport a class up the tower")
    p.add_argument("expr", help="class expression over the source group")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group", "-g", required=True, help="source group, e.g. C2")
    p.add_argument("--level", help="source class level, e.g. C2 (default: top)")
    p.add_argument("--V", default="0", help="grading over the target group (default 0)")
    p.set_defaults(handler=_handle_correspond)

    p = sub.add_parser("tower", help="tower of shearing isomorphism regions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="height index, h = 2^n * m")
    p.add_argument("--V", default="0", help="grading over C_(2^(n+1)) (default 0)")
    p.set_defaults(handler=_handle_tower)

    p = sub.add_parser("hhr", help="slice differential family over C_(2^(n+1))")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(handler=_handle_hhr)

    p = sub.add_parser("transport", help="shear a differential up the tower")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group", "-g", required=True, help="source group, e.g. C2")
    p.add_argument("--diff", required=True, help="'<r>: <source> -> <target>'")
    p.add_argument("--V", help="grading over the target group (default: source degree)")
    p.set_defaults(handler=_handle_transport)

    p = sub.add_parser("vanishing", help="vanishing line table")
    p.add_argument("--h", type=int, required=True, help="chromatic height, 2^n * m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--V", default="0", help="grading over C_(2^(n+1)) (default 0)")
    p.set_defaults(handler=_handle_vanishing)

    p = sub.add_parser("check", help="admissibility report for a differential")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diff", required=True, help="'<r>: <source> -> <target>'")
    p.add_argument("--V", default="0", help="grading over C_(2^(n+1)) (default 0)")
    p.set_defaults(handler=_handle_check)

    p = sub.add_parser("chart", help="render a chart DSL file to SVG")
    p.add_argument("input", help="path to the .dsl file")
    p.add_argument("-o", "--output", required=True, help="path of the SVG to write")
    p.set_defaults(handler=_handle_chart)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit a JSON payload")
    return parser


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
        args = build_parser().parse_args(argv)
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
