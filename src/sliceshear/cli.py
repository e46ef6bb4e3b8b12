"""Command-line interface.

Every subcommand accepts ``--json`` to switch the human output to a JSON
payload.  Exit codes: 0 success, 1 usage, 2 DSL/literal parse error,
3 semantic error.  Failures print a machine-readable JSON error object to
stderr.  Set ``SLICESHEAR_COLOR=1`` to colorize human output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .reps import (
    CyclicGroup, DslSemanticError, DslSyntaxError, _EngineError, line_L, parse_group_name,
    parse_rep, tau,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3


class _CliFailure(Exception):
    def __init__(self, code: int, kind: str, message: str):
        self.code = code
        self.kind = kind
        self.message = message
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on usage problems; the documented usage code is 1
    def error(self, message):
        raise _CliFailure(EXIT_USAGE, "usage", message)


def _color(text: str, code: str) -> str:
    if os.environ.get("SLICESHEAR_COLOR") == "1":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _require(parser_name: str, **needed):
    for flag, value in needed.items():
        if value is None:
            raise _CliFailure(
                EXIT_USAGE, "usage", f"{parser_name} requires --{flag}"
            )


# -- handlers -----------------------------------------------------------------
#
# Each handler imports the modules it needs beyond ``reps``, so a one-shot
# call loads only those.


def _handle_rep(args) -> tuple[str, dict]:
    group = parse_group_name(args.group)
    V = parse_rep(args.V, group)
    if args.op == "dim":
        return str(V.dimension), {"dimension": V.dimension}
    if args.op == "fixed":
        _require("rep fixed", k=args.k)
        W = V.fixed_points(args.k)
    if args.op == "restrict":
        _require("rep restrict", m=args.m)
        W = V.restrict(args.m)
    if args.op in ("fixed", "restrict"):
        return f"{W} over {W.group}", {"rep": str(W), "group": W.group.exponent}
    if args.op == "tau":
        _require("rep tau", k=args.k)
        value = tau(V, args.k)
        return str(value), {"tau": value}
    rows = []
    payload = []
    for k in range(group.exponent + 1):
        line = line_L(V, k)
        t = line.intercept
        rows.append(f"k={k}  slope={line.slope}  tau={t}  {line.equation()}")
        payload.append(
            {
                "k": k,
                "slope": line.slope,
                "tau": t,
                "intercept": str(line.intercept),
            }
        )
    return "\n".join(rows), {"lines": payload}


def _handle_shear(args) -> tuple[str, dict]:
    from .shearing import ShearContext, ShearError, shear_degree
    target = CyclicGroup(args.n + 1)
    if not 0 <= args.k <= args.n:
        raise ShearError(f"shear step k={args.k} out of range for n={args.n}")
    V = parse_rep(args.V, target)
    ctx = ShearContext(CyclicGroup(args.n + 1 - args.k), target, args.k, V)
    t_prime, s_prime = shear_degree(ctx, args.t, args.s)
    return (
        f"(t', s') = ({t_prime}, {s_prime})",
        {"t_prime": t_prime, "s_prime": s_prime},
    )


def _handle_correspond(args) -> tuple[str, dict]:
    from .dsl import parse_class_expr, print_canonical
    from .jsonio import monomial_to_obj
    from .shearing import ShearContext, correspond_class, region_of
    source_group = parse_group_name(args.group)
    level = None if args.level is None else parse_group_name(args.level).exponent
    m = parse_class_expr(args.expr, source_group, level)
    target = CyclicGroup(source_group.exponent + args.k)
    ctx = ShearContext(source_group, target, args.k, parse_rep(args.V, target))
    out = correspond_class(m, ctx)
    region = region_of(m, ctx)
    text = print_canonical(out)
    if region == "boundary":
        text += "\nnote: source lies on the isomorphism boundary; matched only if it survives localization"
    elif region == "outside":
        text += "\nnote: source lies outside the proven isomorphism region"
    return text, {
        "class": monomial_to_obj(out),
        "canonical": print_canonical(out),
        "region": region,
    }


def _handle_tower(args) -> tuple[str, dict]:
    from .shearing import tower_report
    group = CyclicGroup(args.n + 1)
    entries = tower_report(args.n, args.m, parse_rep(args.V, group))
    rows = []
    payload = []
    for e in entries:
        rows.append(
            f"k={e.k}  {e.line.equation()}  C={e.threshold}  ->  {e.target_group} "
            f"at height {e.target_height}"
        )
        payload.append(
            {
                "k": e.k,
                "slope": e.line.slope,
                "intercept": str(e.line.intercept),
                "threshold": str(e.threshold),
                "target_group": e.target_group.exponent,
                "target_height": e.target_height,
            }
        )
    return "\n".join(rows), {"tower": payload}


def _handle_hhr(args) -> tuple[str, dict]:
    from .differentials import hhr_family
    from .dsl import print_canonical
    from .jsonio import differential_to_obj
    d = hhr_family(args.n, args.i)
    return print_canonical(d), {"differential": differential_to_obj(d)}


def _handle_transport(args) -> tuple[str, dict]:
    from .differentials import transport
    from .dsl import parse_diff_spec, print_canonical
    from .jsonio import differential_to_obj
    source_group = parse_group_name(args.group)
    d = parse_diff_spec(args.diff, source_group)
    target = CyclicGroup(source_group.exponent + args.k)
    grading = None if args.V is None else parse_rep(args.V, target)
    notes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = transport(d, args.k, grading)
    for w in caught:
        notes.append(str(w.message))
        print(f"warning: {w.message}", file=sys.stderr)
    text = print_canonical(out)
    return text, {"differential": differential_to_obj(out), "warnings": notes}


def _handle_vanishing(args) -> tuple[str, dict]:
    from .vanishing import N_constant, VanishingProfile, max_length
    group = CyclicGroup(args.n + 1)
    V = parse_rep(args.V, group)
    VanishingProfile(args.n, args.h, V)  # validates h against n
    rows = []
    payload = []
    for k in range(args.n + 1):
        slope = (1 << k) - 1
        nk = N_constant(args.h, args.n, k)
        bound = max_length(args.h, args.n, k)
        t = tau(V, k)
        rows.append(f"k={k}  slope={slope}  tau={t}  N={nk}  max_length={bound}")
        payload.append(
            {
                "k": k,
                "slope": slope,
                "tau": t,
                "N": nk,
                "max_length": bound,
            }
        )
    return "\n".join(rows), {"vanishing": payload}


def _handle_check(args) -> tuple[str, dict]:
    from .dsl import parse_diff_spec
    from .vanishing import VanishingProfile, admissible
    group = CyclicGroup(args.n + 1)
    V = parse_rep(args.V, group)
    profile = VanishingProfile(args.n, args.h, V)
    d = parse_diff_spec(args.diff, group)
    violations = admissible(d, profile)
    if not violations:
        return _color("ok", "32"), {"admissible": True, "violations": []}
    rows = [_color(str(v), "31") for v in violations]
    payload = [
        {"k": v.k, "clause": v.clause, "message": v.message} for v in violations
    ]
    return "\n".join(rows), {"admissible": False, "violations": payload}


def _handle_chart(args) -> tuple[str, dict]:
    from .dsl import parse
    from .svg import emit_svg
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _CliFailure(EXIT_USAGE, "io", f"cannot read {args.input}: {e}")
    doc = parse(text)
    data = emit_svg(doc)
    try:
        with open(args.output, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise _CliFailure(EXIT_USAGE, "io", f"cannot write {args.output}: {e}")
    return (
        f"wrote {args.output} ({len(data)} bytes)",
        {
            "output": args.output,
            "bytes": len(data),
            "classes": len(doc.classes),
            "differentials": len(doc.diffs),
        },
    )


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sliceshear",
        description="Exact shearing engine for slice spectral sequence charts "
        "over cyclic 2-groups.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON payload")

    p = sub.add_parser("rep", help="representation arithmetic")
    p.add_argument("op", choices=["dim", "fixed", "restrict", "tau", "lines"])
    p.add_argument("--group", "-g", required=True, help="ambient group, e.g. C8")
    p.add_argument("--V", required=True, help="representation literal, e.g. 2-2s")
    p.add_argument("--k", type=int, help="subgroup index for fixed/tau")
    p.add_argument("--m", type=int, help="subgroup index for restrict")
    common(p)
    p.set_defaults(handler=_handle_rep)

    p = sub.add_parser("shear", help="bidegree transform between chart pages")
    p.add_argument("--n", type=int, required=True, help="target group is C_(2^(n+1))")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--V", required=True, help="grading over the target group")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    common(p)
    p.set_defaults(handler=_handle_shear)

    p = sub.add_parser("correspond", help="transport a class up the tower")
    p.add_argument("expr", help="class expression over the source group")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group", "-g", required=True, help="source group, e.g. C2")
    p.add_argument("--level", help="source class level, e.g. C2 (default: top)")
    p.add_argument("--V", default="0", help="grading over the target group (default 0)")
    common(p)
    p.set_defaults(handler=_handle_correspond)

    p = sub.add_parser("tower", help="tower of shearing isomorphism regions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="height index, h = 2^n * m")
    p.add_argument("--V", default="0", help="grading over C_(2^(n+1)) (default 0)")
    common(p)
    p.set_defaults(handler=_handle_tower)

    p = sub.add_parser("hhr", help="slice differential family over C_(2^(n+1))")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    common(p)
    p.set_defaults(handler=_handle_hhr)

    p = sub.add_parser("transport", help="shear a differential up the tower")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group", "-g", required=True, help="source group, e.g. C2")
    p.add_argument("--diff", required=True, help="'<r>: <source> -> <target>'")
    p.add_argument("--V", help="grading over the target group (default: source degree)")
    common(p)
    p.set_defaults(handler=_handle_transport)

    p = sub.add_parser("vanishing", help="vanishing line table")
    p.add_argument("--h", type=int, required=True, help="chromatic height, 2^n * m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--V", default="0", help="grading over C_(2^(n+1)) (default 0)")
    common(p)
    p.set_defaults(handler=_handle_vanishing)

    p = sub.add_parser("check", help="admissibility report for a differential")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diff", required=True, help="'<r>: <source> -> <target>'")
    p.add_argument("--V", default="0", help="grading over C_(2^(n+1)) (default 0)")
    common(p)
    p.set_defaults(handler=_handle_check)

    p = sub.add_parser("chart", help="render a chart DSL file to SVG")
    p.add_argument("input", help="path to the .dsl file")
    p.add_argument("-o", "--output", required=True, help="path of the SVG to write")
    common(p)
    p.set_defaults(handler=_handle_chart)

    return parser


def _emit_error(
    code: int, kind: str, message: str, line: int | None = None, col: int | None = None
) -> None:
    err = {"code": code, "kind": kind, "message": message}
    if line is not None:
        err["line"] = line
    if col is not None:
        err["col"] = col
    print(json.dumps({"error": err}), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text, payload = args.handler(args)
    except _CliFailure as e:
        _emit_error(e.code, e.kind, e.message)
        return e.code
    except DslSyntaxError as e:
        _emit_error(EXIT_PARSE, "parse", e.reason, e.line, e.col)
        return EXIT_PARSE
    except DslSemanticError as e:
        _emit_error(EXIT_SEMANTIC, "semantic", e.reason, e.line, e.col)
        return EXIT_SEMANTIC
    except _EngineError as e:
        _emit_error(EXIT_SEMANTIC, "semantic", str(e))
        return EXIT_SEMANTIC
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
