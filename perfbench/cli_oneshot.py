"""cli-oneshot: one ``python -m sliceshear.cli ...`` child per operation.

The calls cover every README subcommand (rep dim/lines/tau, shear,
correspond, tower, hhr, transport, vanishing, check, chart) in human and
``--json`` form, plus a parse error and a semantic error.  Expected stdout
and exit codes are written out here by hand or, for the seeded variants of
rep dim, shear, hhr and vanishing, from the closed forms in ``oracle``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter_ns

from sliceshear import cli

import oracle
from common import OUT, ROOT, START, child_env, rep_literal

# One pass holds every subcommand; the pool holds this many passes with
# fresh seeded parameters, each in its own shuffled order.
PASSES = 8
GAUGE = START  # each op is a child process, scaled by the start gauge
WINDOW = 26  # ops per timing window: one pass
TIMEOUT_S = 60
CHART_OUT = OUT.relative_to(ROOT) / "cli-chart.svg"


@dataclass
class Call:
    argv: list[str]
    code: int = 0
    stdout: str | None = None  # exact human output, without the final newline
    payload: object = None  # expected --json payload
    file: bytes | None = None  # expected bytes of the file the call writes

    @property
    def json(self) -> bool:
        return "--json" in self.argv


def _mono_obj(group: int, level: int, norms, a, u) -> dict:
    """The README's JSON form of a monomial with coefficient 1."""
    def named(vec, zero_key):
        out = {zero_key: vec[0]} if vec and vec[0] else {}
        out.update({f"l{t}": e for t, e in enumerate(vec) if t and e})
        return out

    return {
        "group": group, "level": level, "coeff": 1,
        "norms": [list(x) for x in norms], "a": named(a, "s"), "u": named(u, "2s"),
    }


def _diff_obj(n: int, i: int, provenance: str) -> dict:
    (lv, sn, sa, su), (_, tn, ta, tu) = oracle.family_exponents(n, i)
    return {
        "group": n + 1,
        "page": oracle.family_page(n, i),
        "source": _mono_obj(n + 1, lv, sn, sa, su),
        "target": _mono_obj(n + 1, lv, tn, ta, tu),
        "provenance": provenance,
    }


def _both(argv, stdout, payload, **kw) -> list[Call]:
    return [Call(argv, stdout=stdout, **kw), Call(argv + ["--json"], payload=payload, **kw)]


def _fixed_calls(golden_name: str) -> list[Call]:
    golden = (ROOT / "tests" / "goldens" / f"{golden_name}.svg").read_bytes()
    lines_c8 = [(0, 0, "s = 0"), (1, 1, "s = 1(t-s)"), (2, 3, "s = 3(t-s)"), (3, 7, "s = 7(t-s)")]
    violation = "length 13 exceeds the bound 5 for sources on or above s = 1(t-s)"
    return [
        *_both(
            ["rep", "lines", "--group", "C8", "--V", "0"],
            "\n".join(f"k={k}  slope={sl}  tau=0  {eq}" for k, sl, eq in lines_c8),
            {"lines": [{"k": k, "slope": sl, "tau": 0, "intercept": "0"} for k, sl, _ in lines_c8]},
        ),
        # |2-2l1| = -2 and its C2-fixed part is 2, so tau = 2*2 - (-2)
        *_both(["rep", "tau", "--group", "C4", "--V", "2-2l1", "--k", "1"], "6", {"tau": 6}),
        *_both(
            ["correspond", "--group", "C2", "--k", "1", "Nt[1,1]*aS^3"],
            "Nt[1,2]*aL1*aS^3\nnote: source lies outside the proven isomorphism region",
            {
                "class": _mono_obj(2, 2, [(1, 2, 1)], (3, 1), ()),
                "canonical": "Nt[1,2]*aL1*aS^3",
                "region": "outside",
            },
        ),
        *_both(
            ["tower", "--n", "2", "--m", "1"],
            "k=1  s = 1(t-s)  C=0  ->  C4 at height 2\nk=2  s = 3(t-s)  C=0  ->  C2 at height 1",
            {"tower": [
                {"k": 1, "slope": 1, "intercept": "0", "threshold": "0", "target_group": 2, "target_height": 2},
                {"k": 2, "slope": 3, "intercept": "0", "threshold": "0", "target_group": 1, "target_height": 1},
            ]},
        ),
        *_both(
            ["transport", "--group", "C2", "--k", "3", "--diff", "3: u2S -> Nt[1,1]*aS^3"],
            "diff 17: u2S -> Nt[1,4]*aL3^4*aL2^2*aL1*aS^3",
            {"differential": _diff_obj(3, 1, "transported"), "warnings": []},
        ),
        *_both(
            ["check", "--h", "2", "--n", "1", "--V", "2-2s", "--diff", "5: u2S -> Nt[1,2]*aL1*aS^3"],
            "ok",
            {"admissible": True, "violations": []},
        ),
        *_both(
            ["check", "--h", "2", "--n", "1", "--V", "4-4s", "--diff", "13: u2S^2 -> Nt[2,2]*aL1^3*aS^7"],
            f"[k=1 length] {violation}",
            {"admissible": False, "violations": [{"k": 1, "clause": "length", "message": violation}]},
        ),
        *_both(
            ["chart", str(ROOT.joinpath("tests", "goldens", f"{golden_name}.dsl").relative_to(ROOT)),
             "-o", str(CHART_OUT)],
            f"wrote {CHART_OUT} ({len(golden)} bytes)",
            {"output": str(CHART_OUT), "bytes": len(golden), "classes": 4, "differentials": 2},
            file=golden,
        ),
        Call(["rep", "dim", "--group", "C8", "--V", "2-x"], code=2, stdout=""),
        Call(["hhr", "--n", "1", "--i", "0"], code=3, stdout=""),
    ]


def _seeded_calls(rng: random.Random) -> list[Call]:
    exponent = rng.randint(1, 4)
    literal, coeffs = rep_literal(rng, exponent)
    dim = coeffs[0] + sum(coeffs[1:2]) + 2 * sum(coeffs[2:])

    n = rng.randint(1, 4)
    k = rng.randint(0, n)
    t, s = rng.randint(0, 40), rng.randint(0, 40)
    # with V = 0 the offset |V^{C_{2^k}}| 2^k - |V| vanishes
    t2, s2 = (1 << k) * t, ((1 << k) - 1) * (t - s) + (1 << k) * s

    hn, hi = rng.randint(0, 4), rng.randint(1, 4)
    page, src, tgt = oracle.family_text(hn, hi)

    vn, vm = rng.randint(0, 3), rng.randint(1, 3)
    h = vm << vn
    rows = []
    for kk in range(vn + 1):
        big_n = (1 << (h // (1 << kk) + vn + 1)) - (1 << (vn + 1)) + (1 << kk)
        rows.append({"k": kk, "slope": (1 << kk) - 1, "tau": 0, "N": big_n,
                     "max_length": big_n - ((1 << kk) - 1)})
    return [
        *_both(["rep", "dim", "--group", f"C{1 << exponent}", f"--V={literal}"], str(dim), {"dimension": dim}),
        *_both(
            ["shear", "--n", str(n), "--k", str(k), "--V", "0", "--t", str(t), "--s", str(s)],
            f"(t', s') = ({t2}, {s2})",
            {"t_prime": t2, "s_prime": s2},
        ),
        *_both(
            ["hhr", "--n", str(hn), "--i", str(hi)],
            f"diff {page}: {src} -> {tgt}",
            {"differential": _diff_obj(hn, hi, "generated")},
        ),
        *_both(
            ["vanishing", "--h", str(h), "--n", str(vn)],
            "\n".join(
                f"k={r['k']}  slope={r['slope']}  tau=0  N={r['N']}  max_length={r['max_length']}"
                for r in rows
            ),
            {"vanishing": rows},
        ),
    ]


def generate(rng: random.Random) -> list[Call]:
    pool = []
    for p in range(PASSES):
        calls = _fixed_calls(("hu_kriz_c2", "sheared_c4")[p % 2]) + _seeded_calls(rng)
        if len(calls) != WINDOW:
            raise RuntimeError(f"a pass has {len(calls)} calls, WINDOW says {WINDOW}")
        rng.shuffle(calls)
        pool += calls
    return pool


def operate(call: Call) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "sliceshear.cli", *call.argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check(call: Call, out: subprocess.CompletedProcess) -> bool:
    if out.returncode != call.code:
        return False
    if call.code:
        return out.stdout == "" and '"error"' in out.stderr
    if call.json:
        try:
            if json.loads(out.stdout) != call.payload:
                return False
        except json.JSONDecodeError:
            return False
    elif out.stdout != call.stdout + "\n":
        return False
    if call.file is None:
        return True
    written = ROOT / CHART_OUT
    ok = written.read_bytes() == call.file
    written.unlink()
    return ok


def main_captured(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def warm_up() -> None:
    OUT.mkdir(exist_ok=True)
    if main_captured(["hhr", "--n", "1", "--i", "1"]) != 0:
        raise RuntimeError("in-process cli.main failed")


def describe(pool: list[Call]) -> dict:
    return {
        "calls": len(pool),
        "passes": PASSES,
        "subcommands": sorted({c.argv[0] for c in pool}),
        "json_calls": sum(c.json for c in pool),
        "error_calls": sum(c.code != 0 for c in pool),
    }


_IMPORT_PROBE = (
    "import time; t = time.perf_counter_ns(); import sliceshear.cli; "
    "print(time.perf_counter_ns() - t)"
)


def traced(call: Call, tr):
    return operate(call), None


def probe(call: Call, _, tr) -> None:
    """The op's three parts measured apart: a bare interpreter, a fresh
    interpreter's ``import sliceshear.cli``, and ``cli.main`` in process."""
    env = child_env()
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=TIMEOUT_S)
    tr.add("cli.interp", perf_counter_ns() - t0)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    tr.add("cli.import", int(done.stdout))
    tr.call("cli.main", main_captured, call.argv)
