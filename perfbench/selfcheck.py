"""Checks of the benchmark itself.

Usage: python3 perfbench/selfcheck.py    (from the repository root)

- The same seed gives identical inputs; different seeds give different ones.
- A corrupted expected output, or a sabotaged input, makes ops count as
  failed, while the untouched inputs count none.
- A short run of every workload in both modes prints every metric that
  BENCHMARK.json lists, and a tree holding only BENCHMARK.json and the
  benchmark exits non-zero without a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys

from common import HERE, OUT, ROOT, use_source_tree

use_source_tree()

import chart_render  # noqa: E402
import cli_oneshot  # noqa: E402
import run  # noqa: E402
import tower_sweep  # noqa: E402
from workloads import MODULES  # noqa: E402

problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def pool(mod, name: str, seed: int) -> list:
    return mod.generate(random.Random(f"{name}:{seed}"))


def failed_frac(mod, cases: list, seconds: float = 0.5) -> float:
    with contextlib.redirect_stderr(io.StringIO()):
        result = run.timed_run(mod, cases, seconds)
    return result["failed"] / result["attempted"]


def sabotage_chart(cases):
    doc = next(d for d in cases if d.golden is None and d.markers)
    wrong_output = copy.copy(doc)
    wrong_output.markers = doc.markers[1:]
    golden = copy.copy(next(d for d in cases if d.golden is not None))
    golden.golden = golden.golden.replace(b"</svg>", b"</svg >")
    bad_input = copy.copy(doc)
    bad_input.text = doc.text.replace("class c0 =", "class c0 = aQ*", 1)
    return [doc], [wrong_output, golden], [bad_input]


def sabotage_tower(cases):
    case = cases[0]
    wrong_output = copy.copy(case)
    wrong_output.violations = case.violations + [(0, "congruence")]
    bad_input = copy.copy(case)
    bad_input.i = 0
    return [case], [wrong_output], [bad_input]


def sabotage_cli(cases):
    call = next(c for c in cases if c.code == 0 and not c.json and c.file is None)
    wrong_output = copy.copy(call)
    wrong_output.stdout = call.stdout + " "
    bad_input = copy.copy(call)
    bad_input.argv = call.argv + ["--no-such-flag"]
    return [call], [wrong_output], [bad_input]


SABOTAGE = {
    "chart-render": (chart_render, sabotage_chart),
    "tower-sweep": (tower_sweep, sabotage_tower),
    "cli-oneshot": (cli_oneshot, sabotage_cli),
}


def check_inputs_and_failures() -> None:
    for name, (mod, sabotage) in SABOTAGE.items():
        first, again, other = (repr(pool(mod, name, s)) for s in (7, 7, 8))
        expect(first == again, f"{name}: seed 7 twice gives identical inputs")
        expect(first != other, f"{name}: seeds 7 and 8 give different inputs")
        clean, wrong_output, bad_input = sabotage(pool(mod, name, 7))
        expect(failed_frac(mod, clean) == 0, f"{name}: untouched inputs count no failure")
        expect(failed_frac(mod, wrong_output) > 0, f"{name}: corrupted expected output counts as failed")
        expect(failed_frac(mod, bad_input) > 0, f"{name}: sabotaged input counts as failed")


def check_result_lines() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in MODULES:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", name, "--seed", "1", "--seconds", "1",
                                 "--trace", str(trace)])
            result = json.loads(out.getvalue().splitlines()[-1])
            expect(
                code == 0 and result["correct"] and result["failed"] == 0
                and set(result) == {"correct", "attempted", "failed", "metrics"}
                and list(result["metrics"]) == [m["name"] for m in listed],
                f"{name} --trace {trace}: result line carries every listed metric",
            )


def check_bare_tree() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tower-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "a tree without the package exits non-zero and prints no result")


def main() -> int:
    check_inputs_and_failures()
    check_result_lines()
    check_bare_tree()
    print(f"{len(problems)} check(s) failed" if problems else "all checks hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
