"""Paths, the span recorder, and helpers shared by the workloads."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def child_env() -> dict:
    """Environment for child interpreters: the package from ``src``, the way
    the test suite runs it, and uncoloured output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SLICESHEAR_COLOR", None)
    return env


def use_source_tree() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def rep_literal(rng: random.Random, exponent: int) -> tuple[str, list[int]]:
    """A random representation literal over C_{2^exponent} and its coefficients
    on (1, s, l1, ..., l(n-1))."""
    names = [""] + (["s"] + [f"l{t}" for t in range(1, exponent)] if exponent else [])
    coeffs = [rng.randint(-3, 3) for _ in names]
    terms = []
    for idx in rng.sample(range(len(names)), len(names)):
        c, name = coeffs[idx], names[idx]
        if c:
            mag = "" if abs(c) == 1 and name else str(abs(c))
            terms.append(("-" if c < 0 else "+") + mag + name)
    return "".join(terms).lstrip("+") or "0", coeffs


# Speed gauges.  A shared host can change speed by 2x within a minute, in
# bursts of 1-60 s.  A gauge is read between ops, every ``every_s`` seconds,
# and an op time is reported at reference speed as
# wall x (reference_ms / r) ** exponent, with r the mean of the readings
# just before and just after the op.  Neither gauge runs sliceshear code, so
# a change to the engine cannot move it.
#
# TASK times a fixed pure-Python task in this process, for in-process ops.
# Its exponent is below 1 because op times swing less than the task does.
# Over five 30 s runs each of chart-render and tower-sweep on a 2-vCPU Xeon
# host, exponents 0.5, 0.75 and 1 left spreads between runs (interquartile
# range over median) of 0.02-0.07, 0.02-0.04 and 0.03-0.05.
#
# START times a bare interpreter start (``python -c pass`` in the child
# environment, output captured as for a CLI call), for times of child
# processes: the CLI calls and set-up.  On the same host a CLI call and a
# bare start change speed together, in phases of a few seconds, and scaling
# each call by the start around it took the spread of cli-oneshot's op_p50_ms
# over five runs from 0.23 to 0.01, so its exponent is 1.


@dataclass(frozen=True)
class Gauge:
    name: str
    read: Callable[[], float]  # wall ms of the gauge's task, now
    every_s: float
    reference_ms: float
    exponent: float

    def factor(self, reading: float) -> float:
        """Multiplier taking a wall time measured at this reading to
        reference speed."""
        return (self.reference_ms / reading) ** self.exponent


def _gauge_task() -> int:
    acc: dict[str, int] = {}
    for i in range(2500):
        key = f"k{i % 61}"
        acc[key] = acc.get(key, 0) + sum((i, i >> 1, i & 7)) % 5
    return len(acc)


def task_ms() -> float:
    """Wall ms of a fixed pure-Python task.  The fastest of three back-to-back
    runs, so that caches an op or a child process left cold do not count."""
    best = None
    for _ in range(3):
        t0 = perf_counter_ns()
        _gauge_task()
        ns = perf_counter_ns() - t0
        best = ns if best is None else min(best, ns)
    return best / 1e6


def start_ms() -> float:
    """Wall ms from starting a bare interpreter, the way CLI calls start, to
    its exit."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True,
                   capture_output=True, timeout=60)
    return (perf_counter_ns() - t0) / 1e6


TASK = Gauge("task", task_ms, every_s=0.1, reference_ms=1.0, exponent=0.75)
START = Gauge("start", start_ms, every_s=0.0, reference_ms=50.0, exponent=1.0)


class Tracer:
    """Spans around calls into the layers, kept in memory until the run ends.

    A span is [name, start_ns, end_ns, parent span id, op id]; the op id ties
    every span of one operation together.  Counters record work done (lines,
    bytes, warnings) at the same boundaries.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.child_spans: set[str] = set()
        self.op = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        span = [name, 0, 0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, duration_ns: int) -> None:
        """A span timed in a child process."""
        self.child_spans.add(name)
        now = perf_counter_ns()
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now - duration_ns, now, parent, self.op])

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def totals(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, total ns)."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for name, start, end, _, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {k: (v[0], v[1]) for k, v in out.items()}
