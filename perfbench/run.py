"""sliceshear benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage:
    python3 perfbench/run.py --workload chart-render --seed 1 --seconds 25 --trace 0

Run from the repository root.  Every workload is a closed loop with one
client: the next operation starts when the previous one has finished.  The
last line of stdout is the JSON result; a table of the same metrics with
units goes to stderr, and the full result (inputs, counts, samples, and for
a traced run the span file and per-layer summary) goes to perfbench/out/.

--trace 0 measures with no tracing and reports the end-to-end metrics listed
in BENCHMARK.json.  --trace 1 alternates each operation untraced and traced,
probes the work the engine does inside its entry points, and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from time import perf_counter, perf_counter_ns

from common import (
    HERE,
    OUT,
    ROOT,
    SRC,
    START,
    TASK,
    Gauge,
    Tracer,
    child_env,
    use_source_tree,
)
from workloads import MODULES

SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60
SHARE_LAYERS = ("dsl", "svg", "monomials", "shearing", "differentials", "vanishing", "reps", "jsonio")
NO_WAIT = "single client, no queues or locks: every layer's wait time is zero"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(MODULES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the tree is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU.  The gauges then read
    the CPU the ops run on, and CLI children start where their parent runs.
    Over ten-run batches of unscaled wall times, cli-oneshot's spread between
    seeds was 0.07-0.18 pinned and 0.27 unpinned."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def attempt(fn, case, log):
    """Run one operation; an exception counts as a failure, not a crash."""
    try:
        return fn(case), True
    except Exception:
        if log["tracebacks"] < 3:
            traceback.print_exc(file=sys.stderr)
        log["tracebacks"] += 1
        return None, False


def timed_run(mod, pool, seconds: float) -> dict:
    """Closed loop over the pool.  The workload's gauge is read after an op
    whenever its interval has passed since the last reading; a reading is
    kept as (ops done, ms)."""
    gauge: Gauge = mod.GAUGE
    log = {"tracebacks": 0}
    latencies, readings, failed = [], [(0, gauge.read())], 0
    deadline = perf_counter() + seconds
    last_gauge = perf_counter()
    idx = 0
    while perf_counter() < deadline:
        case = pool[idx % len(pool)]
        idx += 1
        t0 = perf_counter_ns()
        out, ok = attempt(mod.operate, case, log)
        latencies.append(perf_counter_ns() - t0)
        if not (ok and mod.check(case, out)):
            failed += 1
        if perf_counter() - last_gauge >= gauge.every_s:
            readings.append((idx, gauge.read()))
            last_gauge = perf_counter()
    return {"latencies_ns": latencies, "gauge_readings": readings,
            "attempted": idx, "failed": failed}


def traced_run(mod, pool, seconds: float) -> dict:
    """Each op untraced, then as a chain of spanned calls, then the probes."""
    log = {"tracebacks": 0}
    tr = Tracer()
    untraced_ns = traced_ns = 0
    attempted = failed = 0
    gauges = [TASK.read()]
    deadline = perf_counter() + seconds
    last_gauge = perf_counter()
    while tr.op == 0 or perf_counter() < deadline:
        if perf_counter() - last_gauge >= TASK.every_s:
            gauges.append(TASK.read())
            last_gauge = perf_counter()
        case = pool[tr.op % len(pool)]
        tr.op += 1
        t0 = perf_counter_ns()
        out, ok = attempt(mod.operate, case, log)
        untraced_ns += perf_counter_ns() - t0
        failed += not (ok and mod.check(case, out))
        t0 = perf_counter_ns()
        res, ok = attempt(lambda c: tr.call("op", mod.traced, c, tr), case, log)
        traced_ns += perf_counter_ns() - t0
        attempted += 2
        if not (ok and mod.check(case, res[0])):
            failed += 1
            continue
        _, ok = attempt(lambda c: tr.call("probe", mod.probe, c, res[1], tr), case, log)
        failed += not ok
    return {
        "tracer": tr, "ops": tr.op, "untraced_ns": untraced_ns, "traced_ns": traced_ns,
        "attempted": attempted, "failed": failed, "gauge_ms": statistics.median(gauges),
    }


def setup_samples(workload: str) -> list[tuple[float, float]]:
    """Seconds from starting a fresh interpreter to the end of its warm-up,
    each with a start-gauge reading taken just before it."""
    samples = []
    for _ in range(SETUP_RUNS):
        reading = START.read()
        t0 = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            samples.append((perf_counter() - t0, reading))
            child.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            child.stdout.close()
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed ({child.returncode})")
    return samples


def whole_windows(latencies: list[int], size: int) -> list[int]:
    """The ops of whole windows of ``size`` ops; every window holds the same
    mix of inputs.  A trailing partial window is dropped unless it is the
    only one."""
    return latencies[:len(latencies) // size * size] or latencies


def op_readings(run: dict, count: int) -> list[float]:
    """Each op's gauge reading: the mean of the last reading taken before the
    op and the first taken after it (the last one overall if none was)."""
    done = [d for d, _ in run["gauge_readings"]]
    ms = [m for _, m in run["gauge_readings"]]
    out = []
    for i in range(count):
        before = bisect.bisect_right(done, i) - 1
        after = min(bisect.bisect_left(done, i + 1), len(ms) - 1)
        out.append((ms[before] + ms[after]) / 2)
    return out


def end_to_end(run: dict, gauge: Gauge | None, window: int, peak_rss_kb: int,
               setup: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics over the ops of whole windows.  With a gauge,
    each op time is scaled to reference speed by the op's reading, and each
    set-up time by the start-gauge reading taken just before it; with None,
    all are wall time."""
    lat = whole_windows(run["latencies_ns"], window)
    if gauge is None:
        ks, setup_s = [1.0] * len(lat), [s for s, _ in setup]
    else:
        ks = [gauge.factor(r) for r in op_readings(run, len(lat))]
        setup_s = [s * START.factor(r) for s, r in setup]
    op_ms = [ns * k / 1e6 for ns, k in zip(lat, ks)]
    return {
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10)[8] if len(op_ms) > 1 else op_ms[0],
        "peak_rss_mb": peak_rss_kb / 1024,
        "setup_s": statistics.median(setup_s),
    }


def per_layer(run: dict) -> tuple[dict, dict]:
    """Per-layer metrics.  Times of spans in this process are scaled to
    reference speed by the run's median gauge reading; spans timed in child
    processes (cli.interp, cli.import), shares and ratios are not."""
    tr: Tracer = run["tracer"]
    totals, counts, ops = tr.totals(), tr.counts, run["ops"]
    op_ns = run["untraced_ns"] / ops
    k = TASK.factor(run["gauge_ms"])

    def calls(name):
        return totals.get(name, (0, 0))[0]

    def busy(name):
        return totals.get(name, (0, 0))[1]

    def mean(name, unit_ns):
        scale = 1.0 if name in tr.child_spans else k
        return busy(name) * scale / calls(name) / unit_ns if calls(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    layer_busy = defaultdict(int)
    for name, (_, ns) in totals.items():
        layer_busy[name.split(".")[0]] += ns
    values = {
        "dsl.parse_ms": mean("dsl.parse", 1e6),
        "dsl.lines_per_s": ratio(counts["dsl.lines"], busy("dsl.parse") * k / 1e9),
        "dsl.calls": calls("dsl.parse") / ops,
        "svg.emit_ms": mean("svg.emit_svg", 1e6),
        "svg.bytes_out": ratio(counts["svg.bytes"], calls("svg.emit_svg")),
        "svg.elements": ratio(counts["svg.elements"], calls("svg.emit_svg")),
        "svg.visible_frac": ratio(counts["svg.drawn"], counts["svg.declared"]),
        "monomials.bidegree_us": mean("monomials.bidegree", 1e3),
        "monomials.construct_us": mean("monomials.construct", 1e3),
        "monomials.calls": (calls("monomials.bidegree") + calls("monomials.construct")) / ops,
        "shearing.correspond_us": mean("shearing.correspond_class", 1e3),
        "differentials.transport_us": mean("differentials.transport", 1e3),
        "differentials.validate_us": mean("differentials.validate", 1e3),
        "differentials.region_warn_frac": ratio(
            counts["differentials.region_warnings"], counts["differentials.transports"]
        ),
        "vanishing.admissible_us": mean("vanishing.admissible", 1e3),
        "reps.tau_us": mean("reps.tau", 1e3),
        "reps.fixed_points_us": mean("reps.fixed_points", 1e3),
        "reps.calls": sum(calls(f"reps.{f}") for f in ("tau", "line_L", "fixed_points")) / ops,
        "jsonio.export_ms": mean("jsonio.export_json", 1e6),
        "jsonio.import_ms": mean("jsonio.import_json", 1e6),
        "jsonio.bytes": ratio(counts["jsonio.bytes"], calls("jsonio.export_json")),
        "cli.interp_ms": mean("cli.interp", 1e6),
        "cli.import_ms": mean("cli.import", 1e6),
        "cli.main_us": mean("cli.main", 1e3),
        "cli.interp_share": busy("cli.interp") / ops / op_ns,
        "cli.import_share": busy("cli.import") / ops / op_ns,
        "cli.main_share": busy("cli.main") / ops / op_ns,
        "trace.overhead_frac": run["traced_ns"] / run["untraced_ns"] - 1,
    }
    for layer in SHARE_LAYERS:
        values[f"{layer}.share"] = layer_busy[layer] / ops / op_ns

    # self time: a span's duration less the part its child spans cover
    child_ns = defaultdict(int)
    for name, start, end, parent, _ in tr.spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_ns = defaultdict(int)
    for sid, (name, start, end, _, _) in enumerate(tr.spans):
        self_ns[name] += end - start - child_ns[sid]
    summary = {
        name: {
            "calls": n,
            "calls_per_op": n / ops,
            "busy_ms": ns / 1e6,
            "self_ms": self_ns[name] / 1e6,
            "us_per_call": ns / n / 1e3,
            "share_of_untraced_op": ns / ops / op_ns,
            "wait_ms": 0,
        }
        for name, (n, ns) in sorted(totals.items())
    }
    return values, summary


def write_spans(path, tr: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, (name, start, end, parent, op) in enumerate(tr.spans):
            fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "op": op}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sliceshear" / "__init__.py").is_file():
        print(f"perfbench: no sliceshear package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cpu = pin_to_one_cpu()
    use_source_tree()
    mod = importlib.import_module(MODULES[args.workload])
    rng = random.Random(f"{args.workload}:{args.seed}")
    pool = mod.generate(rng)
    mod.warm_up()

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "clients": 1, "loop": "closed", "pinned_cpu": cpu, "inputs": mod.describe(pool),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run = traced_run(mod, pool, args.seconds)
        values, summary = per_layer(run)
        write_spans(OUT / f"{stem}.spans.jsonl", run["tracer"])
        wanted = spec["per_layer"]
        detail = {"ops": run["ops"], "gauge": TASK.name, "gauge_ms_median": run["gauge_ms"],
                  "gauge_reference_ms": TASK.reference_ms, "gauge_exponent": TASK.exponent,
                  "untraced_ms": run["untraced_ns"] / 1e6,
                  "traced_ms": run["traced_ns"] / 1e6, "layers": summary, "wait": NO_WAIT,
                  "spans_file": f"{stem}.spans.jsonl"}
    else:
        run = timed_run(mod, pool, args.seconds)
        # read before the set-up probes start, so that on cli-oneshot the
        # largest child is a CLI call
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
        peak_kb = resource.getrusage(who).ru_maxrss
        setup = setup_samples(args.workload)
        values = end_to_end(run, mod.GAUGE, mod.WINDOW, peak_kb, setup)
        wanted = spec["end_to_end"]
        wall = end_to_end(run, None, mod.WINDOW, peak_kb, setup)
        detail = {
            "latency_samples": len(run["latencies_ns"]), "window_ops": mod.WINDOW,
            "timed_ops": len(whole_windows(run["latencies_ns"], mod.WINDOW)),
            "gauge": mod.GAUGE.name, "gauge_reference_ms": mod.GAUGE.reference_ms,
            "gauge_exponent": mod.GAUGE.exponent, "gauge_readings": run["gauge_readings"],
            "setup_gauge": START.name, "setup_samples_s_and_gauge_ms": setup,
            "wall_metrics": {n: wall[n] for n in ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s")},
            "latencies_ns": run["latencies_ns"],
        }

    attempted, failed = run["attempted"], run["failed"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {**meta, **detail, "failed_frac": failed / attempted, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops attempted, "
          f"{failed} failed, failed_frac {failed / attempted:.4g}", file=sys.stderr)
    wall = detail.get("wall_metrics", {})
    for name, m in metrics.items():
        plain = f"   (wall {wall[name]:.6g})" if name in wall else ""
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{plain}", file=sys.stderr)
    if args.trace:
        print(f"  in-process span times at reference speed (task gauge median "
              f"{detail['gauge_ms_median']:.4g} ms, reference {TASK.reference_ms} ms, exponent "
              f"{TASK.exponent}); child-process spans (cli.interp, cli.import) are wall time",
              file=sys.stderr)
        print(f"  wait time: {NO_WAIT}", file=sys.stderr)
    else:
        g = mod.GAUGE
        print(f"  times at reference speed, wall time in parentheses: ops by the {g.name} gauge "
              f"(reference {g.reference_ms} ms, exponent {g.exponent}, read around each op), "
              f"set-up by the {START.name} gauge", file=sys.stderr)
        print(f"  latency samples: {detail['latency_samples']}, of which {detail['timed_ops']} "
              f"in whole windows of {mod.WINDOW} ops are timed; set-up samples: {SETUP_RUNS}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
