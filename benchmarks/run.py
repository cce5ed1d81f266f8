#!/usr/bin/env python3
"""Run one strongodd benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload layered --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One client drives the library from this process as a closed loop: each op
is one public call on one input generated in set-up, and the next op starts
when the previous one returns.  The run repeats whole passes over the op
list while another pass still fits in ``--seconds`` (at least one pass).
Every output is checked after its pass, outside the timed calls.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run makes one plain pass and one traced pass,
whatever ``--seconds`` says, and the last line carries the per-module
metrics, including the tracing overhead.  The lines before it print every
metric by name and unit, the input fingerprint, and the two end-to-end
metrics that cannot sit in the last line: ``failed_frac`` is 0 when all is
well, and ``latency_tail_s`` needs ten ops beyond its percentile.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS = BENCH_DIR / "pinned.json"
DEFAULT_SEED = 1
SETUP_REPS = 3
OP_BUDGET_S = 60.0  # an op that runs longer counts as failed
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "colors_total": "count",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("layered", "outerplanar", "solver", "acceptance"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_op(op):
    """Time one op; returns (output or raised exception, seconds)."""
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        out = exc
    return out, time.perf_counter() - start


def run_pass(ops):
    start = time.perf_counter()
    results = [run_op(op) for op in ops]
    return time.perf_counter() - start, results


def tail_latency(latencies):
    """Highest whole percentile (nearest rank) with at least ten ops beyond
    it, as (percentile, seconds); None when no percentile from the median
    up has."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 49, -1):
        idx = math.ceil(p / 100 * n) - 1
        if n - 1 - idx >= 10:
            return p, ordered[idx]
    return None


class Tally:
    """Failed ops and colors of every checked pass."""

    def __init__(self, workload, pins):
        self.workload = workload
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.colors = None  # per-op colors of the first pass
        self.reasons: dict[str, str] = {}

    def add(self, results):
        import workloads

        outcomes = [out for out, _ in results]
        reasons = workloads.check_pass(self.workload, outcomes, self.pins)
        colors = []
        for i, (op, (out, seconds)) in enumerate(zip(self.workload.ops, results)):
            if reasons[i] is None and seconds > OP_BUDGET_S:
                reasons[i] = f"took {seconds:.1f} s, over the {OP_BUDGET_S} s budget"
            ok = reasons[i] is None
            colors.append(op.colors(out) if ok else None)
            if ok and self.colors is not None and self.colors[i] != colors[i]:
                reasons[i] = "output differs from the first pass"
            if reasons[i] is not None:
                self.reasons.setdefault(op.name, reasons[i])
        if self.colors is None:
            self.colors = colors
        self.attempted += len(results)
        self.failed += sum(r is not None for r in reasons)

    def colors_total(self) -> int:
        return sum(c for c in self.colors if c is not None)


def setup(name, seed):
    """Import, generate the inputs and run one untimed warm-up op, several
    times.  Returns the workload, its input fingerprint, the import time
    plus the median of the other set-up times, and why the warm-up op
    failed (None when it did not)."""
    start = time.perf_counter()
    import strongodd
    import strongodd.experiments  # noqa: F401  (the rest of the library)
    import_s = time.perf_counter() - start
    if not Path(strongodd.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"strongodd was imported from {strongodd.__file__}, not {SRC}")
    import workloads

    seconds, prints, w = [], set(), None
    for _ in range(SETUP_REPS):
        w = None  # so that one set of inputs is alive at a time
        start = time.perf_counter()
        w = workloads.make(name, seed)
        warm, _ = run_op(w.warmup)
        seconds.append(time.perf_counter() - start)
        prints.add(workloads.fingerprint(w))
    if len(prints) != 1:
        raise SystemExit(f"workload {name} generated different inputs for one seed")
    reason = w.warmup.check(warm) if not isinstance(warm, Exception) else repr(warm)
    return w, prints.pop(), import_s + statistics.median(seconds), reason


def load_pins(name, seed):
    if seed != DEFAULT_SEED:
        return None, None
    pinned = json.loads(PINS.read_text())
    return pinned["solver_values"].get(name), pinned["colors"].get(name)


def measure(w, seconds, tally):
    walls, latencies = [], []
    while True:
        wall, results = run_pass(w.ops)
        tally.add(results)
        walls.append(wall)
        latencies += [s for _, s in results]
        del results  # so that one pass's outputs are alive at a time
        if sum(walls) + wall > seconds:
            return walls, latencies


def traced_metrics(w, tally):
    import tracing

    untraced_wall, results = run_pass(w.ops)
    tally.add(results)
    del results
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, results = run_pass(w.ops)
        tally.add(results)  # the checks' verifier calls are traced as well
    finally:
        tracer.remove()
    infeasible, errors = tracer.infeasible_nodes()
    for err in errors:  # not an op of the pass, but the run is not correct
        tally.reasons.setdefault("solver split", err)
    metrics = tracer.metrics()
    metrics["solver.nodes_infeasible"] = infeasible
    metrics["solver.nodes_feasible"] = metrics["solver.nodes"] - infeasible
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics, tracing.metric_units()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "strongodd" / "__init__.py").is_file():
        print(f"error: no strongodd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    w, fingerprint, setup_s, warm_reason = setup(args.workload, args.seed)
    # The inputs live for the whole run; keep the collector from rescanning
    # them, so that collection cost follows the library's own allocations.
    gc.collect()
    gc.freeze()
    solver_pins, color_pins = load_pins(args.workload, args.seed)
    tally = Tally(w, solver_pins)
    print(f"workload {w.name} seed {args.seed} fingerprint {fingerprint} ops {len(w.ops)}")

    if args.trace:
        metrics, units = traced_metrics(w, tally)
    else:
        walls, latencies = measure(w, args.seconds, tally)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "latency_p50_s": statistics.median(latencies),
            "colors_total": tally.colors_total(),
            "peak_rss_mb": rss_kb / 1024,
        }
        units = END_TO_END_UNITS
        print(f"passes {len(walls)} ops timed {len(latencies)}")
        tail = tail_latency(latencies)
        if tail is None:
            print(f"metric latency_tail_s omitted: no percentile has ten of "
                  f"{len(latencies)} ops beyond it")
        else:
            print(f"metric latency_tail_s {tail[1]!r} s (p{tail[0]} of {len(latencies)} ops)")

    if warm_reason is not None:
        tally.reasons.setdefault(w.warmup.name, warm_reason)
    print(f"metric failed_frac {tally.failed / tally.attempted!r} fraction "
          f"({tally.failed} of {tally.attempted} ops)")
    if color_pins is not None:
        differ = sum(a != b for a, b in zip(tally.colors, color_pins))
        print(f"colors differ from the pins for seed {DEFAULT_SEED} on {differ} of "
              f"{len(color_pins)} ops")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for name, reason in tally.reasons.items():
        print(f"failed {name}: {reason}", file=sys.stderr)

    print(json.dumps({
        "correct": not tally.reasons,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
