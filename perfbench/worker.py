"""One workload in one fresh interpreter (started by run.py).

    python3 perfbench/worker.py --workload W --seed N --mode M
        [--seconds S] [--trace] [--spans PATH]

Modes: ``setup`` builds the inputs, prints ``ready`` and exits;
``timed`` then runs whole rounds until S seconds have passed, and at
least the workload's ``fixed_rounds``; ``fixed``
runs the workload's ``trace_rounds`` rounds (the traced run and its
untraced reference, whose counters must repeat from run to run).
After ``ready`` the worker prints one JSON line with its tallies.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402

MAX_REPORTED_ISSUES = 5


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(sorted_vals, pct):
    """Nearest-rank percentile of an ascending list."""
    k = max(math.ceil(pct / 100 * len(sorted_vals)) - 1, 0)
    return sorted_vals[k]


def run_rounds(wl, done, tracer=None, probed=False):
    """Run whole rounds until done(rounds, elapsed) says stop."""
    from celab.programs import BudgetExceeded

    clock = time.perf_counter
    lat, scaled, growth = [], [], []
    issues = Counter()
    attempted = failed = wrong = 0
    rounds = 0
    round_s, round_scaled, factors = [], [], []
    rss = None
    start = clock()
    while True:
        round_start = clock()
        probes, probe_s, round_lat = [], 0.0, []
        for item in wl.round(rounds):
            results = []
            for op in item.ops:
                attempted += 1
                if tracer is not None:
                    tracer.op = attempted
                if probed:
                    t0 = clock()
                    probes.append(speed.probe())
                    probe_s += clock() - t0
                t0 = clock()
                try:
                    results.append(op())
                except BudgetExceeded as exc:
                    failed += 1
                    issues[f"{item.label}: budget: {exc}"] += 1
                except Exception:
                    failed += 1
                    issues[f"{item.label}: "
                           + traceback.format_exc(limit=4)] += 1
                round_lat.append(clock() - t0)
            if len(results) != len(item.ops):
                continue
            for kind, msg in item.check(results):
                failed += kind == "failed"
                wrong += kind == "wrong"
                issues[f"{kind}: {msg}"] += 1
            if hasattr(wl, "growth"):
                growth.append(wl.growth(results))
        rounds += 1
        round_s.append(clock() - round_start - probe_s)
        # timed metrics are reported at the reference speed (speed.py)
        factor = speed.factor(probes) if probed else 1.0
        factors.append(factor)
        round_scaled.append(round_s[-1] * factor)
        lat += round_lat
        scaled += [t * factor for t in round_lat]
        # the peak RSS is read over the first fixed_rounds rounds, a fixed
        # amount of work: the analysis cache grows with every new input,
        # and the peak must not grow with the speed of the machine
        if rounds == wl.fixed_rounds:
            rss = peak_rss_mb()
        if done(rounds, clock() - start):
            break
    wall = clock() - start
    lat.sort()
    scaled.sort()
    return {
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "issues": [f"{msg} (x{n})" for msg, n
                   in list(issues.items())[:MAX_REPORTED_ISSUES]],
        "rounds": rounds, "wall_s": wall, "round_s": round_s,
        "speed": factors,
        # every figure is taken over all rounds of the run, so that it
        # averages over as much of the machine's time as the run spans
        "ops_per_s": attempted / sum(round_scaled),
        "op_p50_ms": 1000 * statistics.median(scaled),
        "op_tail_ms": 1000 * percentile(scaled, wl.tail_pct),
        "wall_ops_per_s": attempted / sum(round_s),
        "wall_op_p50_ms": 1000 * statistics.median(lat),
        "wall_op_tail_ms": 1000 * percentile(lat, wl.tail_pct),
        "tail_pct": wl.tail_pct,
        "stage_growth": statistics.median(growth) if growth else 0.0,
        "peak_rss_mb": rss,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import celab  # noqa: F401  (registers every combinator and reduction)
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "timed":
        out = run_rounds(
            wl, lambda r, t: t >= args.seconds and r >= wl.fixed_rounds,
            probed=True)
        # a timed run does at least fixed_rounds rounds, so the tail
        # percentile has at least ten samples beyond it
        assert out["attempted"] * (100 - wl.tail_pct) >= 1000
    else:
        before = tracer.total_self() if tracer else 0.0
        out = run_rounds(wl, lambda r, t: r >= wl.trace_rounds, tracer)
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["layer_self_s"] = tracer.total_self() - before
            if args.spans:
                tracer.write_spans(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
