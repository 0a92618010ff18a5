#!/usr/bin/env python3
"""celab benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload {sweep,deep,oracle} --seed N
        --seconds S --trace {0,1}

Every measurement runs in a fresh interpreter (worker.py), so the
module-global analysis cache and evaluator cells never carry over
between workloads or runs.  With ``--trace 0`` it reports the
end-to-end metrics: set-up time is the median over SETUP_RUNS set-up
runs, each from process start to inputs ready, and the timed worker
gives the rest.  Times are reported at the reference speed (speed.py),
and the wall-clock figures beside them on the ``{"run": ...}`` line.
With ``--trace 1`` it runs the workload's fixed rounds
once untraced and once traced, and reports the per-layer figures and
the tracing overhead.  The last line of standard output is the result
as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "deep", "oracle")
SETUP_RUNS = 11    # set-up-only workers; setup_s is their median
SPEED_PROBES = 5   # speed probes before and after each of them
DEADLINE_S = 170  # the whole command ends within this many seconds
SPANS_DIR = os.path.join(ROOT, ".perfbench")


class WorkerError(Exception):
    pass


def worker(args, deadline):
    """Run worker.py; return (seconds from spawn to 'ready', result)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        if not select.select([proc.stdout], [], [],
                             max(deadline - time.monotonic(), 1))[0]:
            raise WorkerError(f"worker {args} overran the deadline")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.communicate(
            timeout=max(deadline - time.monotonic(), 1))[0]
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} overran the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or ready.strip() != "ready" or (
            args[-1] != "setup" and not lines):
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    return setup_s, (json.loads(lines[-1]) if lines else None)


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup_sample(common, deadline):
    """One set-up, in wall-clock seconds and at the reference speed: the
    probe runs just before the worker starts and just after it ends."""
    probes = [speed.probe() for _ in range(SPEED_PROBES)]
    wall = worker(common + ["--mode", "setup"], deadline)[0]
    probes += [speed.probe() for _ in range(SPEED_PROBES)]
    return wall, wall * speed.factor(probes)


def end_to_end(workload, seed, seconds, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [setup_sample(common, deadline) for _ in range(SETUP_RUNS)]
    res = worker(common + ["--mode", "timed", "--seconds", str(seconds)],
                 deadline)[1]
    metrics = {
        "setup_s": metric(statistics.median(s for _, s in setups), "s"),
        "ops_per_s": metric(res["ops_per_s"], "1/s"),
        "op_p50_ms": metric(res["op_p50_ms"], "ms"),
        "op_tail_ms": metric(res["op_tail_ms"], "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    info = {"rounds": res["rounds"], "tail_percentile": res["tail_pct"],
            "timed_s": res["wall_s"], "round_s": res["round_s"],
            "speed": res["speed"],
            "wall_clock": {k: res["wall_" + k] for k in
                           ("ops_per_s", "op_p50_ms", "op_tail_ms")},
            "setup_samples_s": [s for _, s in setups],
            "setup_wall_s": [w for w, _ in setups]}
    return [res], metrics, info


def layer_unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "ratio" if name == "programs.stage_growth" else "count"


def per_layer(workload, seed, deadline):
    common = ["--workload", workload, "--seed", str(seed), "--mode", "fixed"]
    plain = worker(common, deadline)[1]
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, f"{workload}-seed{seed}.jsonl")
    traced = worker(common + ["--trace", "--spans", spans], deadline)[1]
    layers = dict(traced["layers"])
    layers["programs.stage_growth"] = plain["stage_growth"]
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["trace.layer_self_s"] = traced["layer_self_s"]
    metrics = {k: metric(v, layer_unit(k)) for k, v in layers.items()}
    info = {"rounds": traced["rounds"], "spans": os.path.relpath(spans, ROOT)}
    return [traced, plain], metrics, info


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "celab", "__init__.py")):
        print("run.py: no celab sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            runs, metrics, info = per_layer(args.workload, args.seed,
                                            deadline)
        else:
            runs, metrics, info = end_to_end(args.workload, args.seed,
                                             args.seconds, deadline)
    except (WorkerError, json.JSONDecodeError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for run in runs:
        for issue in run["issues"]:
            print(f"issue: {issue}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                cpus=os.cpu_count(), python=platform.python_version())
    print(json.dumps({"run": info}))
    print(json.dumps({"correct": not any(run["wrong"] for run in runs),
                      "attempted": runs[0]["attempted"],
                      "failed": runs[0]["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
