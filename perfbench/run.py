"""Solver benchmark: run one pinned workload, check it, print its metrics.

    python3 perfbench/run.py --workload bp-n14 --seed 1 --seconds 34 --trace 0

One process runs one workload, with no threads of its own, through the
public entry `stspgl.evalcli.run_method`. It solves the pinned instance
again and again, at least once, and stops before a solve that would likely
end more than half a solve past `--seconds`. It checks every
solve against the pinned reference and against the first solve's result
JSON, and prints as its last line one JSON object with the verdict and the
metrics.

--trace 0 gives the end-to-end metrics:
  solve_s      mean wall seconds per solve over the run, entry to return.
               Solve times on a shared host switch between a quiet and a
               contended regime, so the run averages all the solve time it
               measured instead of keeping a minimum or a median of a few.
  peak_rss_mb  peak RSS of this process (getrusage), one process per run.
  setup_s      median over fresh interpreters of importing stspgl (numpy and
               scipy included) and generating and validating the instance.
               Half the interpreters start before the solves and half after,
               so the median spans the host's regimes too.
--trace 1 runs the tracer self-test, then traces the solves and gives the
per-layer metrics of tracer.layer_metrics, averaged per solve.

--seed does not change the instance: the workloads are the
pinned instances the roadmap measures, and their reference optima are what
the correctness gate checks. --instance-seed re-runs a workload on another
generated instance; without a pinned reference the gate then checks the
status, a closed gap and determinism only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checkout import SRC, import_stspgl
from workloads import GAP, REL_TOL, SOLVER_SEED, TIME_LIMIT_S, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3     # fresh interpreters before the solves, and as many after
SETUP_TIMEOUT_S = 60


def _close(a, b) -> bool:
    return a is not None and abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check_result(workload, result, reference) -> list:
    """Problems of one solve against the workload's expected outcome."""
    problems = []
    if result.status != workload.status:
        problems.append(f"status {result.status}, expected {workload.status}")
    ub, lb = result.upper_bound, result.lower_bound
    if reference is not None and not _close(ub, reference):
        problems.append(f"upper bound {ub!r}, expected {reference!r}")
    if workload.status == "Optimal":
        target = reference if reference is not None else ub
        if target is None or not _close(lb, target):
            problems.append(f"lower bound {lb!r}, expected {target!r}")
    elif ub is None:
        problems.append("no incumbent")
    return problems


def measure_setup(workload, instance_seed) -> list:
    """Set-up seconds of SETUP_SAMPLES fresh interpreters."""
    g = workload.generator_args(instance_seed)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           str(g["n"]), str(g["seed"]), str(g["n_requests"]), str(g["n_scenarios"])]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="run seed; printed, the pinned instance does not depend on it")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instance-seed", type=int, default=None,
                    help="generator seed of the instance (default: the pinned one)")
    args = ap.parse_args(argv)

    evalcli = import_stspgl()
    from stspgl.model import validate_instance
    from stspgl.scenarios import generate_instance
    from tracer import Tracer, traced, traced_solve

    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.method}, instance {workload.generator_args(args.instance_seed)}, "
          f"seed {args.seed}, trace {args.trace}")
    pinned = args.instance_seed in (None, workload.instance_seed)
    reference = workload.reference if pinned else None
    if not pinned:
        print(f"instance seed {args.instance_seed} has no pinned reference; "
              "checking status, gap and determinism only")

    setup = [] if args.trace else measure_setup(workload, args.instance_seed)
    inst = generate_instance(**workload.generator_args(args.instance_seed))
    problems = validate_instance(inst)
    if problems:
        raise SystemExit(f"invalid instance: {problems}")
    cfg = evalcli.make_config(time_limit=TIME_LIMIT_S, gap=GAP, seed=SOLVER_SEED)

    correct = True
    tracer = None
    if args.trace:
        from selftest import run_selftest
        for line in run_selftest():
            print("FAIL selftest:", line)
            correct = False
        tracer = Tracer()

    times, failures, per_solve = [], [], []
    first_json = None
    begin = time.perf_counter()
    with traced(tracer) if tracer is not None else contextlib.nullcontext():
        while not times or (time.perf_counter() - begin
                            + statistics.fmean(times) / 2 < args.seconds):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = evalcli.run_method(workload.method, inst, cfg)
                    layers = None
                else:
                    result, layers = traced_solve(
                        tracer, lambda: evalcli.run_method(workload.method, inst, cfg))
            except Exception as exc:
                # a raising solve would raise again: record it and stop
                times.append(time.perf_counter() - t0)
                traceback.print_exc()
                failures.append(f"solve {len(times)}: {type(exc).__name__}: {exc}")
                break
            times.append(time.perf_counter() - t0)
            problems = check_result(workload, result, reference)
            doc = result.to_json(inst)
            if first_json is None:
                first_json = doc
            elif doc != first_json:
                problems.append("result JSON differs from the first solve's")
            if layers is not None:
                per_solve.append(layers)
                counts = {k: v for k, (v, unit) in layers.items() if unit == "count"}
                first_counts = {k: v for k, (v, unit) in per_solve[0].items() if unit == "count"}
                if counts != first_counts:
                    problems.append("layer counts differ from the first solve's")
            print(f"solve {len(times)}: {times[-1]:.3f} s {result.status} "
                  f"ub={result.upper_bound!r} lb={result.lower_bound!r}", flush=True)
            if problems:
                failures.append(f"solve {len(times)}: " + "; ".join(problems))

    if not args.trace:
        setup += measure_setup(workload, args.instance_seed)
    for line in failures:
        print("FAIL", line)
    attempted, failed = len(times), len(failures)
    correct = correct and not failed
    if args.trace:
        metrics = {}
        for name, (_, unit) in per_solve[0].items() if per_solve else ():
            metrics[name] = {"value": statistics.fmean(s[name][0] for s in per_solve),
                             "unit": unit}
    else:
        metrics = {
            "solve_s": {"value": statistics.fmean(times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    print(f"{args.workload} failed_frac {failed / attempted!r} ratio "
          f"({failed} of {attempted} solves)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
