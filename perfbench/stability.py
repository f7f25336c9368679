"""Stability record of the benchmark: spread of each end-to-end metric.

    python3 perfbench/stability.py --set 1 --out perfbench/noise.json
    python3 perfbench/stability.py --set 2 --out perfbench/noise.json

For each workload it makes ten untraced runs with seeds 1 to 10 and reports
per end-to-end metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread (q3 - q1) /
median next to the metric's bound. Two traced runs (seeds 11 and 12), spread
evenly between the untraced ones, confirm that every count repeats exactly
and give the tracing overhead: each traced run's solve seconds over the mean
of its two untraced neighbours, minus one, and the median of those shares.
Runs are sequential and each is a fresh process.

`--out` merges the record into a JSON file under `sets/<--set>/workloads`,
so sets and workloads can be recorded one at a time. When the file holds
sets "1" and "2", it also gets their `agreement`: per workload and metric
the change of the median from set 1 to set 2 as a share of set 1's, next to
the bound. `--seconds` (default: BENCHMARK.json's run_seconds) records a
set with longer or shorter runs, to see how the spread depends on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10
TRACED_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          cwd=HERE.parent)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _value(run: dict, metric: str) -> float:
    return run["metrics"][metric]["value"]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def record(workload: str, seconds: int) -> dict:
    # Traced runs sit evenly between the untraced ones, so that each can be
    # compared with its untraced neighbours, which met the same host regime.
    after = {(j + 1) * RUNS // (TRACED_RUNS + 1) for j in range(TRACED_RUNS)}
    plain, traced, pairs = [], [], []
    for i in range(RUNS):
        plain.append(run_once(workload, 1 + i, seconds, 0))
        if i + 1 in after:
            traced.append(run_once(workload, 1 + RUNS + len(traced), seconds, 1))
            pairs.append(i)
    entry = {"runs": RUNS,
             "all_correct": all(r["correct"] for r in plain),
             "failed": sum(r["failed"] for r in plain),
             "attempted": sum(r["attempted"] for r in plain),
             "metrics": {}}
    for metric in SPEC["end_to_end"]:
        stats = spread([_value(r, metric["name"]) for r in plain])
        stats["bound"] = metric["bound"]
        entry["metrics"][metric["name"]] = stats
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in traced]
    # overhead of each traced run against the mean of its two untraced neighbours
    overheads = []
    for r, i in zip(traced, pairs):
        base = (_value(plain[i], "solve_s") + _value(plain[i + 1], "solve_s")) / 2
        overheads.append((_value(r, "traced.solve_s") - base) / base)
    entry["traced"] = {
        "runs": len(traced),
        "all_correct": all(r["correct"] for r in traced),
        "counts_repeat": all(c == counts[0] for c in counts),
        "counts": counts[0],
        "solve_s": [_value(r, "traced.solve_s") for r in traced],
        "overhead_shares": overheads,
        "overhead_share": statistics.median(overheads),
    }
    return entry


def agreement(first: dict, second: dict) -> dict:
    """Change of each metric's median from `first` to `second`, per workload."""
    out = {}
    for workload in sorted(set(first) & set(second)):
        out[workload] = {}
        for name, a in first[workload]["metrics"].items():
            change = (second[workload]["metrics"][name]["median"] - a["median"]) / a["median"]
            out[workload][name] = {"change": change, "bound": a["bound"],
                                   "within": abs(change) <= a["bound"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--set", default="1", help="name of the set in --out")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    doc = {}
    if args.out is not None and args.out.is_file():
        doc = json.loads(args.out.read_text())
    doc["host"] = (f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs, "
                   f"Python {platform.python_version()}")
    sets = doc.setdefault("sets", {})
    this = sets.setdefault(args.set, {"seconds": args.seconds, "workloads": {}})
    if this["seconds"] != args.seconds:
        raise SystemExit(f"set {args.set} was recorded with {this['seconds']} s runs")
    for workload in args.workloads:
        entry = record(workload, args.seconds)
        this["workloads"][workload] = entry
        if "1" in sets and "2" in sets:
            doc["agreement"] = agreement(sets["1"]["workloads"], sets["2"]["workloads"])
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: median {m['median']:.4f} spread {m['spread']:.4f} "
                  f"(bound {m['bound']})", flush=True)
        if "traced" in entry:
            t = entry["traced"]
            print(f"{workload} tracing overhead {t['overhead_share']:+.1%}, "
                  f"counts repeat: {t['counts_repeat']}", flush=True)
        if args.out is not None:
            args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
