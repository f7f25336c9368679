"""Intercept self-test of the layer tracer.

On a tiny generated instance it solves with bp, mip and heuristic under the
tracer, and calls symmetric_tsp once on 16 nodes to reach its MIP path. It
checks that every wrapped layer records calls where that path uses it, that
the compact MIP never touches the LP layer, and that every count metric
repeats exactly on a second pass. The traced benchmark run calls it first,
so a refactor that moves a layer out of reach of its wrapper fails the run
instead of reading zero. Run alone with `python3 perfbench/selftest.py`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List

HERE = Path(__file__).resolve().parent

TINY = dict(n=8, seed=1, n_requests=8, n_scenarios=4, theta=0.8, rho=0.2)

# layers each path must reach at least once
EXPECTED: Dict[str, List[str]] = {
    "bp": ["orchestrate", "highs.lp", "highs.mip", "mpbackend.solve_lp",
           "mpbackend.solve_mip", "colgen.build_rmp", "colgen.solve_pricing",
           "tspgl.cover_bounds", "tspgl.symmetric_tsp", "tspgl.benders_solve_tspgl",
           "tspgl.dual_subproblem", "tspgl.primal_subproblem",
           "covers.minimal_feasibility_cover", "scenarios.chance_feasible"],
    "mip": ["orchestrate", "highs.mip", "mpbackend.solve_mip",
            "mpbackend.resolve_with_cuts", "scenarios.chance_feasible"],
    "heuristic": ["orchestrate", "covers.explore", "covers.local_search",
                  "covers.minimal_feasibility_cover", "scenarios.chance_feasible",
                  "tspgl.cover_bounds", "tspgl.symmetric_tsp",
                  "tspgl.benders_solve_tspgl", "tspgl.dual_subproblem",
                  "tspgl.primal_subproblem", "mpbackend.solve_mip", "highs.mip"],
    "tsp16": ["tspgl.symmetric_tsp", "mpbackend.resolve_with_cuts",
              "mpbackend.solve_mip", "highs.mip"],
}
# layers a path must never reach
ABSENT: Dict[str, List[str]] = {
    "mip": ["highs.lp", "mpbackend.solve_lp", "colgen.build_rmp", "colgen.solve_pricing"],
}


def _pass(tracer, inst, cfg):
    """One traced pass over every path; returns per-path layer stats and metrics."""
    from stspgl import evalcli, tspgl
    from tracer import traced_solve

    calls, counts = {}, {}
    for method in ("bp", "mip", "heuristic"):
        _, metrics = traced_solve(tracer, lambda: evalcli.run_method(method, inst, cfg))
        calls[method] = {name: s.calls for name, s in tracer.stats.items()}
        counts[method] = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    tracer.reset()
    cost = [[abs(i - j) + (i * j) % 7 for j in range(16)] for i in range(16)]
    tspgl.symmetric_tsp(range(16), cost)
    calls["tsp16"] = {name: s.calls for name, s in tracer.stats.items()}
    return calls, counts


def run_selftest() -> List[str]:
    """Return the problems found; an empty list means the tracer is sound."""
    from stspgl.evalcli import make_config
    from stspgl.scenarios import generate_instance
    from tracer import LAYERS, ROOT, Tracer, layer_metrics, traced

    inst = generate_instance(**TINY)
    cfg = make_config(time_limit=60.0, gap=1e-6, seed=0)
    tracer = Tracer()
    with traced(tracer):
        first_calls, first_counts = _pass(tracer, inst, cfg)
        _, second_counts = _pass(tracer, inst, cfg)
    problems = []
    for path, layers in EXPECTED.items():
        for layer in layers:
            if not first_calls[path].get(layer):
                problems.append(f"{path}: layer {layer} recorded no call")
    for path, layers in ABSENT.items():
        for layer in layers:
            if first_calls[path].get(layer):
                problems.append(f"{path}: layer {layer} recorded {first_calls[path][layer]} calls")
    reached = {layer for c in first_calls.values() for layer, n in c.items() if n}
    for layer in [ROOT] + [name for name, *_ in LAYERS]:
        if layer not in reached:
            problems.append(f"layer {layer} recorded no call on any path")
    for path in first_counts:
        for name, value in first_counts[path].items():
            again = second_counts[path].get(name)
            if again != value:
                problems.append(f"{path}: count {name} was {value}, then {again}")
    spec = HERE.parent / "BENCHMARK.json"
    if spec.is_file():
        listed = {m["name"] for m in json.loads(spec.read_text())["per_layer"]}
        no_events = SimpleNamespace(trace=SimpleNamespace(events=()))
        produced = set(layer_metrics(tracer, no_events, 0.0, 0))
        if listed != produced:
            problems.append(f"BENCHMARK.json per_layer differs from the tracer's metrics: "
                            f"missing {sorted(produced - listed)}, unknown {sorted(listed - produced)}")
    return problems


def main() -> int:
    from checkout import import_stspgl
    import_stspgl()
    problems = run_selftest()
    for line in problems:
        print("FAIL", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
