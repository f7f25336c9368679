"""Experiment harness and command-line entry point.

Three study drivers sit on top of the solvers: a deterministic-vs-stochastic
comparison, a service-parameter sweep, and a benchmark table writer. The CLI
wires them to instance files.
"""

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .model import (INFEASIBLE, TIME_LIMIT, Instance, ParameterError, StspGlResult, csv_cell,
                    load_instance, save_instance)
from .scenarios import (
    MetricsRow,
    evaluate_metrics,
    generate_instance,
    mean_scenario,
)
from .orchestrate import (
    SearchConfig,
    run_bp,
    run_heuristic,
    run_hybrid,
    run_mip_benchmark,
)
from .colgen import CG_LOG_HEADER

METHODS = ("mip", "bp", "heuristic", "hybrid", "deterministic")


def make_config(time_limit: float = 3600.0, gap: float = 0.02,
                seed: int = 0) -> SearchConfig:
    """Search configuration for a total time budget, gap target and seed."""
    return SearchConfig(time_limit_total=time_limit, gap_target=gap, seed=seed)


def solve_deterministic(inst: Instance, cfg: SearchConfig) -> StspGlResult:
    """Solve the mean-demand counterpart, then judge it on the real scenarios.

    The single averaged scenario makes the chance constraint a plain service
    constraint; the result's metrics block is recomputed on the original
    scenario set so the reported quality is comparable with stochastic runs.
    """
    det = mean_scenario(inst)
    result = run_mip_benchmark(det, cfg)
    if result.incumbent is not None:
        row = evaluate_metrics(inst, result.incumbent.served,
                               result.incumbent.design_cost,
                               result.incumbent.visited)
        result.metrics = dataclasses.asdict(row)
    return result


def run_method(method: str, inst: Instance, cfg: SearchConfig,
               cg_log: Optional[List[str]] = None) -> StspGlResult:
    """Solve with one of `METHODS`; `bp` and `hybrid` append their pricing
    rounds to `cg_log` when it is a list."""
    if method == "mip":
        return run_mip_benchmark(inst, cfg)
    if method == "bp":
        return run_bp(inst, cfg, cg_log=cg_log)
    if method == "heuristic":
        return run_heuristic(inst, cfg)
    if method == "hybrid":
        return run_hybrid(inst, cfg, cg_log=cg_log)
    if method == "deterministic":
        return solve_deterministic(inst, cfg)
    raise ValueError(f"unknown method {method!r}")


# --- deterministic vs stochastic comparison ---------------------------------

@dataclass
class ComparisonRow:
    nodes: int
    theta: float
    rho: float
    method: str
    det_status: str
    det: Optional[MetricsRow]
    sto_status: str
    sto: Optional[MetricsRow]
    flagged: bool        # either side failed to produce a solution


COMPARISON_CSV_HEADER = (
    "nodes,theta,rho,method,det_status,det_design,det_nbar,det_dbar,"
    "det_rhobar,det_infeasible,sto_status,sto_design,sto_nbar,sto_dbar,"
    "sto_rhobar,sto_infeasible,flagged"
)


def _metrics_cells(row: Optional[MetricsRow]) -> List[str]:
    if row is None:
        return [""] * 5
    return [csv_cell(v) for v in (row.design_cost, row.nbar, row.dbar, row.rhobar,
                                  row.infeasible)]


def comparison_csv_line(row: ComparisonRow) -> str:
    cells = [str(row.nodes), repr(row.theta), repr(row.rho), row.method,
             row.det_status] + _metrics_cells(row.det) + [row.sto_status] \
        + _metrics_cells(row.sto) + [str(row.flagged)]
    return ",".join(cells)


def vss_experiment(inst: Instance, cfg: SearchConfig,
                   method: str = "mip") -> ComparisonRow:
    """Same method and budget on the mean-demand and stochastic variants.

    Both solutions are scored by evaluate_metrics on the original scenario
    set; the mean scenario is a solve-time device only.
    """
    det_res = solve_deterministic(inst, cfg)
    sto_res = run_method(method, inst, cfg)
    det_row = MetricsRow(**det_res.metrics) if det_res.metrics is not None else None
    sto_row = MetricsRow(**sto_res.metrics) if sto_res.metrics is not None else None
    flagged = det_row is None or sto_row is None \
        or det_res.status == INFEASIBLE or sto_res.status == INFEASIBLE
    return ComparisonRow(nodes=inst.n, theta=inst.theta, rho=inst.rho,
                         method=method, det_status=det_res.status,
                         det=det_row, sto_status=sto_res.status, sto=sto_row,
                         flagged=flagged)


def write_comparison_csv(rows: Sequence[ComparisonRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(COMPARISON_CSV_HEADER + "\n")
        for row in rows:
            fh.write(comparison_csv_line(row) + "\n")


# --- theta/rho sweep ---------------------------------------------------------

@dataclass
class SweepResult:
    theta_grid: Tuple[float, ...]
    rho_grid: Tuple[float, ...]
    design: List[List[Optional[float]]]      # [theta][rho], None = no solution
    nodes_in_tour: List[List[Optional[int]]]


def sweep(inst: Instance, theta_grid: Sequence[float],
          rho_grid: Sequence[float], cfg: SearchConfig,
          method: str = "mip") -> SweepResult:
    """Re-solve one instance over a grid of service parameters."""
    if not theta_grid or not rho_grid:
        raise ValueError("grids must be nonempty")
    for v in list(theta_grid) + list(rho_grid):
        if not (0.0 <= v <= 1.0):
            raise ValueError("grid values must lie in [0, 1]")
    design: List[List[Optional[float]]] = []
    nodes: List[List[Optional[int]]] = []
    for theta in theta_grid:
        drow: List[Optional[float]] = []
        nrow: List[Optional[int]] = []
        for rho in rho_grid:
            cell = dataclasses.replace(inst, theta=float(theta), rho=float(rho))
            try:
                res = run_method(method, cell, cfg)
            except ParameterError:
                res = None        # theta=0 has no routing weights
            if res is None or res.incumbent is None:
                drow.append(None)
                nrow.append(None)
            else:
                drow.append(res.incumbent.design_cost)
                nrow.append(len(res.incumbent.visited))
        design.append(drow)
        nodes.append(nrow)
    return SweepResult(theta_grid=tuple(float(t) for t in theta_grid),
                       rho_grid=tuple(float(r) for r in rho_grid),
                       design=design, nodes_in_tour=nodes)


def write_sweep_csv(result: SweepResult, design_path, nodes_path) -> None:
    def dump(matrix, path):
        with open(path, "w") as fh:
            header = ["theta/rho"] + [repr(r) for r in result.rho_grid]
            fh.write(",".join(header) + "\n")
            for theta, row in zip(result.theta_grid, matrix):
                cells = [repr(theta)] + [csv_cell(val) for val in row]
                fh.write(",".join(cells) + "\n")

    dump(result.design, design_path)
    dump(result.nodes_in_tour, nodes_path)


# --- benchmark tables --------------------------------------------------------

@dataclass
class ExperimentSpec:
    instances: List[str] = field(default_factory=list)   # instance file paths
    generator: Optional[Dict] = None                     # or generator params
    methods: List[str] = field(default_factory=lambda: ["bp"])
    seeds: List[int] = field(default_factory=lambda: [0])
    time_limit: float = 3600.0
    gap_target: float = 0.02
    out_dir: str = "bench_out"

    def validate(self) -> None:
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not self.methods or not self.seeds:
            raise ValueError("methods and seeds must be nonempty")
        if not self.instances and self.generator is None:
            raise ValueError("spec needs instance files or generator params")


def load_experiment_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        doc = json.load(fh)
    spec = ExperimentSpec(
        instances=list(doc.get("instances", [])),
        generator=doc.get("generator"),
        methods=list(doc.get("methods", ["bp"])),
        seeds=[int(s) for s in doc.get("seeds", [0])],
        time_limit=float(doc.get("time_limit", 3600.0)),
        gap_target=float(doc.get("gap_target", 0.02)),
        out_dir=str(doc.get("out_dir", "bench_out")),
    )
    spec.validate()
    return spec


def _spec_instances(spec: ExperimentSpec) -> List[Tuple[str, Instance]]:
    pairs: List[Tuple[str, Instance]] = []
    for path in spec.instances:
        pairs.append((Path(path).stem, load_instance(path)))
    if spec.generator is not None:
        params = dict(spec.generator)
        count = int(params.pop("count", 1))
        start = int(params.pop("start_seed", 0))
        for i in range(count):
            seed = start + i
            pairs.append((f"gen{seed}", generate_instance(seed=seed, **params)))
    return pairs


@dataclass
class BenchRow:
    instance: str
    nodes: int
    requests: int
    scenarios: int
    method: str
    seed: int
    status: str
    ub: Optional[float]
    lb: Optional[float]
    gap: Optional[float]
    seconds: float


BENCH_CSV_HEADER = ("instance,nodes,requests,scenarios,method,seed,status,"
                    "ub,lb,gap,seconds")


def bench_csv_line(row: BenchRow) -> str:
    return ",".join([
        row.instance, str(row.nodes), str(row.requests), str(row.scenarios),
        row.method, str(row.seed), row.status, csv_cell(row.ub), csv_cell(row.lb),
        csv_cell(row.gap), f"{row.seconds:.3f}",
    ])


def bench(spec: ExperimentSpec) -> List[BenchRow]:
    """Run every method on every instance and seed; persist all artifacts.

    Each run's full result JSON lands next to the CSVs, so every table cell
    can be re-derived without re-solving. Failures become rows too, with the
    exception's type and message in an `.error.json` next to the results;
    the sweep over the remaining cells continues.
    """
    spec.validate()
    out = Path(spec.out_dir)
    (out / "results").mkdir(parents=True, exist_ok=True)
    rows: List[BenchRow] = []
    for name, inst in _spec_instances(spec):
        for method in spec.methods:
            for seed in spec.seeds:
                cfg = make_config(spec.time_limit, spec.gap_target, seed)
                started = time.monotonic()
                stem = f"{name}_{method}_{seed}"
                try:
                    res = run_method(method, inst, cfg)
                except Exception as exc:       # keep the table going
                    rows.append(BenchRow(name, inst.n, len(inst.requests),
                                         inst.scenarios.size, method, seed,
                                         f"Error:{type(exc).__name__}",
                                         None, None, None,
                                         time.monotonic() - started))
                    error = {"type": type(exc).__name__, "message": str(exc)}
                    (out / "results" / f"{stem}.error.json").write_text(
                        json.dumps(error, indent=2) + "\n")
                    continue
                elapsed = time.monotonic() - started
                rows.append(BenchRow(name, inst.n, len(inst.requests),
                                     inst.scenarios.size, method, seed,
                                     res.status, res.upper_bound,
                                     res.lower_bound, res.gap, elapsed))
                (out / "results" / f"{stem}.json").write_text(res.to_json(inst))
    with open(out / "bench_runs.csv", "w") as fh:
        fh.write(BENCH_CSV_HEADER + "\n")
        for row in rows:
            fh.write(bench_csv_line(row) + "\n")
    _write_bench_table(rows, out / "bench_table.csv")
    return rows


def _write_bench_table(rows: Sequence[BenchRow], path) -> None:
    """Per-method aggregate: mean UB/LB/gap/time plus a no-UB count."""
    groups: Dict[str, List[BenchRow]] = {}
    for row in rows:
        groups.setdefault(row.method, []).append(row)

    def mean(vals):
        vals = [v for v in vals if v is not None and math.isfinite(v)]
        return sum(vals) / len(vals) if vals else None

    with open(path, "w") as fh:
        fh.write("method,runs,mean_ub,mean_lb,mean_gap,mean_seconds,no_ub\n")
        for method in sorted(groups):
            batch = groups[method]
            no_ub = sum(1 for r in batch if r.ub is None)
            cells = [
                method,
                str(len(batch)),
                csv_cell(mean([r.ub for r in batch])),
                csv_cell(mean([r.lb for r in batch])),
                csv_cell(mean([r.gap for r in batch])),
                csv_cell(mean([r.seconds for r in batch])),
                str(no_ub),
            ]
            fh.write(",".join(cells) + "\n")


# --- command line ------------------------------------------------------------

def _parse_grid(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time-limit", type=float, default=3600.0)
    p.add_argument("--gap", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stspgl",
        description="Solvers and experiments for tour design with "
                    "scenario-based passenger demand.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random instance file")
    g.add_argument("--nodes", type=int, required=True)
    g.add_argument("--requests", type=int, default=None)
    g.add_argument("--scenarios", type=int, default=5)
    g.add_argument("--theta", type=float, default=0.95)
    g.add_argument("--rho", type=float, default=0.05)
    g.add_argument("--alpha", type=float, default=0.25)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)

    s = sub.add_parser("solve", help="solve one instance file")
    s.add_argument("instance")
    s.add_argument("--method", choices=METHODS, default="bp")
    _add_budget_args(s)
    s.add_argument("--trace", default=None, help="write the event trace CSV")
    s.add_argument("--cg-log", default=None,
                   help="write the pricing-round log; only bp and hybrid price, "
                        "so other methods write just its header")
    s.add_argument("-o", "--output", default=None, help="result JSON path")

    v = sub.add_parser("vss", help="deterministic vs stochastic comparison")
    v.add_argument("instance")
    v.add_argument("--method", choices=METHODS, default="mip")
    _add_budget_args(v)
    v.add_argument("-o", "--output", default=None, help="comparison CSV path")

    w = sub.add_parser("sweep", help="re-solve over a theta/rho grid")
    w.add_argument("instance")
    w.add_argument("--theta-grid", required=True)
    w.add_argument("--rho-grid", required=True)
    w.add_argument("--method", choices=METHODS, default="mip")
    _add_budget_args(w)
    w.add_argument("-o", "--output", default="sweep",
                   help="output prefix for the two CSV matrices")

    b = sub.add_parser("bench", help="run a benchmark spec file")
    b.add_argument("spec")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "generate":
        inst = generate_instance(
            n=args.nodes, seed=args.seed, n_requests=args.requests,
            n_scenarios=args.scenarios, theta=args.theta, rho=args.rho,
            alpha=args.alpha,
        )
        save_instance(inst, args.output)
        print(f"wrote {args.output}")
        return 0

    if args.command == "solve":
        inst = load_instance(args.instance)
        cfg = make_config(args.time_limit, args.gap, args.seed)
        cg_lines: Optional[List[str]] = [] if args.cg_log else None
        res = run_method(args.method, inst, cfg, cg_log=cg_lines)
        payload = res.to_json(inst)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(payload)
        else:
            print(payload)
        if args.trace:
            res.trace.write_csv(args.trace)
        if cg_lines is not None:
            with open(args.cg_log, "w") as fh:
                fh.write(CG_LOG_HEADER + "\n")
                for line in cg_lines:
                    fh.write(line + "\n")
        if res.status == INFEASIBLE:
            return 2
        if res.status == TIME_LIMIT and res.incumbent is None:
            return 3
        return 0

    if args.command == "vss":
        inst = load_instance(args.instance)
        cfg = make_config(args.time_limit, args.gap, args.seed)
        row = vss_experiment(inst, cfg, method=args.method)
        if args.output:
            write_comparison_csv([row], args.output)
        else:
            print(COMPARISON_CSV_HEADER)
            print(comparison_csv_line(row))
        return 0

    if args.command == "sweep":
        inst = load_instance(args.instance)
        cfg = make_config(args.time_limit, args.gap, args.seed)
        result = sweep(inst, _parse_grid(args.theta_grid),
                       _parse_grid(args.rho_grid), cfg, method=args.method)
        write_sweep_csv(result, f"{args.output}_design.csv",
                        f"{args.output}_nodes.csv")
        print(f"wrote {args.output}_design.csv and {args.output}_nodes.csv")
        return 0

    if args.command == "bench":
        spec = load_experiment_spec(args.spec)
        rows = bench(spec)
        print(f"{len(rows)} runs -> {spec.out_dir}")
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
