"""Experiment harness and command-line entry point.

Three study drivers sit on top of the solvers: a deterministic-vs-stochastic
comparison, a service-parameter sweep, and a benchmark table writer. The CLI
wires them to instance files.
"""

import argparse
import contextlib
import dataclasses
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .model import (INFEASIBLE, TIME_LIMIT, Instance, MetricsRow, ParameterError, StspGlResult,
                    check_instance, csv_line, load_instance, save_instance, write_lines)
from .scenarios import evaluate_metrics, generate_instance, mean_scenario
from .orchestrate import (
    SearchConfig,
    run_bp,
    run_heuristic,
    run_mip_benchmark,
)
from .colgen import CG_LOG_HEADER

_SOLVERS = {
    "mip": run_mip_benchmark,
    "bp": run_bp,
    "heuristic": run_heuristic,
    "hybrid": lambda inst, cfg: run_bp(inst, cfg, hybrid=True),
    "deterministic": lambda inst, cfg: run_mip_benchmark(mean_scenario(inst), cfg),
}
METHODS = tuple(_SOLVERS)


def make_config(time_limit: float = 3600.0, gap: float = 0.02,
                seed: int = 0) -> SearchConfig:
    """Search configuration for a total time budget, gap target and seed."""
    return SearchConfig(time_limit_total=time_limit, gap_target=gap, seed=seed)


def run_method(method: str, inst: Instance, cfg: SearchConfig) -> StspGlResult:
    """Solve with one of `METHODS` and judge the incumbent on `inst`'s
    scenarios, so a `deterministic` plan is scored on the scenarios its
    mean-demand solve never saw."""
    if method not in _SOLVERS:
        raise ValueError(f"unknown method {method!r}")
    res = _SOLVERS[method](inst, cfg)
    if res.incumbent is not None:
        res.metrics = evaluate_metrics(inst, res.incumbent.served, res.incumbent.design_cost,
                                       res.incumbent.visited)
    return res


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


def comparison_csv_line(row: ComparisonRow) -> str:
    cells = [row.nodes, row.theta, row.rho, row.method]
    for status, m in ((row.det_status, row.det), (row.sto_status, row.sto)):
        # a side without a solution has no metrics and gets empty cells
        cells += [status, *((m.design_cost, m.nbar, m.dbar, m.rhobar, m.infeasible)
                            if m is not None else (None,) * 5)]
    return csv_line(cells + [row.flagged])


def vss_experiment(inst: Instance, cfg: SearchConfig,
                   method: str = "mip") -> ComparisonRow:
    """Same method and budget on the mean-demand and stochastic variants.

    `run_method` scores both solutions on the original scenario set; the
    mean scenario is a solve-time device only.
    """
    det = run_method("deterministic", inst, cfg)
    sto = run_method(method, inst, cfg)
    flagged = det.metrics is None or sto.metrics is None \
        or det.status == INFEASIBLE or sto.status == INFEASIBLE
    return ComparisonRow(nodes=inst.n, theta=inst.theta, rho=inst.rho,
                         method=method, det_status=det.status,
                         det=det.metrics, sto_status=sto.status, sto=sto.metrics,
                         flagged=flagged)


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
    _check_grid(theta_grid)
    _check_grid(rho_grid)
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


def _check_grid(grid: Sequence[float]) -> None:
    if not grid:
        raise ValueError("grids must be nonempty")
    if not all(0.0 <= v <= 1.0 for v in grid):
        raise ValueError("grid values must lie in [0, 1]")


def write_sweep_csv(result: SweepResult, design_path, nodes_path) -> None:
    for matrix, path in ((result.design, design_path), (result.nodes_in_tour, nodes_path)):
        write_lines(path, [csv_line(["theta/rho", *result.rho_grid])] + [
            csv_line([theta, *row]) for theta, row in zip(result.theta_grid, matrix)])


# --- benchmark tables --------------------------------------------------------

# `generate_instance`'s parameters except the seed, which `_spec_instances`
# counts up from `start_seed`, plus the instance count
GENERATOR_KEYS = (frozenset(inspect.signature(generate_instance).parameters) - {"seed"}) \
    | {"count", "start_seed"}


def _integer(key: str, value) -> int:
    """`value` as an int if it is integral (4 or 4.0), else a ValueError
    naming the spec key; a bool is not an integer here."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ValueError(f"{key!r} takes integers, not {value!r}")
    return int(value)


@dataclass
class ExperimentSpec:
    instances: List[str] = field(default_factory=list)   # instance file paths
    generator: Optional[Dict] = None                     # or generator params
    methods: List[str] = field(default_factory=lambda: ["bp"])
    seeds: List[int] = field(default_factory=lambda: [0])
    time_limit: float = 3600.0
    gap_target: float = 0.02
    out_dir: str = "bench_out"

    def __post_init__(self):
        for key in ("instances", "methods", "seeds"):
            if isinstance(getattr(self, key), str):
                raise ValueError(f"spec key {key!r} takes a list, not a string")
        self.instances = list(self.instances)
        self.methods = list(self.methods)
        self.seeds = [_integer("seeds", s) for s in self.seeds]
        self.time_limit = float(self.time_limit)
        self.gap_target = float(self.gap_target)
        self.out_dir = str(self.out_dir)

    def validate(self) -> None:
        make_config(self.time_limit, self.gap_target).validate()
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not self.methods or not self.seeds:
            raise ValueError("methods and seeds must be nonempty")
        if not self.instances and self.generator is None:
            raise ValueError("spec needs instance files or generator params")
        if self.generator is None:
            return
        unknown = sorted(set(self.generator) - GENERATOR_KEYS)
        if unknown:
            hint = "; give the first instance's seed as start_seed" if "seed" in unknown else ""
            raise ValueError(f"unknown generator keys {unknown}{hint}")
        missing = [name for name, param in inspect.signature(generate_instance).parameters.items()
                   if param.default is param.empty and name != "seed" and name not in self.generator]
        if missing:
            raise ValueError(f"missing generator keys {missing}")
        for key in ("count", "start_seed"):
            if key in self.generator:
                _integer(key, self.generator[key])
        if self.generator.get("count", 1) < 1:
            raise ValueError(f"'count' must be at least 1, not {self.generator['count']!r}")


def load_experiment_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        doc = json.load(fh)
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(ExperimentSpec)})
    if unknown:
        raise ValueError(f"unknown spec keys {unknown}")
    spec = ExperimentSpec(**doc)
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


def bench(spec: ExperimentSpec) -> List[BenchRow]:
    """Run every method on every instance and seed; persist all artifacts.

    Each run's full result JSON lands next to the CSVs, so every table cell
    can be re-derived without re-solving. Failures become rows too, with the
    exception's type and message in an `.error.json` next to the results;
    the sweep over the remaining cells continues.
    """
    spec.validate()
    instances = _spec_instances(spec)
    out = Path(spec.out_dir)
    (out / "results").mkdir(parents=True, exist_ok=True)
    rows: List[BenchRow] = []
    for name, inst in instances:
        for method in spec.methods:
            for seed in spec.seeds:
                cfg = make_config(spec.time_limit, spec.gap_target, seed)
                started = time.monotonic()
                stem = f"{name}_{method}_{seed}"
                try:
                    res = run_method(method, inst, cfg)
                except Exception as exc:       # keep the table going
                    rows.append(BenchRow(name, inst.n, len(inst.requests),
                                         inst.n_scenarios, method, seed,
                                         f"Error:{type(exc).__name__}",
                                         None, None, None,
                                         time.monotonic() - started))
                    error = {"type": type(exc).__name__, "message": str(exc)}
                    (out / "results" / f"{stem}.error.json").write_text(
                        json.dumps(error, indent=2) + "\n")
                    continue
                elapsed = time.monotonic() - started
                rows.append(BenchRow(name, inst.n, len(inst.requests),
                                     inst.n_scenarios, method, seed,
                                     res.status, res.upper_bound,
                                     res.lower_bound, res.gap, elapsed))
                (out / "results" / f"{stem}.json").write_text(res.to_json(inst))
    write_lines(out / "bench_runs.csv", [BENCH_CSV_HEADER] + [
        csv_line([*dataclasses.astuple(row)[:-1], f"{row.seconds:.3f}"]) for row in rows])
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

    write_lines(path, ["method,runs,mean_ub,mean_lb,mean_gap,mean_seconds,no_ub"] + [
        csv_line([method, len(batch), mean([r.ub for r in batch]), mean([r.lb for r in batch]),
                  mean([r.gap for r in batch]), mean([r.seconds for r in batch]),
                  sum(1 for r in batch if r.ub is None)])
        for method, batch in sorted(groups.items())])


# --- command line ------------------------------------------------------------

def _grid(text: str) -> List[float]:
    """An argparse type: comma-separated values `sweep` takes as a grid."""
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
        _check_grid(grid)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return grid


def _budget(field_name: str):
    """An argparse type: a float `SearchConfig.validate` accepts as
    `field_name`, so a bad budget is a usage error naming its flag."""
    def parse(text: str) -> float:
        try:
            value = float(text)
            SearchConfig(**{field_name: value}).validate()
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time-limit", type=_budget("time_limit_total"), default=3600.0)
    p.add_argument("--gap", type=_budget("gap_target"), default=0.02)
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
    w.add_argument("--theta-grid", type=_grid, required=True)
    w.add_argument("--rho-grid", type=_grid, required=True)
    w.add_argument("--method", choices=METHODS, default="mip")
    _add_budget_args(w)
    w.add_argument("-o", "--output", default="sweep",
                   help="output prefix for the two CSV matrices")

    b = sub.add_parser("bench", help="run a benchmark spec file")
    b.add_argument("spec")
    for command in sub.choices.values():
        command.set_defaults(usage_error=command.error)
    return parser


@contextlib.contextmanager
def _input_errors(args: argparse.Namespace):
    """Report an input that cannot be read or holds a value out of range as
    a usage error of the command: exit status 2 and one error line."""
    try:
        yield
    except (OSError, ValueError) as exc:
        args.usage_error(str(exc))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "generate":
        with _input_errors(args):
            inst = generate_instance(
                n=args.nodes, seed=args.seed, n_requests=args.requests,
                n_scenarios=args.scenarios, theta=args.theta, rho=args.rho,
                alpha=args.alpha,
            )
            save_instance(inst, args.output)
        print(f"wrote {args.output}")
        return 0

    if args.command == "bench":
        with _input_errors(args):
            spec = load_experiment_spec(args.spec)
            # bench turns a failed run into a row, so what it raises is the
            # spec's fault: an instance file it cannot load, a bad parameter
            rows = bench(spec)
        print(f"{len(rows)} runs -> {spec.out_dir}")
        return 0

    with _input_errors(args):
        inst = load_instance(args.instance)
        # sweep sets theta per cell, and a cell with theta 0 is empty by design
        check_instance(inst, routing=args.command != "sweep")

    if args.command == "solve":
        cfg = make_config(args.time_limit, args.gap, args.seed)
        res = run_method(args.method, inst, cfg)
        payload = res.to_json(inst)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(payload)
        else:
            print(payload)
        if args.trace:
            res.trace.write_csv(args.trace)
        if args.cg_log:
            write_lines(args.cg_log, [CG_LOG_HEADER] + [
                csv_line([i, *r]) for i, r in enumerate(res.rounds, start=1)])
        if res.status == INFEASIBLE:
            return 2
        if res.status == TIME_LIMIT and res.incumbent is None:
            return 3
        return 0

    if args.command == "vss":
        cfg = make_config(args.time_limit, args.gap, args.seed)
        lines = [COMPARISON_CSV_HEADER,
                 comparison_csv_line(vss_experiment(inst, cfg, method=args.method))]
        if args.output:
            write_lines(args.output, lines)
        else:
            print("\n".join(lines))
        return 0

    if args.command == "sweep":
        cfg = make_config(args.time_limit, args.gap, args.seed)
        result = sweep(inst, args.theta_grid, args.rho_grid, cfg, method=args.method)
        write_sweep_csv(result, f"{args.output}_design.csv",
                        f"{args.output}_nodes.csv")
        print(f"wrote {args.output}_design.csv and {args.output}_nodes.csv")
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
