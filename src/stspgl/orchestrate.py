"""End-to-end solvers: compact MIP benchmark, branch-and-price, heuristics.

The branch-and-price loop is a single-path dive: covers get evaluated
exactly, then excluded (column fixed to zero, pricing cut added), and the
master re-optimizes over what is left. The Lagrangian bound from pricing
drives the lower bound; evaluated covers drive the upper bound.
"""

import heapq
import math
import random
import time
from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Set, Tuple

from .model import (
    FLOW_EPS,
    INFEASIBLE,
    OPTIMAL,
    FEASIBLE,
    TIME_LIMIT,
    Arc,
    Edge,
    Instance,
    Request,
    SolveTrace,
    StspGlResult,
    TspGlSolution,
    gap_value,
    validate_instance,
)
from .scenarios import (
    RoutingCostTable,
    chance_feasible,
    deterministic_routing_costs,
    evaluate_metrics,
    required_scenario_count,
)
from .covers import FeasibilityCover, explore, local_search, make_cover
from .mpbackend import LinearModel, SolveOutcome, resolve_with_cuts, solve_lp
from .colgen import (
    ColumnPool,
    add_branching_cut,
    build_rmp,
    cg_log_line,
    extract_duals,
    lagrangian_lower_bound,
    solve_pricing,
)
from .tspgl import (
    ABORTED,
    CutPool,
    add_edge_vars,
    add_flow_vars,
    add_linking_rows,
    benders_solve_tspgl,
    chosen_edges,
    cover_bounds,
    degree_coeffs,
    find_subtours,
    flow_coeffs,
    make_subinstance,
    supply,
)

INCUMBENT_EPS = 1e-9   # strict-improvement threshold for incumbent updates
SUPPORT_EPS = 1e-6     # chi values above this count as basis support


@dataclass
class SearchConfig:
    time_limit_total: float = 3600.0
    rmp_time_limit: float = 2400.0
    pricing_time_limit: float = 1200.0
    gap_target: float = 0.02
    pricing_per_iteration: int = 5
    evals_per_iteration: int = 5
    exploration_size: Optional[int] = None   # node draw size; instance size if None
    seed: int = 0

    def validate(self) -> None:
        if self.time_limit_total <= 0 or self.rmp_time_limit <= 0 \
                or self.pricing_time_limit <= 0:
            raise ValueError("time limits must be positive")
        if not (0.0 < self.gap_target < 1.0):
            raise ValueError("gap_target must lie in (0, 1)")
        if self.pricing_per_iteration <= 0 or self.evals_per_iteration <= 0:
            raise ValueError("per-iteration budgets must be positive")
        if self.exploration_size is not None and self.exploration_size <= 0:
            raise ValueError("exploration_size must be positive when given")


class ScoredQueue:
    """Priority queue of scored covers, keyed by (ub, lb, canonical requests).

    The request tuple breaks ties so that pop order never depends on
    insertion order. Entries are unique per request set; stale heap rows
    left behind by removals are dropped lazily.
    """

    def __init__(self):
        self._heap: List[Tuple[float, float, Tuple[Request, ...]]] = []
        self._entries: Dict[Tuple[Request, ...], FeasibilityCover] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, cover: FeasibilityCover) -> bool:
        if cover.bounds is None:
            raise ValueError("cover must be scored before queueing")
        if cover.requests in self._entries:
            return False
        heapq.heappush(self._heap, (cover.bounds.ub, cover.bounds.lb, cover.requests))
        self._entries[cover.requests] = cover
        return True

    def pop(self) -> Optional[FeasibilityCover]:
        while self._heap:
            _, _, key = heapq.heappop(self._heap)
            cover = self._entries.pop(key, None)
            if cover is not None:
                return cover
        return None

    def remove(self, requests: Tuple[Request, ...]) -> None:
        self._entries.pop(requests, None)

    def smallest(self, count: int) -> List[FeasibilityCover]:
        ranked = sorted(
            self._entries.values(),
            key=lambda c: (c.bounds.ub, c.bounds.lb, c.requests),
        )
        return ranked[:count]


@dataclass
class SearchState:
    trace: SolveTrace
    start: float
    deadline: float
    ub: float = math.inf
    lb: float = -math.inf
    incumbent: Optional[TspGlSolution] = None
    cover: Optional[FeasibilityCover] = None
    evaluated: List[Tuple] = field(default_factory=list)

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def note(self, event: str, cover_size=None, nodes_visited=None) -> None:
        self.trace.append(self.elapsed(), event,
                          ub=self.ub if math.isfinite(self.ub) else None,
                          lb=self.lb if math.isfinite(self.lb) else None,
                          cover_size=cover_size, nodes_visited=nodes_visited)

    def raise_lb(self, value: float) -> None:
        # never let the reported bound cross the incumbent
        new = max(self.lb, min(value, self.ub))
        if not math.isfinite(new):
            return
        if new > self.lb:
            self.lb = new
            self.note("bound")


def update_incumbent(state: SearchState, cover: FeasibilityCover,
                     solution: TspGlSolution) -> bool:
    """Accept strictly better solutions only; log the event when accepted."""
    if solution.objective >= state.ub - INCUMBENT_EPS:
        return False
    state.ub = solution.objective
    state.incumbent = solution
    state.cover = cover
    state.lb = min(state.lb, state.ub)
    state.note("incumbent", cover_size=cover.size,
               nodes_visited=len(solution.visited))
    return True


def _window(state: SearchState, cap: Optional[float] = None) -> float:
    rem = state.remaining()
    if cap is not None:
        rem = min(rem, cap)
    return max(rem, 0.0)


def _check_inputs(inst: Instance, cfg: SearchConfig) -> None:
    cfg.validate()
    problems = validate_instance(inst)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))


def _new_state(cfg: SearchConfig) -> SearchState:
    start = time.monotonic()
    state = SearchState(trace=SolveTrace(), start=start,
                        deadline=start + cfg.time_limit_total)
    state.note("start")
    return state


def _finish(state: SearchState, inst: Instance, status: str) -> StspGlResult:
    ub = state.ub if math.isfinite(state.ub) else None
    lb = state.lb if math.isfinite(state.lb) else None
    metrics = None
    if state.incumbent is not None:
        row = evaluate_metrics(inst, state.incumbent.served,
                               state.incumbent.design_cost,
                               state.incumbent.visited)
        metrics = asdict(row)
    state.note("final")
    return StspGlResult(status=status, upper_bound=ub, lower_bound=lb,
                        gap=gap_value(ub, lb), incumbent=state.incumbent,
                        cover=state.cover, trace=state.trace,
                        evaluated=state.evaluated, metrics=metrics)


def _infeasible_result(state: SearchState, inst: Instance) -> StspGlResult:
    state.note("infeasible")
    return _finish(state, inst, INFEASIBLE)


def _gap_closed(state: SearchState, cfg: SearchConfig) -> bool:
    if not math.isfinite(state.ub):
        return False
    if state.lb >= state.ub - INCUMBENT_EPS * max(1.0, abs(state.ub)):
        return True
    g = gap_value(state.ub, state.lb if math.isfinite(state.lb) else None)
    return g is not None and g <= cfg.gap_target


def _exact(state: SearchState) -> bool:
    return math.isfinite(state.ub) and \
        state.lb >= state.ub - INCUMBENT_EPS * max(1.0, abs(state.ub))


# --- compact benchmark ------------------------------------------------------

def _benchmark_model(inst: Instance, qtilde: RoutingCostTable
                     ) -> Tuple[LinearModel, Dict[Edge, str], Dict[Request, Dict[Arc, str]]]:
    """One-shot selection model: tour edges, flows, served set, open stops."""
    model = LinearModel("benchmark")
    x = add_edge_vars(model, inst.nodes, inst.design, scale=1.0 - inst.alpha,
                      integer=True)
    for i in inst.nodes:
        lb = 1.0 if i in inst.compulsory else 0.0
        model.add_var(f"w_{i}", lb=lb, ub=1.0, integer=True)
    flows: Dict[Request, Dict[Arc, str]] = {}
    for hk in inst.requests:
        model.add_var(f"z_{hk[0]}_{hk[1]}", lb=0.0, ub=1.0, integer=True)
        flows[hk] = add_flow_vars(model, hk, inst.nodes, qtilde, inst.alpha)
    for s in range(inst.scenarios.size):
        model.add_var(f"y_{s}", lb=0.0, ub=1.0, integer=True)

    for i in inst.nodes:
        coeffs = degree_coeffs(x, i, inst.nodes)
        coeffs[f"w_{i}"] = -2.0
        model.add_constr(coeffs, "==", 0.0, name=f"deg_{i}")
    for hk, f in flows.items():
        h, k = hk
        zname = f"z_{h}_{k}"
        model.add_constr({f"w_{h}": 1.0, zname: -1.0}, ">=", 0.0)
        model.add_constr({f"w_{k}": 1.0, zname: -1.0}, ">=", 0.0)
        for i in inst.nodes:
            coeffs = flow_coeffs(f, i, inst.nodes)
            sign = supply(hk, i)
            if sign:
                coeffs[zname] = -sign
            model.add_constr(coeffs, "==", 0.0, name=f"flow_{h}_{k}_{i}")
        add_linking_rows(model, x, f)
    for s in range(inst.scenarios.size):
        total = inst.scenarios.total(s)
        coeffs = {}
        for idx, hk in enumerate(inst.requests):
            h, k = hk
            dem = inst.scenarios.demand[s][idx]
            if dem:
                coeffs[f"z_{h}_{k}"] = dem
        coeffs[f"y_{s}"] = -inst.theta * total
        model.add_constr(coeffs, ">=", 0.0, name=f"service_{s}")
    need = required_scenario_count(inst.scenarios.size, inst.rho)
    model.add_constr({f"y_{s}": 1.0 for s in range(inst.scenarios.size)},
                     ">=", float(need), name="count")
    return model, x, flows


def _benchmark_cuts(inst: Instance, x: Dict[Edge, str], out: SolveOutcome
                    ) -> List[Tuple[Dict[str, float], str, float]]:
    comps = find_subtours(chosen_edges(x, out.values))
    cuts: List[Tuple[Dict[str, float], str, float]] = []
    for comp in comps:
        inside = {x[(a, b)]: 1.0 for a in comp for b in comp if a < b}
        if not comp & inst.compulsory:
            # component may host visits, but never a full private cycle
            for v in sorted(comp):
                coeffs = dict(inside)
                for i in comp:
                    if i != v:
                        coeffs[f"w_{i}"] = coeffs.get(f"w_{i}", 0.0) - 1.0
                cuts.append((coeffs, "<=", 0.0))
        elif not (inst.compulsory <= comp):
            crossing = {name: 1.0 for (a, b), name in x.items()
                        if (a in comp) != (b in comp)}
            cuts.append((crossing, ">=", 2.0))
    return cuts


def _benchmark_solution(inst: Instance, qtilde: RoutingCostTable, x: Dict[Edge, str],
                        f: Dict[Request, Dict[Arc, str]], out: SolveOutcome
                        ) -> Tuple[TspGlSolution, FeasibilityCover]:
    served = [(h, k) for h, k in inst.requests if out.values[f"z_{h}_{k}"] > 0.5]
    tour_edges = set(chosen_edges(x, out.values))
    design = sum(inst.cbar(a, b) for a, b in tour_edges)
    routing = 0.0
    flows: Dict[Request, Dict[Arc, float]] = {}
    for hk in served:
        arcflow = {}
        for (i, j), name in f[hk].items():
            val = out.values[name]
            if val > FLOW_EPS:
                arcflow[(i, j)] = val
                routing += qtilde.cost(hk, i, j) * val
        flows[hk] = arcflow
    total = (1.0 - inst.alpha) * design + inst.alpha * routing
    sol = TspGlSolution(tour_edges=frozenset(tour_edges), flows=flows,
                        objective=total, design_cost=design,
                        routing_cost=routing, served=tuple(sorted(served)))
    return sol, make_cover(inst, served)


def run_mip_benchmark(inst: Instance, cfg: SearchConfig) -> StspGlResult:
    """Solve the whole selection problem as one MIP with lazy cycle cuts."""
    _check_inputs(inst, cfg)
    qtilde = deterministic_routing_costs(inst)
    state = _new_state(cfg)
    if not chance_feasible(inst, inst.requests):
        return _infeasible_result(state, inst)
    model, x, flows = _benchmark_model(inst, qtilde)
    out = resolve_with_cuts(model, lambda o: _benchmark_cuts(inst, x, o),
                            max_rounds=4 * inst.n * max(1, inst.n),
                            time_limit=_window(state))
    if out.status == INFEASIBLE:
        return _infeasible_result(state, inst)
    if not out.solved:
        return _finish(state, inst, TIME_LIMIT)
    sol, cover = _benchmark_solution(inst, qtilde, x, flows, out)
    update_incumbent(state, cover, sol)
    if out.status == OPTIMAL and out.cuts_complete:
        state.raise_lb(state.ub)
        return _finish(state, inst, OPTIMAL)
    if out.best_bound is not None and math.isfinite(out.best_bound):
        state.raise_lb(out.best_bound)
    return _finish(state, inst, TIME_LIMIT)


# --- scoring ----------------------------------------------------------------

def _score_cover(inst: Instance, qtilde: RoutingCostTable, cutpool: CutPool,
                 cover: FeasibilityCover) -> FeasibilityCover:
    sub = make_subinstance(inst, cover, qtilde)
    cover.bounds = cover_bounds(sub, cutpool=cutpool)
    return cover


def _score_and_enqueue(state: SearchState, inst: Instance,
                       qtilde: RoutingCostTable, cutpool: CutPool,
                       queue: ScoredQueue, scored: Set[Tuple[Request, ...]],
                       cover: FeasibilityCover,
                       pool: Optional[ColumnPool] = None) -> None:
    if cover.requests in scored:
        return
    scored.add(cover.requests)
    _score_cover(inst, qtilde, cutpool, cover)
    state.note("score", cover_size=cover.size, nodes_visited=len(cover.visited))
    if cover.bounds.lb >= state.ub - INCUMBENT_EPS:
        if pool is not None:
            add_branching_cut(pool, cover.requests)
        state.note("discard", cover_size=cover.size)
        return
    queue.push(cover)


def _evaluate_cover(state: SearchState, inst: Instance,
                    qtilde: RoutingCostTable, cutpool: CutPool,
                    cover: FeasibilityCover,
                    pool: Optional[ColumnPool] = None) -> None:
    """Exact TSP-GL for one queued cover; incumbent and audit upkeep."""
    if cover.bounds.lb >= state.ub - INCUMBENT_EPS:
        if pool is not None:
            add_branching_cut(pool, cover.requests)
        state.note("discard", cover_size=cover.size)
        return
    sub = make_subinstance(inst, cover, qtilde)
    incumbent_ub = state.ub if math.isfinite(state.ub) else None
    out = benders_solve_tspgl(sub, warm=cover.bounds, incumbent_ub=incumbent_ub,
                              time_limit=_window(state), cutpool=cutpool)
    if out.status == ABORTED:
        if pool is not None:
            add_branching_cut(pool, cover.requests)
        state.note("abort", cover_size=cover.size)
        return
    if out.status == OPTIMAL and out.solution is not None:
        cover.evaluated = True
        state.evaluated.append((cover.requests, cover.bounds.lb,
                                cover.bounds.ub, out.solution.objective))
        update_incumbent(state, cover, out.solution)
        if pool is not None:
            add_branching_cut(pool, cover.requests)
        state.note("evaluate", cover_size=cover.size,
                   nodes_visited=len(out.solution.visited))
        return
    # ran out of time mid-evaluation: keep any feasible tour, skip branching
    if out.solution is not None:
        update_incumbent(state, cover, out.solution)


# --- branch and price -------------------------------------------------------

def run_bp(inst: Instance, cfg: SearchConfig, hybrid: bool = False,
           cg_log: Optional[List[str]] = None) -> StspGlResult:
    """Column-generation dive with exact cover evaluations.

    Each iteration runs up to `pricing_per_iteration` pricing rounds, scores
    the master's support covers, and exactly evaluates up to
    `evals_per_iteration` covers from the queue. Evaluated or dominated
    covers leave the search through branching cuts, so the master tightens
    monotonically until the gap target, the clock, or exhaustion stops it.
    """
    _check_inputs(inst, cfg)
    qtilde = deterministic_routing_costs(inst)
    state = _new_state(cfg)
    if not chance_feasible(inst, inst.requests):
        return _infeasible_result(state, inst)

    rng = random.Random(cfg.seed)
    pool = ColumnPool()
    pool.add(make_cover(inst, inst.requests))
    cutpool = CutPool()
    queue = ScoredQueue()
    scored: Set[Tuple[Request, ...]] = set()
    seen_nodesets: Set[frozenset] = set()
    nmin = max(1, len(inst.compulsory))
    base_size = min(inst.n, max(nmin, cfg.exploration_size or inst.n))

    if hybrid:
        for _ in range(cfg.evals_per_iteration):
            cov = explore(inst, base_size, seed=rng.randrange(1 << 31),
                          seen=seen_nodesets)
            if cov is not None:
                pool.add(cov)

    status = FEASIBLE
    rounds_total = 0
    iteration = 0
    while True:
        iteration += 1
        if state.remaining() <= 0:
            status = TIME_LIMIT
            break
        progress = False

        # phase 1: generate columns and tighten the Lagrangian bound
        pricing_state = "open"
        for _ in range(cfg.pricing_per_iteration):
            if state.remaining() <= 0:
                pricing_state = "timeout"
                break
            model, index = build_rmp(inst, pool, qtilde)
            rmp_out = solve_lp(model, time_limit=_window(state, cfg.rmp_time_limit))
            if rmp_out.status == INFEASIBLE:
                # every admissible cover is branched away: the dive is done
                state.raise_lb(state.ub)
                pricing_state = "closed"
                break
            if rmp_out.status != OPTIMAL or rmp_out.duals is None:
                pricing_state = "timeout"
                break
            duals = extract_duals(inst, index, rmp_out)
            pres = solve_pricing(inst, duals, phi=sorted(pool.branched),
                                 time_limit=_window(state, cfg.pricing_time_limit))
            rounds_total += 1
            if math.isfinite(pres.objective):
                state.raise_lb(lagrangian_lower_bound(rmp_out.objective,
                                                      pres.objective))
            elif pres.objective == math.inf and math.isfinite(state.ub):
                state.raise_lb(state.ub)
            if cg_log is not None:
                cg_log.append(cg_log_line(
                    rounds_total, rmp_out.objective,
                    pres.objective if math.isfinite(pres.objective) else None,
                    state.lb if math.isfinite(state.lb) else None,
                    len(pool.columns), len(pool.branched)))
            if pres.cover is None:
                if pres.status == TIME_LIMIT:
                    pricing_state = "timeout"
                elif pres.objective == math.inf:
                    pricing_state = "exhausted"
                else:
                    pricing_state = "converged"
                break
            new_cover: Optional[FeasibilityCover] = None
            if pool.add(pres.cover):
                new_cover = pres.cover
            elif pres.raw_requests is not None:
                raw = make_cover(inst, pres.raw_requests)
                if pool.add(raw):
                    new_cover = raw
            if new_cover is None:
                # both forms already pooled: numerically converged
                pricing_state = "converged"
                break
            progress = True
            if hybrid:
                size = min(inst.n, max(nmin, len(new_cover.visited)))
                ls = local_search(inst, new_cover, seed=rng.randrange(1 << 31))
                ex = explore(inst, size, seed=rng.randrange(1 << 31),
                             seen=seen_nodesets)
                for cand in (ls, ex):
                    if cand is not None and cand.requests not in pool.branched:
                        before = len(scored)
                        _score_and_enqueue(state, inst, qtilde, cutpool, queue,
                                           scored, cand, pool=pool)
                        progress = progress or len(scored) > before
        if pricing_state == "closed":
            status = OPTIMAL if _exact(state) else FEASIBLE
            break
        if pricing_state == "timeout" and state.remaining() <= 0:
            status = TIME_LIMIT
            break
        if _gap_closed(state, cfg):
            status = OPTIMAL if _exact(state) else FEASIBLE
            break

        # phase 2: score the master's support covers
        if state.remaining() <= 0:
            status = TIME_LIMIT
            break
        model, index = build_rmp(inst, pool, qtilde)
        rmp_out = solve_lp(model, time_limit=_window(state, cfg.rmp_time_limit))
        if rmp_out.status == INFEASIBLE:
            state.raise_lb(state.ub)
            status = OPTIMAL if _exact(state) else FEASIBLE
            break
        if rmp_out.status == OPTIMAL:
            for cover in pool.columns:
                if cover.requests in pool.branched or cover.requests in scored:
                    continue
                name = index.chi[cover.requests]
                if rmp_out.values.get(name, 0.0) > SUPPORT_EPS:
                    before = len(scored)
                    _score_and_enqueue(state, inst, qtilde, cutpool, queue,
                                       scored, cover, pool=pool)
                    progress = progress or len(scored) > before
        if iteration == 1 and not queue and state.incumbent is None:
            # guarantee a first incumbent: fall back on serving everything
            full = pool.columns[0]
            if full.requests not in scored:
                _score_and_enqueue(state, inst, qtilde, cutpool, queue,
                                   scored, full, pool=pool)
                progress = True

        # phase 3: exact evaluation of the most promising covers
        for cover in queue.smallest(cfg.evals_per_iteration):
            if state.remaining() <= 0:
                status = TIME_LIMIT
                break
            queue.remove(cover.requests)
            _evaluate_cover(state, inst, qtilde, cutpool, cover, pool=pool)
            progress = True
        if status == TIME_LIMIT:
            break

        if _gap_closed(state, cfg):
            status = OPTIMAL if _exact(state) else FEASIBLE
            break
        if pricing_state in ("converged", "exhausted") and not queue and not progress:
            status = OPTIMAL if _exact(state) else FEASIBLE
            break

    return _finish(state, inst, status)


def run_hybrid(inst: Instance, cfg: SearchConfig,
               cg_log: Optional[List[str]] = None) -> StspGlResult:
    """Branch-and-price warmed and widened by the exploration operators."""
    return run_bp(inst, cfg, hybrid=True, cg_log=cg_log)


# --- sampling heuristic -----------------------------------------------------

def run_heuristic(inst: Instance, cfg: SearchConfig) -> StspGlResult:
    """Exploration and local search only: upper bounds, no lower bound.

    Each pass draws a fresh minimal cover, improves the two cheapest queued
    covers by local search, and exactly evaluates the queue head when its
    bound leaves room below the incumbent. The draw size shrinks as sizes
    get exhausted and wraps around; the loop stops at the clock or once
    every size stalls with an empty queue.
    """
    _check_inputs(inst, cfg)
    qtilde = deterministic_routing_costs(inst)
    state = _new_state(cfg)
    if not chance_feasible(inst, inst.requests):
        return _infeasible_result(state, inst)

    rng = random.Random(cfg.seed)
    cutpool = CutPool()
    queue = ScoredQueue()
    scored: Set[Tuple[Request, ...]] = set()
    seen_nodesets: Set[frozenset] = set()
    nmin = max(1, len(inst.compulsory))
    base_size = min(inst.n, max(nmin, cfg.exploration_size or inst.n))
    size = base_size
    span = base_size - nmin + 1
    failures = 0

    while state.remaining() > 0:
        cov = explore(inst, size, seed=rng.randrange(1 << 31), seen=seen_nodesets)
        if cov is None:
            failures += 1
            size = size - 1 if size > nmin else base_size
        else:
            failures = 0
            _score_and_enqueue(state, inst, qtilde, cutpool, queue, scored, cov)
        for base in queue.smallest(2):
            ls = local_search(inst, base, seed=rng.randrange(1 << 31))
            if ls is not None:
                _score_and_enqueue(state, inst, qtilde, cutpool, queue, scored, ls)
        top = queue.pop()
        if top is not None:
            _evaluate_cover(state, inst, qtilde, cutpool, top)
        if failures >= span and not queue:
            break

    status = TIME_LIMIT if state.remaining() <= 0 else FEASIBLE
    if state.incumbent is None:
        status = TIME_LIMIT
    result = _finish(state, inst, status)
    result.lower_bound = None
    result.gap = None
    return result
