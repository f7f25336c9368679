"""End-to-end solvers: compact MIP benchmark, branch-and-price, heuristics.

The branch-and-price loop is a single-path dive: covers get evaluated
exactly, then excluded (column fixed to zero, pricing cut added), and the
master re-optimizes over what is left. The Lagrangian bound from pricing
drives the lower bound; evaluated covers drive the upper bound.
"""

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
    extend_rmp,
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

INCUMBENT_EPS = 1e-9        # strict-improvement threshold for incumbent updates
SUPPORT_EPS = 1e-6          # chi values above this count as basis support
RMP_SHARE = 2.0 / 3.0       # cap of one RMP LP, as a share of the total budget
PRICING_SHARE = 1.0 / 3.0   # cap of one pricing IP, as a share of the total budget
PRICING_PER_ITERATION = 5   # pricing rounds per branch-and-price iteration
EVALS_PER_ITERATION = 5     # exact cover evaluations per iteration


@dataclass
class SearchConfig:
    time_limit_total: float = 3600.0
    gap_target: float = 0.02
    seed: int = 0

    def validate(self) -> None:
        if not self.time_limit_total > 0:
            raise ValueError("time_limit_total must be positive")
        if not (0.0 < self.gap_target < 1.0):
            raise ValueError("gap_target must lie in (0, 1)")


class ScoredQueue:
    """Scored covers ranked by (ub, lb, canonical requests).

    The request tuple breaks ties, so the ranking is a total order and never
    depends on insertion order. Entries are unique per request set.
    """

    def __init__(self):
        self._entries: Dict[Tuple[Request, ...], FeasibilityCover] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, cover: FeasibilityCover) -> bool:
        if cover.bounds is None:
            raise ValueError("cover must be scored before queueing")
        if cover.requests in self._entries:
            return False
        self._entries[cover.requests] = cover
        return True

    def pop(self) -> Optional[FeasibilityCover]:
        top = self.smallest(1)
        if not top:
            return None
        return self._entries.pop(top[0].requests)

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


def _exact(state: SearchState) -> bool:
    return math.isfinite(state.ub) and \
        state.lb >= state.ub - INCUMBENT_EPS * max(1.0, abs(state.ub))


def _gap_closed(state: SearchState, cfg: SearchConfig) -> bool:
    if _exact(state):
        return True
    g = gap_value(state.ub, state.lb)
    return g is not None and g <= cfg.gap_target


# --- compact benchmark ------------------------------------------------------

def _benchmark_model(inst: Instance, qtilde: RoutingCostTable):
    """One-shot selection model: tour edges, open stops w, served requests z,
    flows, and met scenarios y. Returns the model and the handle maps of x,
    w, z and the flows."""
    model = LinearModel()
    x = add_edge_vars(model, inst.nodes, inst.design, scale=1.0 - inst.alpha,
                      integer=True)
    w = {i: model.add_var(lb=1.0 if i in inst.compulsory else 0.0, ub=1.0, integer=True)
         for i in inst.nodes}
    z: Dict[Request, int] = {}
    flows: Dict[Request, Dict[Arc, int]] = {}
    for hk in inst.requests:
        z[hk] = model.add_var(lb=0.0, ub=1.0, integer=True)
        flows[hk] = add_flow_vars(model, hk, inst.nodes, qtilde, inst.alpha)
    y = [model.add_var(lb=0.0, ub=1.0, integer=True) for _s in range(inst.scenarios.size)]

    for i in inst.nodes:
        coeffs = degree_coeffs(x, i, inst.nodes)
        coeffs[w[i]] = -2.0
        model.add_constr(coeffs, "==", 0.0)
    for hk, f in flows.items():
        h, k = hk
        model.add_constr({w[h]: 1.0, z[hk]: -1.0}, ">=", 0.0)
        model.add_constr({w[k]: 1.0, z[hk]: -1.0}, ">=", 0.0)
        for i in inst.nodes:
            coeffs = flow_coeffs(f, i, inst.nodes)
            sign = supply(hk, i)
            if sign:
                coeffs[z[hk]] = -sign
            model.add_constr(coeffs, "==", 0.0)
        add_linking_rows(model, x, f)
    for s in range(inst.scenarios.size):
        coeffs = {z[hk]: inst.scenarios.demand[s][idx]
                  for idx, hk in enumerate(inst.requests) if inst.scenarios.demand[s][idx]}
        coeffs[y[s]] = -inst.theta * inst.scenarios.total(s)
        model.add_constr(coeffs, ">=", 0.0)
    need = required_scenario_count(inst.scenarios.size, inst.rho)
    model.add_constr({col: 1.0 for col in y}, ">=", float(need))
    return model, x, w, z, flows


def _benchmark_cuts(inst: Instance, x: Dict[Edge, int], w: Dict[int, int],
                    out: SolveOutcome) -> List[Tuple[Dict[int, float], str, float]]:
    comps = find_subtours(chosen_edges(x, out.values))
    cuts: List[Tuple[Dict[int, float], str, float]] = []
    for comp in comps:
        inside = {x[(a, b)]: 1.0 for a in comp for b in comp if a < b}
        if not comp & inst.compulsory:
            # component may host visits, but never a full private cycle
            for v in sorted(comp):
                coeffs = dict(inside)
                for i in comp:
                    if i != v:
                        coeffs[w[i]] = -1.0
                cuts.append((coeffs, "<=", 0.0))
        elif not (inst.compulsory <= comp):
            crossing = {col: 1.0 for (a, b), col in x.items()
                        if (a in comp) != (b in comp)}
            cuts.append((crossing, ">=", 2.0))
    return cuts


def _benchmark_solution(inst: Instance, qtilde: RoutingCostTable, x: Dict[Edge, int],
                        z: Dict[Request, int], f: Dict[Request, Dict[Arc, int]],
                        out: SolveOutcome) -> Tuple[TspGlSolution, FeasibilityCover]:
    served = [hk for hk in inst.requests if out.values[z[hk]] > 0.5]
    tour_edges = set(chosen_edges(x, out.values))
    design = sum(inst.cbar(a, b) for a, b in tour_edges)
    routing = 0.0
    flows: Dict[Request, Dict[Arc, float]] = {}
    for hk in served:
        arcflow = {}
        for (i, j), col in f[hk].items():
            val = out.values[col]
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
    model, x, w, z, flows = _benchmark_model(inst, qtilde)
    out = resolve_with_cuts(model, lambda o: _benchmark_cuts(inst, x, w, o),
                            max_rounds=4 * inst.n * max(1, inst.n),
                            time_limit=_window(state))
    if out.status == INFEASIBLE:
        return _infeasible_result(state, inst)
    if not out.solved:
        return _finish(state, inst, TIME_LIMIT)
    sol, cover = _benchmark_solution(inst, qtilde, x, z, flows, out)
    update_incumbent(state, cover, sol)
    if out.status == OPTIMAL and out.cuts_complete:
        state.raise_lb(state.ub)
        return _finish(state, inst, OPTIMAL)
    if out.best_bound is not None and math.isfinite(out.best_bound):
        state.raise_lb(out.best_bound)
    return _finish(state, inst, TIME_LIMIT)


# --- scoring ----------------------------------------------------------------

def _close(state: SearchState, cover: FeasibilityCover,
           pool: Optional[ColumnPool], event: str, nodes_visited=None) -> None:
    """Take a cover out of the search: branch it away and log why."""
    if pool is not None:
        add_branching_cut(pool, cover.requests)
    state.note(event, cover_size=cover.size, nodes_visited=nodes_visited)


def _score_and_enqueue(state: SearchState, inst: Instance,
                       qtilde: RoutingCostTable, cutpool: CutPool,
                       queue: ScoredQueue, scored: Set[Tuple[Request, ...]],
                       cover: FeasibilityCover,
                       pool: Optional[ColumnPool] = None) -> bool:
    """Bound a cover and queue it unless dominated; False if already scored."""
    if cover.requests in scored:
        return False
    scored.add(cover.requests)
    cover.bounds = cover_bounds(make_subinstance(inst, cover, qtilde), cutpool=cutpool)
    state.note("score", cover_size=cover.size, nodes_visited=len(cover.visited))
    if cover.bounds.lb >= state.ub - INCUMBENT_EPS:
        _close(state, cover, pool, "discard")
    else:
        queue.push(cover)
    return True


def _evaluate_cover(state: SearchState, inst: Instance,
                    qtilde: RoutingCostTable, cutpool: CutPool,
                    cover: FeasibilityCover,
                    pool: Optional[ColumnPool] = None) -> None:
    """Exact TSP-GL for one queued cover; incumbent and audit upkeep."""
    if cover.bounds.lb >= state.ub - INCUMBENT_EPS:
        _close(state, cover, pool, "discard")
        return
    sub = make_subinstance(inst, cover, qtilde)
    incumbent_ub = state.ub if math.isfinite(state.ub) else None
    out = benders_solve_tspgl(sub, warm=cover.bounds, incumbent_ub=incumbent_ub,
                              time_limit=_window(state), cutpool=cutpool)
    if out.status == ABORTED:
        _close(state, cover, pool, "abort")
    elif out.status == OPTIMAL and out.solution is not None:
        state.evaluated.append((cover.requests, cover.bounds.lb,
                                cover.bounds.ub, out.solution.objective))
        update_incumbent(state, cover, out.solution)
        _close(state, cover, pool, "evaluate",
               nodes_visited=len(out.solution.visited))
    elif out.solution is not None:
        # ran out of time mid-evaluation: keep any feasible tour, skip branching
        update_incumbent(state, cover, out.solution)


# --- branch and price -------------------------------------------------------

def run_bp(inst: Instance, cfg: SearchConfig, hybrid: bool = False,
           cg_log: Optional[List[str]] = None) -> StspGlResult:
    """Column-generation dive with exact cover evaluations.

    Each iteration runs up to `PRICING_PER_ITERATION` pricing rounds, scores
    the master's support covers, and exactly evaluates up to
    `EVALS_PER_ITERATION` covers from the queue. Each RMP LP may use up to
    `RMP_SHARE` of the total budget and each pricing IP `PRICING_SHARE`.
    Evaluated or dominated covers leave the search through branching cuts,
    so the master tightens monotonically until the gap target, the clock,
    or exhaustion stops it.
    """
    _check_inputs(inst, cfg)
    qtilde = deterministic_routing_costs(inst)
    state = _new_state(cfg)
    if not chance_feasible(inst, inst.requests):
        return _infeasible_result(state, inst)
    if _dive(state, inst, cfg, qtilde, hybrid, cg_log):
        status = TIME_LIMIT
    else:
        status = OPTIMAL if _exact(state) else FEASIBLE
    return _finish(state, inst, status)


def _dive(state: SearchState, inst: Instance, cfg: SearchConfig,
          qtilde: RoutingCostTable, hybrid: bool,
          cg_log: Optional[List[str]]) -> bool:
    """The branch-and-price loop of `run_bp`; True when the clock stopped it."""
    rng = random.Random(cfg.seed)
    pool = ColumnPool()
    pool.add(make_cover(inst, inst.requests))
    cutpool = CutPool()
    queue = ScoredQueue()
    scored: Set[Tuple[Request, ...]] = set()
    seen_nodesets: Set[frozenset] = set()
    nmin = max(1, len(inst.compulsory))
    rmp_cap = cfg.time_limit_total * RMP_SHARE
    pricing_cap = cfg.time_limit_total * PRICING_SHARE

    if hybrid:
        for _ in range(EVALS_PER_ITERATION):
            cov = explore(inst, inst.n, seed=rng.randrange(1 << 31),
                          seen=seen_nodesets)
            if cov is not None:
                pool.add(cov)

    model, index = build_rmp(inst, pool, qtilde)
    rounds_total = 0
    iteration = 0
    while state.remaining() > 0:
        iteration += 1
        progress = False
        priced_out = False     # pricing offers no new column

        # phase 1: generate columns and tighten the Lagrangian bound
        for _ in range(PRICING_PER_ITERATION):
            if state.remaining() <= 0:
                return True
            extend_rmp(model, index, pool)
            rmp_out = solve_lp(model, time_limit=_window(state, rmp_cap))
            if rmp_out.status == INFEASIBLE:
                # every admissible cover is branched away: the dive is done
                state.raise_lb(state.ub)
                return False
            if rmp_out.status != OPTIMAL or rmp_out.duals is None:
                if state.remaining() <= 0:
                    return True
                break
            duals = extract_duals(inst, index, rmp_out)
            pres = solve_pricing(inst, duals, phi=sorted(pool.branched),
                                 time_limit=_window(state, pricing_cap))
            rounds_total += 1
            if math.isfinite(pres.objective):
                state.raise_lb(lagrangian_lower_bound(rmp_out.objective,
                                                      pres.objective))
            elif pres.objective == math.inf:
                state.raise_lb(state.ub)
            if cg_log is not None:
                cg_log.append(cg_log_line(
                    rounds_total, rmp_out.objective,
                    pres.objective if math.isfinite(pres.objective) else None,
                    state.lb if math.isfinite(state.lb) else None,
                    len(pool.columns), len(pool.branched)))
            if pres.status == TIME_LIMIT and state.remaining() <= 0:
                return True
            if pres.cover is None:
                priced_out = pres.status != TIME_LIMIT
                break
            cover = pres.cover
            if not pool.add(cover):
                cover = make_cover(inst, pres.raw_requests)
                if not pool.add(cover):
                    # both forms already pooled: numerically converged
                    priced_out = True
                    break
            progress = True
            if hybrid:
                size = min(inst.n, max(nmin, len(cover.visited)))
                ls = local_search(inst, cover, seed=rng.randrange(1 << 31))
                ex = explore(inst, size, seed=rng.randrange(1 << 31),
                             seen=seen_nodesets)
                for cand in (ls, ex):
                    if cand is not None:
                        _score_and_enqueue(state, inst, qtilde, cutpool, queue,
                                           scored, cand, pool=pool)
        if _gap_closed(state, cfg):
            return False
        if state.remaining() <= 0:
            return True

        # phase 2: score the master's support covers
        extend_rmp(model, index, pool)
        rmp_out = solve_lp(model, time_limit=_window(state, rmp_cap))
        if rmp_out.status == INFEASIBLE:
            state.raise_lb(state.ub)
            return False
        if rmp_out.status == OPTIMAL:
            for cover in pool.columns:
                if rmp_out.values[index.chi[cover.requests]] > SUPPORT_EPS and \
                        _score_and_enqueue(state, inst, qtilde, cutpool, queue,
                                           scored, cover, pool=pool):
                    progress = True
        if iteration == 1 and not queue and state.incumbent is None:
            # guarantee a first incumbent: fall back on serving everything
            if _score_and_enqueue(state, inst, qtilde, cutpool, queue, scored,
                                  pool.columns[0], pool=pool):
                progress = True

        # phase 3: exact evaluation of the most promising covers
        for cover in queue.smallest(EVALS_PER_ITERATION):
            if state.remaining() <= 0:
                return True
            queue.remove(cover.requests)
            _evaluate_cover(state, inst, qtilde, cutpool, cover, pool=pool)
            progress = True

        if _gap_closed(state, cfg) or (priced_out and not queue and not progress):
            return False
    return True


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
    size = inst.n
    span = inst.n - nmin + 1
    failures = 0

    while state.remaining() > 0:
        cov = explore(inst, size, seed=rng.randrange(1 << 31), seen=seen_nodesets)
        if cov is None:
            failures += 1
            size = size - 1 if size > nmin else inst.n
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
