"""End-to-end solvers: compact MIP benchmark, branch-and-price, heuristics.

The branch-and-price loop is a single-path dive: covers get evaluated
exactly, then excluded (column fixed to zero, pricing cut added), and the
master re-optimizes over what is left. Before each pricing call the master
is cut: generalized subtour elimination rows (GSECs), separated by minimum
cut on its edge values, are added and kept until none is violated. The
Lagrangian bound from pricing drives the lower bound; evaluated covers
drive the upper bound. The dive ends at the first pricing round whose bound
meets the incumbent, which proves it optimal.
"""

import math
import random
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush, nsmallest
from typing import Dict, List, Optional, Set, Tuple

from .model import (
    INFEASIBLE,
    OPTIMAL,
    FEASIBLE,
    TIME_LIMIT,
    Instance,
    Request,
    SolveTrace,
    StspGlResult,
    TspGlSolution,
    check_instance,
    cycles,
    gap_value,
)
from .scenarios import chance_feasible
from .covers import FeasibilityCover, explore, local_search, make_cover
from .mpbackend import PSEUDO_COSTS_NO_HEURISTICS, LinearModel, resolve_with_cuts
from .colgen import Master, add_gsec_rows, build_rmp, extract_duals, solve_pricing
from .tspgl import (
    ABORTED,
    INCUMBENT_EPS,
    CutPool,
    add_degree_rows,
    add_edge_vars,
    add_routing,
    add_service_rows,
    benders_solve_tspgl,
    chosen_edges,
    cover_bounds,
    make_subinstance,
    solution_from_tour,
    subtour_rows,
)

SUPPORT_EPS = 1e-6          # chi values above this count as basis support
PRICING_PER_ITERATION = 5   # pricing rounds per branch-and-price iteration
EVALS_PER_ITERATION = 5     # exact cover evaluations per iteration


@dataclass
class SearchConfig:
    time_limit_total: float = 3600.0
    gap_target: float = 0.02
    seed: int = 0

    def validate(self) -> None:
        if not self.time_limit_total > 0:
            # the name `make_config`, a spec and `--time-limit` give it
            raise ValueError("time_limit must be positive")
        if not (0.0 < self.gap_target < 1.0):
            raise ValueError("gap_target must lie in (0, 1)")


@dataclass
class SearchState:
    """What one solve shares: the instance, the clock, the bounds and
    incumbent, and the cover search's caches.

    `deadline` is the `time.monotonic()` instant every layer stops at.
    `queue` is a heap of scored covers, (ub, lb, requests, cover): the
    request tuple breaks ties, and `scored` lets each request set in once,
    so the order is total and no cover is ever compared. `master` is the
    restricted master, which takes the branching cuts of closed covers; it
    is None outside branch-and-price. `rounds` records each pricing round as
    (rmp_obj, pricing_obj, lb, columns, phi), as `trace` records events.
    """
    inst: Instance
    rng: random.Random
    trace: SolveTrace
    start: float
    deadline: float
    ub: float = math.inf
    lb: float = -math.inf
    incumbent: Optional[TspGlSolution] = None
    evaluated: List[Tuple] = field(default_factory=list)
    rounds: List[Tuple] = field(default_factory=list)
    cutpool: CutPool = field(default_factory=CutPool)
    queue: List[Tuple[float, float, Tuple[Request, ...], FeasibilityCover]] = \
        field(default_factory=list)
    scored: Set[Tuple[Request, ...]] = field(default_factory=set)
    seen: Set[frozenset] = field(default_factory=set)       # node sets `explore` drew
    master: Optional[Master] = None

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


def update_incumbent(state: SearchState, solution: TspGlSolution) -> bool:
    """Accept strictly better solutions only; log the event when accepted."""
    if solution.objective >= state.ub - INCUMBENT_EPS:
        return False
    state.ub = solution.objective
    state.incumbent = solution
    state.lb = min(state.lb, state.ub)
    state.note("incumbent", cover_size=len(solution.served),
               nodes_visited=len(solution.visited))
    return True


def _new_state(inst: Instance, cfg: SearchConfig) -> SearchState:
    """Check the inputs, compute the routing weights, seed the rng, start
    the clock."""
    cfg.validate()
    check_instance(inst)
    start = time.monotonic()
    state = SearchState(inst=inst, rng=random.Random(cfg.seed),
                        trace=SolveTrace(), start=start,
                        deadline=start + cfg.time_limit_total)
    state.note("start")
    return state


def _finish(state: SearchState, status: str) -> StspGlResult:
    ub = state.ub if math.isfinite(state.ub) else None
    lb = state.lb if math.isfinite(state.lb) else None
    state.note("final")
    return StspGlResult(status=status, upper_bound=ub, lower_bound=lb,
                        gap=gap_value(ub, lb), incumbent=state.incumbent, trace=state.trace,
                        evaluated=state.evaluated, rounds=state.rounds)


def _infeasible_result(state: SearchState) -> StspGlResult:
    state.note("infeasible")
    return _finish(state, INFEASIBLE)


def _exact(state: SearchState) -> bool:
    return math.isfinite(state.ub) and \
        state.lb >= state.ub - INCUMBENT_EPS * max(1.0, abs(state.ub))


def _gap_closed(state: SearchState, cfg: SearchConfig) -> bool:
    if _exact(state):
        return True
    g = gap_value(state.ub, state.lb)
    return g is not None and g <= cfg.gap_target


# --- compact benchmark ------------------------------------------------------

def _benchmark_model(inst: Instance):
    """One-shot selection model: tour edges, open stops w, served requests z,
    flows, and met scenarios y. Returns the model and the handle maps of x
    and z."""
    model = LinearModel()
    x = add_edge_vars(model, inst.nodes, inst.design, scale=1.0 - inst.alpha,
                      integer=True)
    degree = add_degree_rows(model, x, inst.nodes, 0.0)
    w = {i: model.add_var(lb=1.0 if i in inst.compulsory else 0.0, ub=1.0, integer=True,
                          rows={degree[i]: -2.0})
         for i in inst.nodes}
    z: Dict[Request, int] = {}
    for hk in inst.requests:
        z[hk] = model.add_var(lb=0.0, ub=1.0, integer=True)
        model.add_constr({w[hk[0]]: 1.0, z[hk]: -1.0}, ">=", 0.0)
        model.add_constr({w[hk[1]]: 1.0, z[hk]: -1.0}, ">=", 0.0)
        add_routing(model, inst, x, hk, served=z[hk])
    add_service_rows(model, inst, z)
    return model, x, z


def run_mip_benchmark(inst: Instance, cfg: SearchConfig) -> StspGlResult:
    """Solve the whole selection problem as one MIP with lazy cycle cuts."""
    state = _new_state(inst, cfg)
    if not chance_feasible(inst, inst.requests):
        return _infeasible_result(state)
    model, x, z = _benchmark_model(inst)
    # a cycle that misses a compulsory node, private or crossing, gets a row
    out = resolve_with_cuts(
        model, lambda o: subtour_rows(x, inst.nodes, cycles(chosen_edges(x, o.values)),
                                      inst.compulsory),
        max_rounds=4 * inst.n * max(1, inst.n),
        deadline=state.deadline, tuning=PSEUDO_COSTS_NO_HEURISTICS)
    if out.status == INFEASIBLE:
        return _infeasible_result(state)
    if out.values is None:
        return _finish(state, TIME_LIMIT)
    tours = cycles(chosen_edges(x, out.values))
    if len(tours) == 1:
        # once the cut rounds or the clock run out, the solve may hold
        # several cycles
        cover = make_cover(inst, [hk for hk in inst.requests if out.values[z[hk]] > 0.5])
        update_incumbent(state, solution_from_tour(
            make_subinstance(inst, cover), tours[0]))
    if out.status == OPTIMAL and out.cuts_complete:
        state.raise_lb(state.ub)
        return _finish(state, OPTIMAL)
    if out.best_bound is not None and math.isfinite(out.best_bound):
        state.raise_lb(out.best_bound)
    return _finish(state, TIME_LIMIT)


# --- scoring ----------------------------------------------------------------

def _close(state: SearchState, cover: FeasibilityCover, event: str,
           nodes_visited=None) -> None:
    """Take a cover out of the search: branch it away and log why."""
    if state.master is not None:
        # its master column is fixed to zero and pricing excludes it
        state.master.branch(cover.requests)
    state.note(event, cover_size=cover.size, nodes_visited=nodes_visited)


def _score_and_enqueue(state: SearchState, cover: FeasibilityCover) -> bool:
    """Bound a cover and queue it unless dominated; False if already scored
    or if the clock stops its bound stage, which leaves it unscored."""
    if cover.requests in state.scored:
        return False
    bounds = cover_bounds(make_subinstance(state.inst, cover), state.cutpool,
                          deadline=state.deadline, cutoff=state.ub - INCUMBENT_EPS)
    if bounds is None:
        return False
    state.scored.add(cover.requests)
    state.note("score", cover_size=cover.size, nodes_visited=len(cover.visited))
    if bounds.lb >= state.ub - INCUMBENT_EPS:
        _close(state, cover, "discard")
    else:
        heappush(state.queue, (bounds.ub, bounds.lb, cover.requests, cover))
    return True


def _evaluate_cover(state: SearchState,
                    entry: Tuple[float, float, Tuple[Request, ...], FeasibilityCover]) -> None:
    """Exact TSP-GL for one popped queue entry; incumbent and audit upkeep."""
    ub, lb, _requests, cover = entry
    if lb >= state.ub - INCUMBENT_EPS:
        _close(state, cover, "discard")
        return
    sub = make_subinstance(state.inst, cover)
    out = benders_solve_tspgl(sub, state.cutpool, incumbent_ub=state.ub,
                              deadline=state.deadline)
    if out.status == ABORTED:
        _close(state, cover, "abort")
    elif out.status == OPTIMAL and out.solution is not None:
        state.evaluated.append((cover.requests, lb, ub, out.solution.objective))
        update_incumbent(state, out.solution)
        _close(state, cover, "evaluate", nodes_visited=len(out.solution.visited))
    elif out.solution is not None:
        # ran out of time mid-evaluation: keep any feasible tour, skip branching
        update_incumbent(state, out.solution)


# --- branch and price -------------------------------------------------------

def run_bp(inst: Instance, cfg: SearchConfig, hybrid: bool = False) -> StspGlResult:
    """Branch-price-and-cut dive with exact cover evaluations; `hybrid`
    warms and widens it with the exploration operators.

    Each iteration runs up to `PRICING_PER_ITERATION` pricing rounds; before
    each, the master LP is re-solved until its edge values violate no new
    GSEC row (`colgen.add_gsec_rows`). The dive ends at the first round
    whose Lagrangian bound meets the incumbent within `_exact`'s tolerance:
    that bound proves the incumbent optimal, and no later round can change
    the result. Otherwise the iteration scores the master's support covers
    and exactly evaluates up to `EVALS_PER_ITERATION` covers from the queue.
    A final bound within `_exact`'s tolerance of the incumbent is reported
    as equal to it, so the result does not depend on the last ulp of the
    LP. Every LP and MIP runs against the solve's one deadline. Evaluated
    or dominated covers leave the search through branching cuts, so the
    master tightens monotonically until the gap target, the clock, or
    exhaustion stops it.
    """
    state = _new_state(inst, cfg)
    if not chance_feasible(inst, inst.requests):
        return _infeasible_result(state)
    stopped = _dive(state, cfg, hybrid)
    if _exact(state):
        state.lb = state.ub
    if stopped:
        status = TIME_LIMIT
    else:
        status = OPTIMAL if _exact(state) else FEASIBLE
    return _finish(state, status)


def _dive(state: SearchState, cfg: SearchConfig, hybrid: bool) -> bool:
    """The branch-and-price loop of `run_bp`; True when the clock stopped it."""
    inst, queue, rng = state.inst, state.queue, state.rng
    covers = [make_cover(inst, inst.requests)]
    nmin = max(1, len(inst.compulsory))

    if hybrid:
        for _ in range(EVALS_PER_ITERATION):
            cov = explore(inst, inst.n, seed=rng.randrange(1 << 31), seen=state.seen)
            if cov is not None:
                covers.append(cov)

    master = state.master = build_rmp(inst, covers)
    iteration = 0
    while state.remaining() > 0:
        iteration += 1
        progress = False
        priced_out = False     # pricing offers no new column

        # phase 1: generate columns and tighten the Lagrangian bound
        for _ in range(PRICING_PER_ITERATION):
            if state.remaining() <= 0:
                return True
            rmp_out = master.solve(state.deadline)
            while rmp_out.status == OPTIMAL and state.remaining() > 0 and \
                    add_gsec_rows(inst, master, rmp_out.values):
                rmp_out = master.solve(state.deadline)
            if rmp_out.status == INFEASIBLE:
                # every admissible cover is branched away: the dive is done
                state.raise_lb(state.ub)
                return False
            if rmp_out.status != OPTIMAL:
                if state.remaining() <= 0:
                    return True
                break
            duals = extract_duals(master, rmp_out)
            pres = solve_pricing(inst, duals, phi=sorted(master.branched),
                                 deadline=state.deadline)
            if math.isfinite(pres.objective):
                # master value plus the minimum reduced cost (convexity multiplier 1)
                state.raise_lb(rmp_out.objective + pres.objective)
            elif pres.objective == math.inf:
                state.raise_lb(state.ub)
            state.rounds.append((rmp_out.objective, pres.objective, state.lb,
                                 len(master.columns), len(master.branched)))
            if _exact(state):
                return False
            if pres.status == TIME_LIMIT and state.remaining() <= 0:
                return True
            if pres.cover is None:
                priced_out = pres.status != TIME_LIMIT
                break
            cover = pres.cover
            if not master.add(cover):
                cover = make_cover(inst, pres.raw_requests)
                if not master.add(cover):
                    # the master holds both forms: numerically converged
                    priced_out = True
                    break
            progress = True
            if hybrid:
                size = min(inst.n, max(nmin, len(cover.visited)))
                ls = local_search(inst, cover, seed=rng.randrange(1 << 31))
                ex = explore(inst, size, seed=rng.randrange(1 << 31), seen=state.seen)
                for cand in (ls, ex):
                    if cand is not None:
                        _score_and_enqueue(state, cand)
        if _gap_closed(state, cfg):
            return False
        if state.remaining() <= 0:
            return True

        # phase 2: score the master's support covers; an unchanged master
        # keeps the last optimal solve
        if master.changed or rmp_out.status != OPTIMAL:
            rmp_out = master.solve(state.deadline)
        if rmp_out.status == INFEASIBLE:
            state.raise_lb(state.ub)
            return False
        if rmp_out.status == OPTIMAL:
            for cover in master.columns:
                if rmp_out.values[master.chi[cover.requests]] > SUPPORT_EPS and \
                        _score_and_enqueue(state, cover):
                    progress = True
        if iteration == 1 and not queue and state.incumbent is None:
            # guarantee a first incumbent: fall back on serving everything
            if _score_and_enqueue(state, master.columns[0]):
                progress = True

        # phase 3: exact evaluation of the most promising covers
        for _ in range(min(EVALS_PER_ITERATION, len(queue))):
            if state.remaining() <= 0:
                return True
            _evaluate_cover(state, heappop(queue))
            progress = True

        if _gap_closed(state, cfg) or (priced_out and not queue and not progress):
            return False
    return True


# --- sampling heuristic -----------------------------------------------------

def run_heuristic(inst: Instance, cfg: SearchConfig) -> StspGlResult:
    """Exploration and local search only: upper bounds, no lower bound.

    Each pass draws a fresh minimal cover, improves the two cheapest queued
    covers by local search, and exactly evaluates the queue head when its
    bound leaves room below the incumbent. The draw size shrinks as sizes
    get exhausted and wraps around; the loop stops at the clock or once
    every size stalls with an empty queue.
    """
    state = _new_state(inst, cfg)
    if not chance_feasible(inst, inst.requests):
        return _infeasible_result(state)

    queue, rng = state.queue, state.rng
    nmin = max(1, len(inst.compulsory))
    size = inst.n
    span = inst.n - nmin + 1
    failures = 0

    while state.remaining() > 0:
        cov = explore(inst, size, seed=rng.randrange(1 << 31), seen=state.seen)
        if cov is None:
            failures += 1
            size = size - 1 if size > nmin else inst.n
        else:
            failures = 0
            _score_and_enqueue(state, cov)
        for *_, base in nsmallest(2, queue):
            ls = local_search(inst, base, seed=rng.randrange(1 << 31))
            if ls is not None:
                _score_and_enqueue(state, ls)
        if queue:
            _evaluate_cover(state, heappop(queue))
        if failures >= span and not queue:
            break

    status = TIME_LIMIT if state.remaining() <= 0 else FEASIBLE
    if state.incumbent is None:
        status = TIME_LIMIT
    return _finish(state, status)
