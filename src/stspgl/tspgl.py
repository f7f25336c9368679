"""Deterministic tour-plus-routing solver on a cover-induced subgraph.

Given a feasibility cover Q, the subproblem is: find a Hamiltonian cycle over
N'(Q) (compulsory nodes plus cover endpoints) minimizing
(1-alpha) * design + alpha * routing, where each request in Q ships one unit
of flow along the cheapest tour-constrained path. Solved two ways: a Benders
loop (master picks the tour, per-request shortest paths price it) and a
monolithic flow MIP used as the reference oracle.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .covers import FeasibilityCover
from .model import (
    INFEASIBLE,
    OPTIMAL,
    TIME_LIMIT,
    Arc,
    Edge,
    Instance,
    Request,
    TspGlSolution,
    edge,
    tour_sequence,
)
from .mpbackend import LinearModel, SolveOutcome, resolve_with_cuts, solve_lp, solve_mip
from .scenarios import RoutingCostTable

ABORTED = "Aborted"

_CUT_VIOLATION_EPS = 1e-7
_INCUMBENT_EPS = 1e-9


@dataclass(frozen=True)
class SubInstance:
    """Restriction of an instance to a cover's node set.

    `nodes` is N'(Q) padded to at least 3 nodes so a cycle exists; padding
    picks the cheapest detour node (or perimeter-minimal pair), ties broken
    by node id, so the choice is deterministic.
    """

    inst: Instance
    cover: FeasibilityCover
    nodes: Tuple[int, ...]
    requests: Tuple[Request, ...]
    qtilde: RoutingCostTable

    @property
    def alpha(self) -> float:
        return self.inst.alpha

    def edges(self) -> List[Edge]:
        return [
            (self.nodes[a], self.nodes[b])
            for a in range(len(self.nodes))
            for b in range(a + 1, len(self.nodes))
        ]

    def origins(self) -> List[int]:
        return sorted({h for h, _k in self.requests})

    def requests_from(self, h: int) -> List[Request]:
        return [hk for hk in self.requests if hk[0] == h]

    @property
    def key(self) -> frozenset:
        return frozenset(self.nodes)


def padded_node_set(inst: Instance, visited: Iterable[int]) -> Tuple[int, ...]:
    nodes = sorted(set(visited))
    if len(nodes) >= 3:
        return tuple(nodes)
    others = [v for v in inst.nodes if v not in set(nodes)]
    if len(nodes) == 2:
        a, b = nodes
        extra = min(others, key=lambda v: (inst.cbar(a, v) + inst.cbar(v, b), v))
        return tuple(sorted([a, b, extra]))
    (a,) = nodes
    u, v = min(
        itertools.combinations(others, 2),
        key=lambda uv: (inst.cbar(a, uv[0]) + inst.cbar(uv[0], uv[1]) + inst.cbar(uv[1], a), uv),
    )
    return tuple(sorted([a, u, v]))


def make_subinstance(inst: Instance, cover: FeasibilityCover, qtilde: RoutingCostTable) -> SubInstance:
    nodes = padded_node_set(inst, cover.visited)
    return SubInstance(inst=inst, cover=cover, nodes=nodes, requests=cover.requests, qtilde=qtilde)


@dataclass
class BendersDuals:
    request: Request
    p: Dict[int, float]                 # node potentials, >= 0
    lam: Dict[Arc, float]               # arc multipliers, >= 0
    lambda_bar: Dict[Edge, float]       # lam_ij + lam_ji per edge
    objective: float                    # equals the primal path cost


@dataclass
class CutPool:
    """Cross-cover cache of subtour cuts and TSP results, keyed by node set.

    Single-owner per search; callers serialize access.
    """

    subtours: Dict[frozenset, Set[FrozenSet[int]]] = field(default_factory=dict)
    tsp_cache: Dict[frozenset, Tuple[Tuple[int, ...], float]] = field(default_factory=dict)

    def subtours_for(self, key: frozenset) -> List[FrozenSet[int]]:
        return sorted(self.subtours.get(key, ()), key=lambda s: (len(s), sorted(s)))

    def add_subtour(self, key: frozenset, component: Iterable[int]) -> None:
        self.subtours.setdefault(key, set()).add(frozenset(component))


@dataclass
class BoundEstimate:
    lb_design: float
    lb_routing: Dict[Request, float]
    ub_routing: Dict[Request, float]
    lb: float
    ub: float
    tsp_tour: Tuple[int, ...]


@dataclass
class TspGlOutcome:
    status: str                         # Optimal | TimeLimit | Aborted | Infeasible
    solution: Optional[TspGlSolution]
    lower_bound: float                  # last master objective, valid for this subproblem
    iterations: int = 0


# --- symmetric TSP ---------------------------------------------------------

def symmetric_tsp(nodes: Sequence[int], cost, time_limit: Optional[float] = None
                  ) -> Tuple[List[int], float, List[FrozenSet[int]]]:
    """Exact tour over `nodes`; also reports subtours met along the way.

    Held-Karp for up to 15 nodes (no subtours arise there); larger sets go
    through a degree-2 MIP with a subtour resolve loop, and every component
    found during that loop is returned for cut caching.
    """
    nodes = sorted(nodes)
    n = len(nodes)
    if n == 1:
        return list(nodes), 0.0, []
    if n == 2:
        a, b = nodes
        return list(nodes), 2.0 * cost[a][b], []
    if n == 3:
        a, b, c = nodes
        return list(nodes), cost[a][b] + cost[b][c] + cost[a][c], []
    if n <= 15:
        seq, val = _held_karp(nodes, cost)
        return seq, val, []
    return _tsp_mip(nodes, cost, time_limit)


def _held_karp(nodes: List[int], cost) -> Tuple[List[int], float]:
    start, others = nodes[0], nodes[1:]
    m = len(others)
    full = (1 << m) - 1
    dp = [[math.inf] * m for _ in range(1 << m)]
    parent = [[-1] * m for _ in range(1 << m)]
    for j in range(m):
        dp[1 << j][j] = cost[start][others[j]]
    for mask in range(1, full + 1):
        row = dp[mask]
        for j in range(m):
            if not mask >> j & 1 or row[j] == math.inf:
                continue
            base = row[j]
            cj = cost[others[j]]
            for k in range(m):
                if mask >> k & 1:
                    continue
                nxt = mask | 1 << k
                cand = base + cj[others[k]]
                if cand < dp[nxt][k]:
                    dp[nxt][k] = cand
                    parent[nxt][k] = j
    best_j = min(range(m), key=lambda j: (dp[full][j] + cost[others[j]][start], j))
    value = dp[full][best_j] + cost[others[best_j]][start]
    seq_rev = []
    mask, j = full, best_j
    while j != -1:
        seq_rev.append(others[j])
        pj = parent[mask][j]
        mask &= ~(1 << j)
        j = pj
    return [start, *reversed(seq_rev)], value


def _tsp_mip(nodes: List[int], cost, time_limit: Optional[float]
             ) -> Tuple[List[int], float, List[FrozenSet[int]]]:
    model = LinearModel("tsp")
    x = add_edge_vars(model, nodes, cost, integer=True)
    for i in nodes:
        model.add_constr(degree_coeffs(x, i, nodes), "==", 2.0, name=f"deg_{i}")
    found: List[FrozenSet[int]] = []

    def cut_source(out: SolveOutcome):
        comps = find_subtours(chosen_edges(x, out.values))
        found.extend(comps)
        return [_sec_cut(x, comp) for comp in comps]

    out = resolve_with_cuts(model, cut_source, max_rounds=len(nodes) * 4, time_limit=time_limit)
    if not out.solved:
        raise RuntimeError(f"TSP solve failed with status {out.status}")
    seq = tour_sequence(chosen_edges(x, out.values))
    return seq, out.objective, found


# --- tour and flow blocks shared by every model -----------------------------
#
# Edge variables are x_a_b (a < b), arc flows f_h_k_i_j. Each builder adds
# variables in lexicographic order and returns the map from edge or arc to
# variable name, so callers never parse names.

def add_edge_vars(model: LinearModel, nodes: Sequence[int], cost, scale: float = 1.0,
                  integer: bool = False) -> Dict[Edge, str]:
    """One 0/1 design variable per node pair, costing scale * cost[a][b]."""
    return {
        (a, b): model.add_var(f"x_{a}_{b}", lb=0.0, ub=1.0,
                              obj=scale * cost[a][b], integer=integer)
        for a, b in itertools.combinations(nodes, 2)
    }


def degree_coeffs(x: Dict[Edge, str], i: int, nodes: Iterable[int]) -> Dict[str, float]:
    """Coefficients of node i's degree: its edges to the other `nodes`."""
    return {x[edge(i, j)]: 1.0 for j in nodes if j != i}


def add_flow_vars(model: LinearModel, hk: Request, nodes: Sequence[int],
                  qtilde: RoutingCostTable, alpha: float) -> Dict[Arc, str]:
    """Arc flows of one request, costing alpha * its routing cost."""
    h, k = hk
    return {
        (i, j): model.add_var(f"f_{h}_{k}_{i}_{j}", lb=0.0,
                              obj=alpha * qtilde.cost(hk, i, j))
        for i in nodes for j in nodes if i != j
    }


def flow_coeffs(f: Dict[Arc, str], i: int, nodes: Iterable[int]) -> Dict[str, float]:
    """Outflow minus inflow of one request's flow at node i."""
    coeffs: Dict[str, float] = {}
    for j in nodes:
        if j != i:
            coeffs[f[(i, j)]] = 1.0
            coeffs[f[(j, i)]] = -1.0
    return coeffs


def supply(hk: Request, i: int) -> float:
    """Net outflow a request's flow needs at node i: 1 at h, -1 at k."""
    return 1.0 if i == hk[0] else (-1.0 if i == hk[1] else 0.0)


def add_linking_rows(model: LinearModel, x: Dict[Edge, str], f: Dict[Arc, str]) -> None:
    """f <= x on both arcs of every edge."""
    for (a, b), xab in x.items():
        model.add_constr({f[(a, b)]: 1.0, xab: -1.0}, "<=", 0.0)
        model.add_constr({f[(b, a)]: 1.0, xab: -1.0}, "<=", 0.0)


def chosen_edges(x: Dict[Edge, str], values: Dict[str, float]) -> List[Edge]:
    """Edges set to one in a solution, in lexicographic order."""
    return [e for e, name in x.items() if values[name] > 0.5]


def _sec_cut(x: Dict[Edge, str], component: Iterable[int]) -> Tuple[Dict[str, float], str, float]:
    """Subtour elimination: at most |S| - 1 edges inside S."""
    comp = sorted(component)
    return {x[e]: 1.0 for e in itertools.combinations(comp, 2)}, "<=", float(len(comp) - 1)


def find_subtours(edges: Iterable[Edge]) -> List[FrozenSet[int]]:
    """Connected components of the selected edges; empty when there is one."""
    adj: Dict[int, Set[int]] = {}
    for i, j in edges:
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    if not adj:
        return []
    unvisited = set(adj)
    comps: List[FrozenSet[int]] = []
    while unvisited:
        start = min(unvisited)
        comp, stack = {start}, [start]
        while stack:
            cur = stack.pop()
            for nb in adj[cur]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        comps.append(frozenset(comp))
        unvisited -= comp
    if len(comps) <= 1:
        return []
    return sorted(comps, key=lambda c: (len(c), sorted(c)))


# --- bound estimation ------------------------------------------------------

def cover_bounds(sub: SubInstance, alpha: Optional[float] = None,
                 cutpool: Optional[CutPool] = None) -> BoundEstimate:
    """Bracket the subproblem value without solving it.

    Lower bound: exact TSP design plus each request's direct-arc cost (no
    tour-constrained path is cheaper under a metric). Upper bound: evaluate
    the TSP tour itself, routing each request along it.
    """
    if alpha is None:
        alpha = sub.alpha
    inst = sub.inst
    key = sub.key
    cached = cutpool.tsp_cache.get(key) if cutpool is not None else None
    if cached is not None:
        tour, tsp_val = cached
    else:
        seq, tsp_val, subtours = symmetric_tsp(sub.nodes, inst.design)
        tour = tuple(seq)
        if cutpool is not None:
            cutpool.tsp_cache[key] = (tour, tsp_val)
            for comp in subtours:
                cutpool.add_subtour(key, comp)
    lb_routing: Dict[Request, float] = {}
    ub_routing: Dict[Request, float] = {}
    for hk in sub.requests:
        h, k = hk
        lb_routing[hk] = sub.qtilde.cost(hk, h, k)
        ub_routing[hk] = _tour_path_cost(tour, hk, sub.qtilde)
    lb = (1.0 - alpha) * tsp_val + alpha * sum(lb_routing.values())
    ub = (1.0 - alpha) * tsp_val + alpha * sum(ub_routing.values())
    return BoundEstimate(
        lb_design=tsp_val,
        lb_routing=lb_routing,
        ub_routing=ub_routing,
        lb=lb,
        ub=ub,
        tsp_tour=tour,
    )


def _tour_path_cost(seq: Sequence[int], hk: Request, qtilde: RoutingCostTable) -> float:
    flow, z = primal_subproblem(seq, hk, qtilde)
    if flow is None:
        raise ValueError(f"request {hk} endpoints missing from tour {seq}")
    return z


# --- Benders subproblems ---------------------------------------------------

def primal_subproblem(xbar: Sequence[int], hk: Request, qtilde: RoutingCostTable
                      ) -> Tuple[Optional[Dict[Arc, float]], float]:
    """Unit shortest path h -> k along the tour, in either direction.

    Returns (None, inf) when an endpoint is off the tour; the caller treats
    that as an infeasibility signal.
    """
    h, k = hk
    seq = list(xbar)
    if h not in seq or k not in seq:
        return None, math.inf
    n = len(seq)
    pos = {v: t for t, v in enumerate(seq)}
    cw_arcs, cw_cost = [], 0.0
    at = pos[h]
    while seq[at] != k:
        nxt = (at + 1) % n
        cw_arcs.append((seq[at], seq[nxt]))
        cw_cost += qtilde.cost(hk, seq[at], seq[nxt])
        at = nxt
    ccw_arcs, ccw_cost = [], 0.0
    at = pos[h]
    while seq[at] != k:
        nxt = (at - 1) % n
        ccw_arcs.append((seq[at], seq[nxt]))
        ccw_cost += qtilde.cost(hk, seq[at], seq[nxt])
        at = nxt
    if cw_cost <= ccw_cost:
        return {a: 1.0 for a in cw_arcs}, cw_cost
    return {a: 1.0 for a in ccw_arcs}, ccw_cost


def dual_subproblem(xbar: Sequence[int], hk: Request, qtilde: RoutingCostTable,
                    nodes: Optional[Sequence[int]] = None, mode: str = "fast") -> BendersDuals:
    """Optimal duals of the routing subproblem at the tour `xbar`.

    Fast mode builds them from shortest-path distances along the tour and is
    accepted only when its objective reproduces the primal path cost; any
    mismatch falls back to solving the dual LP.
    """
    if nodes is None:
        nodes = sorted(xbar)
    _flow, z = primal_subproblem(xbar, hk, qtilde)
    if _flow is None:
        raise ValueError(f"request {hk} endpoints missing from tour {list(xbar)}")
    if mode == "fast":
        duals = _fast_duals(xbar, hk, qtilde, nodes)
        tour_edges = _cycle_edges(xbar)
        obj = duals.p[hk[0]] - duals.p[hk[1]] - sum(
            duals.lambda_bar[e] for e in tour_edges
        )
        if abs(obj - z) <= 1e-9 * max(1.0, abs(z)):
            return duals
    return _lp_duals(xbar, hk, qtilde, nodes)


def _cycle_edges(seq: Sequence[int]) -> List[Edge]:
    n = len(seq)
    return [edge(seq[t], seq[(t + 1) % n]) for t in range(n)]


def _fast_duals(xbar: Sequence[int], hk: Request, qtilde: RoutingCostTable,
                nodes: Sequence[int]) -> BendersDuals:
    h, k = hk
    seq = list(xbar)
    n = len(seq)
    pos = {v: t for t, v in enumerate(seq)}
    dist: Dict[int, float] = {}
    for v in seq:
        cw, at = 0.0, pos[h]
        while seq[at] != v:
            nxt = (at + 1) % n
            cw += qtilde.cost(hk, seq[at], seq[nxt])
            at = nxt
        ccw, at = 0.0, pos[h]
        while seq[at] != v:
            nxt = (at - 1) % n
            ccw += qtilde.cost(hk, seq[at], seq[nxt])
            at = nxt
        dist[v] = min(cw, ccw)
    # off-tour nodes (possible only in degenerate inputs) sit at the far end
    far = max(dist.values(), default=0.0)
    u = {v: dist.get(v, far) for v in nodes}
    top = max(u.values())
    p = {v: top - u[v] for v in nodes}
    lam: Dict[Arc, float] = {}
    lambda_bar: Dict[Edge, float] = {}
    for i in nodes:
        for j in nodes:
            if i == j:
                continue
            lam[(i, j)] = max(0.0, u[j] - u[i] - qtilde.cost(hk, i, j))
    for a, b in itertools.combinations(nodes, 2):
        lambda_bar[(a, b)] = lam[(a, b)] + lam[(b, a)]
    return BendersDuals(request=hk, p=p, lam=lam, lambda_bar=lambda_bar, objective=u[k])


def _lp_duals(xbar: Sequence[int], hk: Request, qtilde: RoutingCostTable,
              nodes: Sequence[int]) -> BendersDuals:
    xval = {e: 0.0 for e in itertools.combinations(sorted(nodes), 2)}
    for e in _cycle_edges(xbar):
        xval[e] = 1.0
    model = LinearModel("routing-dual", maximize=True)
    for v in nodes:
        model.add_var(f"p_{v}", lb=0.0, obj=supply(hk, v))
    for i in nodes:
        for j in nodes:
            if i != j:
                model.add_var(f"l_{i}_{j}", lb=0.0, obj=-xval[edge(i, j)])
    for i in nodes:
        for j in nodes:
            if i == j:
                continue
            model.add_constr(
                {f"p_{i}": 1.0, f"p_{j}": -1.0, f"l_{i}_{j}": -1.0},
                "<=",
                qtilde.cost(hk, i, j),
            )
    out = solve_lp(model)
    if out.status != OPTIMAL:
        raise RuntimeError(f"routing dual LP ended with status {out.status}")
    p = {v: out.values[f"p_{v}"] for v in nodes}
    lam = {
        (i, j): out.values[f"l_{i}_{j}"]
        for i in nodes
        for j in nodes
        if i != j
    }
    lambda_bar = {
        (a, b): lam[(a, b)] + lam[(b, a)]
        for a, b in itertools.combinations(sorted(nodes), 2)
    }
    return BendersDuals(request=hk, p=p, lam=lam, lambda_bar=lambda_bar, objective=out.objective)


@dataclass
class OptimalityCut:
    origin: int
    coeffs: Dict[Edge, float]    # lambda-bar summed over the origin's requests
    rhs: float                   # sum of p_h - p_k over those requests


def aggregated_optimality_cuts(duals_by_request: Dict[Request, BendersDuals],
                               origin: int) -> OptimalityCut:
    """One Benders cut bundling every request leaving `origin`.

    eta_h + sum_e coeffs[e] * x_e >= rhs. Valid for every tour because each
    request's duals stay feasible whatever x is (weak duality per request).
    """
    coeffs: Dict[Edge, float] = {}
    rhs = 0.0
    for hk in sorted(duals_by_request):
        if hk[0] != origin:
            continue
        duals = duals_by_request[hk]
        rhs += duals.p[hk[0]] - duals.p[hk[1]]
        for e, val in duals.lambda_bar.items():
            if val != 0.0:
                coeffs[e] = coeffs.get(e, 0.0) + val
    return OptimalityCut(origin=origin, coeffs=coeffs, rhs=rhs)


# --- Benders master loop ---------------------------------------------------

def _master_model(sub: SubInstance) -> Tuple[LinearModel, Dict[Edge, str]]:
    model = LinearModel("tspgl-master")
    x = add_edge_vars(model, sub.nodes, sub.inst.design, scale=1.0 - sub.alpha,
                      integer=True)
    for h in sub.origins():
        model.add_var(f"eta_{h}", lb=0.0, obj=sub.alpha)
    for i in sub.nodes:
        model.add_constr(degree_coeffs(x, i, sub.nodes), "==", 2.0, name=f"deg_{i}")
    return model, x


def _optimality_constr(x: Dict[Edge, str], cut: OptimalityCut
                       ) -> Tuple[Dict[str, float], str, float]:
    coeffs = {f"eta_{cut.origin}": 1.0}
    for e, val in sorted(cut.coeffs.items()):
        coeffs[x[e]] = val
    return coeffs, ">=", cut.rhs


def _solution_from_tour(sub: SubInstance, seq: Sequence[int]) -> TspGlSolution:
    inst = sub.inst
    tour_edges = frozenset(_cycle_edges(seq))
    design = sum(inst.cbar(a, b) for a, b in tour_edges)
    flows: Dict[Request, Dict[Arc, float]] = {}
    routing = 0.0
    for hk in sub.requests:
        flow, z = primal_subproblem(seq, hk, sub.qtilde)
        flows[hk] = flow
        routing += z
    total = (1.0 - sub.alpha) * design + sub.alpha * routing
    return TspGlSolution(
        tour_edges=tour_edges,
        flows=flows,
        objective=total,
        design_cost=design,
        routing_cost=routing,
        served=sub.requests,
    )


def benders_solve_tspgl(
    sub: SubInstance,
    warm: Optional[BoundEstimate] = None,
    incumbent_ub: Optional[float] = None,
    time_limit: Optional[float] = None,
    cutpool: Optional[CutPool] = None,
    max_iterations: int = 500,
) -> TspGlOutcome:
    """Benders loop: tour master, per-request path subproblems.

    Warm start seeds the master with the bound-stage TSP tour's optimality
    cuts and any subtour cuts cached for this node set. The loop aborts as
    soon as the master objective provably exceeds `incumbent_ub`.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    pool = cutpool if cutpool is not None else CutPool()
    model, x = _master_model(sub)
    added_subtours: Set[FrozenSet[int]] = set()
    for comp in pool.subtours_for(sub.key):
        model.add_constr(*_sec_cut(x, comp))
        added_subtours.add(comp)
    if warm is None:
        warm = cover_bounds(sub, cutpool=pool)
    if sub.requests and warm.tsp_tour:
        duals = {
            hk: dual_subproblem(warm.tsp_tour, hk, sub.qtilde, nodes=sub.nodes)
            for hk in sub.requests
        }
        for h in sub.origins():
            model.add_constr(*_optimality_constr(x, aggregated_optimality_cuts(duals, h)))

    incumbent: Optional[TspGlSolution] = None
    lower = -math.inf
    status = TIME_LIMIT
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            status = TIME_LIMIT
            break
        out = solve_mip(model, time_limit=remaining)
        if out.status == TIME_LIMIT:
            status = TIME_LIMIT
            break
        if not out.solved:
            status = INFEASIBLE
            break
        lower = max(lower, out.objective)
        if incumbent_ub is not None and out.objective > incumbent_ub + _INCUMBENT_EPS:
            status = ABORTED
            break
        chosen = chosen_edges(x, out.values)
        comps = find_subtours(chosen)
        if comps:
            for comp in comps:
                if comp in added_subtours:
                    continue
                model.add_constr(*_sec_cut(x, comp))
                added_subtours.add(comp)
                pool.add_subtour(sub.key, comp)
            continue
        seq = tour_sequence(chosen)
        candidate = _solution_from_tour(sub, seq)
        if incumbent is None or candidate.objective < incumbent.objective - _INCUMBENT_EPS:
            incumbent = candidate
        violated = False
        if sub.requests:
            duals = {
                hk: dual_subproblem(seq, hk, sub.qtilde, nodes=sub.nodes)
                for hk in sub.requests
            }
            for h in sub.origins():
                true_h = sum(duals[hk].objective for hk in sub.requests_from(h))
                eta_val = out.values[f"eta_{h}"]
                if eta_val < true_h - _CUT_VIOLATION_EPS * max(1.0, abs(true_h)):
                    model.add_constr(*_optimality_constr(x, aggregated_optimality_cuts(duals, h)))
                    violated = True
        if not violated:
            status = OPTIMAL
            break
    else:
        status = TIME_LIMIT

    return TspGlOutcome(status, incumbent, lower, iterations)


# --- monolithic reference MIP ---------------------------------------------

def solve_tspgl_direct(sub: SubInstance, time_limit: Optional[float] = None) -> TspGlOutcome:
    """One-shot flow MIP over the subgraph, with a subtour resolve loop.

    Flow caps alone leave room for a disconnected design when some component
    carries no request, so the resolve loop enforces a single cycle.
    """
    model = LinearModel("tspgl-direct")
    x = add_edge_vars(model, sub.nodes, sub.inst.design, scale=1.0 - sub.alpha,
                      integer=True)
    flows = {hk: add_flow_vars(model, hk, sub.nodes, sub.qtilde, sub.alpha)
             for hk in sub.requests}
    for i in sub.nodes:
        model.add_constr(degree_coeffs(x, i, sub.nodes), "==", 2.0, name=f"deg_{i}")
    for hk, f in flows.items():
        for i in sub.nodes:
            model.add_constr(flow_coeffs(f, i, sub.nodes), "==", supply(hk, i),
                             name=f"flow_{hk[0]}_{hk[1]}_{i}")
        add_linking_rows(model, x, f)

    def cut_source(out: SolveOutcome):
        return [_sec_cut(x, c) for c in find_subtours(chosen_edges(x, out.values))]

    out = resolve_with_cuts(model, cut_source, max_rounds=len(sub.nodes) * 4,
                            time_limit=time_limit)
    if not out.solved:
        return TspGlOutcome(out.status, None, -math.inf)
    seq = tour_sequence(chosen_edges(x, out.values))
    sol = _solution_from_tour(sub, seq)
    status = OPTIMAL if out.status == OPTIMAL and out.cuts_complete else TIME_LIMIT
    bound = out.best_bound if out.best_bound is not None else sol.objective
    return TspGlOutcome(status, sol, bound if status != OPTIMAL else sol.objective,
                        out.cut_rounds + 1)
