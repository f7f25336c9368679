"""Deterministic tour-plus-routing solver on a cover-induced subgraph.

Given a feasibility cover Q, the subproblem is: find a Hamiltonian cycle over
N'(Q) (compulsory nodes plus cover endpoints) minimizing
(1-alpha) * design + alpha * routing, where each request in Q ships one unit
of flow along the cheapest tour-constrained path. It is solved by a Benders
loop: the master picks the tour, per-request shortest paths price it.

The module also holds the tour and flow blocks every model shares, and the
subtour separation of both integer tours and fractional edge values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

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
    cycles,
    edge,
)
from .mpbackend import NO_PRIMAL_HEURISTICS, LinearModel, SolveOutcome, resolve_with_cuts
from .scenarios import RoutingCostTable

ABORTED = "Aborted"

_CUT_VIOLATION_EPS = 1e-7
# A Benders master above `ub + INCUMBENT_EPS` aborts, and the search discards
# a cover whose bound reaches `ub - INCUMBENT_EPS`; one constant keeps the two
# in step, and a new incumbent must beat the old one by more than it.
INCUMBENT_EPS = 1e-9
_FLOW_TOL = 1e-9        # edge values and residual capacities at or below this are zero
GSEC_EPS = 1e-6         # smallest violation for which a GSEC row is separated
MAX_BENDERS_ITERATIONS = 500


@dataclass(frozen=True)
class SubInstance:
    """Restriction of an instance to a cover's node set.

    `nodes` is N'(Q) padded to at least 3 nodes so a cycle exists; padding
    picks the cheapest detour node (or perimeter-minimal pair), ties broken
    by node id, so the choice is deterministic.
    """

    inst: Instance
    nodes: Tuple[int, ...]
    requests: Tuple[Request, ...]
    qtilde: RoutingCostTable

    @property
    def alpha(self) -> float:
        return self.inst.alpha

    def origins(self) -> List[int]:
        return sorted({h for h, _k in self.requests})

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
    return SubInstance(inst=inst, nodes=nodes, requests=cover.requests, qtilde=qtilde)


@dataclass
class BendersDuals:
    p: Dict[int, float]                 # node potentials, >= 0
    lam: Dict[Arc, float]               # positive arc multipliers; absent = 0
    lambda_bar: Dict[Edge, float]       # lam_ij + lam_ji per edge, positive only
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
    lb: float
    ub: float


@dataclass
class TspGlOutcome:
    status: str                         # Optimal | TimeLimit | Aborted | Infeasible
    solution: Optional[TspGlSolution]
    iterations: int = 0


# --- symmetric TSP ---------------------------------------------------------

def symmetric_tsp(nodes: Sequence[int], cost, deadline: float = math.inf
                  ) -> Optional[Tuple[List[int], float, List[FrozenSet[int]]]]:
    """Exact tour over `nodes`; also reports subtours met along the way.

    Held-Karp for up to 15 nodes (no subtours arise there); larger sets go
    through a degree-2 MIP with a subtour resolve loop, and every component
    found during that loop is returned for cut caching. Only the MIP obeys
    `deadline`, a `time.monotonic()` instant: it returns None when the
    deadline passes before it proves a tour, and it raises RuntimeError when
    its cut rounds run out on a solution that still splits into several
    cycles.

    Held-Karp is vectorized: 13-22 ms at 15 nodes on a 2-vCPU host, where
    the MIP takes 9-43 ms. The cutoff stays at 15 because the two can return
    different optimal tours for one node set, and a solve's result must not
    change.
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
    return _tsp_mip(nodes, cost, deadline)


@functools.lru_cache(maxsize=None)
def _subset_layers(m: int) -> Tuple[Tuple[int, np.ndarray], ...]:
    """(k, the ascending masks holding bit k) per popcount 2..m, in DP order.

    Every call with m shares the arrays, so they are read-only.
    """
    masks = np.arange(1 << m, dtype=np.int32)
    pop = sum(masks >> b & 1 for b in range(m))
    layers = []
    for s in range(2, m + 1):
        layer = masks[pop == s]
        for k in range(m):
            sel = layer[layer & (1 << k) != 0]
            sel.flags.writeable = False
            layers.append((k, sel))
    return tuple(layers)


def _held_karp(nodes: List[int], cost) -> Tuple[List[int], float]:
    """Held-Karp, pulled per subset layer and last node. Each dp entry is the
    same float64 addition as in the textbook loop (kept in tests as the
    reference), read at the first argmin: one reduction gives the minimum
    and the loop's lowest-predecessor tie-break."""
    start, others = nodes[0], nodes[1:]
    m = len(others)
    full = (1 << m) - 1
    c = np.array([[cost[a][b] for b in others] for a in others], dtype=np.float64)
    dp = np.full((1 << m, m), np.inf)
    parent = np.full((1 << m, m), -1, dtype=np.int8)
    for j in range(m):
        dp[1 << j, j] = cost[start][others[j]]
    rows = np.arange(1 << m)
    # per bit k: a whole layer at once would gather (masks, m, m) floats
    for k, sel in _subset_layers(m):
        cand = dp.take(sel ^ (1 << k), axis=0)
        cand += c[:, k]
        best = cand.argmin(axis=1)
        dp[sel, k] = cand[rows[:len(sel)], best]
        parent[sel, k] = best
    closing = dp[full] + np.array([cost[v][start] for v in others], dtype=np.float64)
    best_j = int(closing.argmin())
    value = float(closing[best_j])
    seq_rev = []
    mask, j = full, best_j
    while j != -1:
        seq_rev.append(others[j])
        pj = int(parent[mask, j])
        mask &= ~(1 << j)
        j = pj
    return [start, *reversed(seq_rev)], value


def _tsp_mip(nodes: List[int], cost, deadline: float
             ) -> Optional[Tuple[List[int], float, List[FrozenSet[int]]]]:
    model = LinearModel()
    x = add_edge_vars(model, nodes, cost, integer=True)
    for i in nodes:
        model.add_constr(degree_coeffs(x, i, nodes), "==", 2.0)
    found: List[FrozenSet[int]] = []

    def cut_source(out: SolveOutcome):
        tours = cycles(chosen_edges(x, out.values))
        if len(tours) == 1:
            return []
        found.extend(map(frozenset, tours))
        return [_sec_cut(x, tour) for tour in tours]

    out = resolve_with_cuts(model, cut_source, max_rounds=len(nodes) * 4, deadline=deadline)
    if out.status == TIME_LIMIT:
        return None
    if not out.solved:
        raise RuntimeError(f"TSP solve failed with status {out.status}")
    tours = cycles(chosen_edges(x, out.values))
    if len(tours) > 1:
        # the cut rounds ran out on a solution that still splits
        raise RuntimeError(f"TSP MIP over {len(nodes)} nodes ended with subtours {tours}")
    return tours[0], out.objective, found


# --- tour and flow blocks shared by every model -----------------------------
#
# One design column per edge (a, b), a < b, and one flow column per arc of
# each request. Each builder adds its columns in lexicographic order and
# returns the map from edge or arc to column handle.

def add_edge_vars(model: LinearModel, nodes: Sequence[int], cost, scale: float = 1.0,
                  integer: bool = False) -> Dict[Edge, int]:
    """One 0/1 design variable per node pair, costing scale * cost[a][b]."""
    return {
        (a, b): model.add_var(lb=0.0, ub=1.0, obj=scale * cost[a][b], integer=integer)
        for a, b in itertools.combinations(nodes, 2)
    }


def degree_coeffs(x: Dict[Edge, int], i: int, nodes: Iterable[int]) -> Dict[int, float]:
    """Coefficients of node i's degree: its edges to the other `nodes`."""
    return {x[edge(i, j)]: 1.0 for j in nodes if j != i}


def add_flow_vars(model: LinearModel, hk: Request, nodes: Sequence[int],
                  qtilde: RoutingCostTable, alpha: float) -> Dict[Arc, int]:
    """Arc flows of one request, costing alpha * its routing cost."""
    return {
        (i, j): model.add_var(lb=0.0, obj=alpha * qtilde.cost(hk, i, j))
        for i in nodes for j in nodes if i != j
    }


def flow_coeffs(f: Dict[Arc, int], i: int, nodes: Iterable[int]) -> Dict[int, float]:
    """Outflow minus inflow of one request's flow at node i."""
    coeffs: Dict[int, float] = {}
    for j in nodes:
        if j != i:
            coeffs[f[(i, j)]] = 1.0
            coeffs[f[(j, i)]] = -1.0
    return coeffs


def supply(hk: Request, i: int) -> float:
    """Net outflow a request's flow needs at node i: 1 at h, -1 at k."""
    return 1.0 if i == hk[0] else (-1.0 if i == hk[1] else 0.0)


def add_linking_rows(model: LinearModel, x: Dict[Edge, int], f: Dict[Arc, int]) -> None:
    """f_ab + f_ba <= x_ab, one row per edge.

    It replaces f_ab <= x_ab and f_ba <= x_ab without changing any LP or MIP
    optimum: routing costs are non-negative, so a flow on both arcs of an
    edge can cancel the smaller amount without costing more.
    """
    for (a, b), xab in x.items():
        model.add_constr({f[(a, b)]: 1.0, f[(b, a)]: 1.0, xab: -1.0}, "<=", 0.0)


def add_service_rows(model: LinearModel, inst: Instance, serve: Dict[Request, int]) -> None:
    """The chance constraint over the 0/1 service columns `serve`.

    One new 0/1 column per scenario, set only when the served demand reaches
    theta times the scenario's total, and a row that asks for at least
    ceil((1 - rho) |S|) of them.
    """
    met = [model.add_var(lb=0.0, ub=1.0, integer=True) for _s in range(inst.scenarios.size)]
    for s, col in enumerate(met):
        coeffs = {serve[hk]: inst.scenarios.demand[s][idx]
                  for idx, hk in enumerate(inst.requests) if inst.scenarios.demand[s][idx]}
        coeffs[col] = -inst.theta * inst.scenarios.total(s)
        model.add_constr(coeffs, ">=", 0.0)
    model.add_constr({col: 1.0 for col in met}, ">=", float(inst.required_scenarios))


def chosen_edges(x: Dict[Edge, int], values: List[float]) -> List[Edge]:
    """Edges set to one in a solution, in lexicographic order."""
    return [e for e, col in x.items() if values[col] > 0.5]


def _sec_cut(x: Dict[Edge, int], component: Iterable[int]) -> Tuple[Dict[int, float], str, float]:
    """Subtour elimination: at most |S| - 1 edges inside S."""
    comp = sorted(component)
    return {x[e]: 1.0 for e in itertools.combinations(comp, 2)}, "<=", float(len(comp) - 1)


# --- generalized subtour elimination (GSEC) separation -----------------------
#
# For a node set S without the depot r and a node i in S, every tour through
# r satisfies x(δ(S)) >= x(δ(i)): if it visits i, it crosses δ(S) at least
# twice. The rows hold only edge variables.

def _min_cut_sink_side(adj: Dict[int, List[int]], cap: Dict[Arc, float],
                       s: int, t: int) -> FrozenSet[int]:
    """Sink side of a minimum s-t cut, by Edmonds-Karp on float capacities.

    `cap` holds both arcs of every support edge; `adj` lists neighbours in
    ascending order, so the breadth-first search and the cut are fixed.
    """
    flow = dict.fromkeys(cap, 0.0)
    while True:
        parent: Dict[int, Optional[int]] = {s: None}
        frontier = [s]
        while frontier and t not in parent:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in parent and cap[(u, v)] - flow[(u, v)] > _FLOW_TOL:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        if t not in parent:
            return frozenset(adj) - frozenset(parent)
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[a] - flow[a] for a in path)
        for u, v in path:
            flow[(u, v)] += push
            flow[(v, u)] -= push


def separate_gsecs(nodes: Sequence[int], xval: Dict[Edge, float], root: int
                   ) -> List[Tuple[FrozenSet[int], int]]:
    """Violated GSECs at the edge values `xval`, as (S, i) pairs.

    One root-i minimum cut per node i of positive degree; its sink side S
    yields a row when x(δ(S)) falls below x(δ(i)) by more than `GSEC_EPS`.
    Each S appears once, paired with its node of largest degree, which
    gives the most violated row for that S.
    """
    support = [e for e in itertools.combinations(sorted(nodes), 2)
               if xval.get(e, 0.0) > _FLOW_TOL]
    adj: Dict[int, List[int]] = {root: []}
    cap: Dict[Arc, float] = {}
    degree: Dict[int, float] = dict.fromkeys(nodes, 0.0)
    for a, b in support:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
        cap[(a, b)] = cap[(b, a)] = xval[(a, b)]
        degree[a] += xval[(a, b)]
        degree[b] += xval[(a, b)]
    for nbrs in adj.values():
        nbrs.sort()
    found: List[Tuple[FrozenSet[int], int]] = []
    seen: Set[FrozenSet[int]] = set()
    for t in sorted(adj):
        if t == root:
            continue
        side = _min_cut_sink_side(adj, cap, root, t)
        if side in seen:
            continue
        seen.add(side)
        cut = sum(xval[(a, b)] for a, b in support if (a in side) != (b in side))
        i = min(side, key=lambda v: (-degree[v], v))
        if degree[i] - cut > GSEC_EPS:
            found.append((side, i))
    return found


def gsec_row(x: Dict[Edge, int], nodes: Iterable[int], side: FrozenSet[int], i: int
             ) -> Tuple[Dict[int, float], str, float]:
    """x(δ(S)) - x(δ(i)) >= 0, with the edges from i out of S cancelled."""
    rest = sorted(side - {i})
    coeffs = {x[edge(a, b)]: 1.0 for a in rest for b in nodes if b not in side}
    coeffs.update({x[edge(i, b)]: -1.0 for b in rest})
    return coeffs, ">=", 0.0


# --- bound estimation ------------------------------------------------------

def cover_bounds(sub: SubInstance, cutpool: CutPool,
                 deadline: float = math.inf) -> Optional[BoundEstimate]:
    """Bracket the subproblem value without solving it.

    Lower bound: exact TSP design plus each request's direct-arc cost (no
    tour-constrained path is cheaper under a metric). Upper bound: evaluate
    the TSP tour itself, routing each request along it. The tour and the
    subtours met finding it go into `cutpool`, where `benders_solve_tspgl`
    reads them. None, with nothing cached, when the TSP reaches `deadline`.
    """
    alpha = sub.alpha
    key = sub.key
    cached = cutpool.tsp_cache.get(key)
    if cached is not None:
        tour, tsp_val = cached
    else:
        tsp = symmetric_tsp(sub.nodes, sub.inst.design, deadline)
        if tsp is None:
            return None
        seq, tsp_val, subtours = tsp
        tour = tuple(seq)
        cutpool.tsp_cache[key] = (tour, tsp_val)
        for comp in subtours:
            cutpool.add_subtour(key, comp)
    lb_routing = sum(sub.qtilde.cost(hk, *hk) for hk in sub.requests)
    ub_routing = sum(primal_subproblem(tour, hk, sub.qtilde)[1] for hk in sub.requests)
    return BoundEstimate(lb=(1.0 - alpha) * tsp_val + alpha * lb_routing,
                         ub=(1.0 - alpha) * tsp_val + alpha * ub_routing)


# --- Benders subproblems ---------------------------------------------------

def _tour_walk(seq: Sequence[int], hk: Request, qtilde: RoutingCostTable
               ) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Path cost from h to every node of the tour `seq`, forward and backward."""
    n = len(seq)
    start = seq.index(hk[0])
    fwd: Dict[int, float] = {}
    back: Dict[int, float] = {}
    travel, w = qtilde.travel, qtilde.weight[hk]
    ahead = behind = 0.0
    for t in range(n):
        a, b = seq[(start + t) % n], seq[(start - t) % n]
        fwd[a], back[b] = ahead, behind
        ahead += travel[a][seq[(start + t + 1) % n]] * w
        behind += travel[b][seq[(start - t - 1) % n]] * w
    return fwd, back


def primal_subproblem(xbar: Sequence[int], hk: Request, qtilde: RoutingCostTable
                      ) -> Tuple[Optional[Dict[Arc, float]], float]:
    """Unit shortest path h -> k along the tour, in its cheaper direction
    (forward on a tie).

    Returns (None, inf) when an endpoint is off the tour; the caller treats
    that as an infeasibility signal.
    """
    h, k = hk
    seq = list(xbar)
    if h not in seq or k not in seq:
        return None, math.inf
    fwd, back = _tour_walk(seq, hk, qtilde)
    step = 1 if fwd[k] <= back[k] else -1
    n = len(seq)
    at = seq.index(h)
    flow: Dict[Arc, float] = {}
    while seq[at] != k:
        nxt = (at + step) % n
        flow[(seq[at], seq[nxt])] = 1.0
        at = nxt
    return flow, min(fwd[k], back[k])


def dual_subproblem(xbar: Sequence[int], hk: Request, qtilde: RoutingCostTable
                    ) -> BendersDuals:
    """Optimal duals of the routing subproblem at the tour `xbar`, from
    potentials u_v = min(d(v), z), p_v = z - u_v over the tour's nodes.

    d(v) is the tour distance from h and z = d(k) the path cost. With
    lam_ij = max(0, u_j - u_i - c_ij) the duals are
    - valid: feasible for any u, so the cut holds for every tour;
    - tight: u_h = 0, u_k = z and lam = 0 on the tour arcs, so the dual
      objective at `xbar` is z;
    - dominant (Magnanti & Wong, 1981): min(., z) never widens a potential
      difference, so every lambda-bar falls or stays while p_h - p_k = z
      does not move. A node farther from h than k cannot shorten the path
      and no longer charges the chords to it.
    Their objective must reproduce the path cost, and a mismatch raises.
    """
    h, k = hk
    seq = list(xbar)
    if h not in seq or k not in seq:
        raise ValueError(f"request {hk} endpoints missing from tour {seq}")
    fwd, back = _tour_walk(seq, hk, qtilde)
    z = min(fwd[k], back[k])
    nodes = sorted(seq)
    u = {v: min(fwd[v], back[v], z) for v in nodes}
    p = {v: z - u[v] for v in nodes}
    # only positive multipliers are stored; an absent arc or edge holds 0
    lam: Dict[Arc, float] = {}
    lambda_bar: Dict[Edge, float] = {}
    w = qtilde.weight[hk]
    for i in nodes:
        ui, row = u[i], qtilde.travel[i]
        for j in nodes:
            if i != j:
                gain = u[j] - ui - row[j] * w
                if gain > 0.0:
                    lam[(i, j)] = gain
                    e = edge(i, j)
                    lambda_bar[e] = lambda_bar.get(e, 0.0) + gain
    obj = p[h] - p[k] - sum(lambda_bar.get(e, 0.0) for e in _cycle_edges(seq))
    if abs(obj - z) > 1e-9 * max(1.0, abs(z)):
        raise RuntimeError(f"routing duals of {hk} reach {obj!r}, the primal path costs {z!r}")
    return BendersDuals(p=p, lam=lam, lambda_bar=lambda_bar, objective=u[k])


def _cycle_edges(seq: Sequence[int]) -> List[Edge]:
    n = len(seq)
    return [edge(seq[t], seq[(t + 1) % n]) for t in range(n)]


# --- Benders master loop ---------------------------------------------------

def _master_model(sub: SubInstance) -> Tuple[LinearModel, Dict[Edge, int], Dict[int, int]]:
    """Tour master: edge columns, one routing-cost column eta per origin."""
    model = LinearModel()
    x = add_edge_vars(model, sub.nodes, sub.inst.design, scale=1.0 - sub.alpha,
                      integer=True)
    eta = {h: model.add_var(lb=0.0, obj=sub.alpha) for h in sub.origins()}
    for i in sub.nodes:
        model.add_constr(degree_coeffs(x, i, sub.nodes), "==", 2.0)
    return model, x, eta


def _optimality_row(x: Dict[Edge, int], eta: Dict[int, int],
                    duals: Dict[Request, BendersDuals], origin: int
                    ) -> Tuple[Dict[int, float], str, float]:
    """One Benders cut bundling every request leaving `origin`:
    eta_h + sum_e lambda-bar_e * x_e >= sum (p_h - p_k).

    Valid for every tour because each request's duals stay feasible whatever
    x is (weak duality per request).
    """
    lambda_bar: Dict[Edge, float] = {}
    rhs = 0.0
    for hk in sorted(duals):
        if hk[0] != origin:
            continue
        rhs += duals[hk].p[hk[0]] - duals[hk].p[hk[1]]
        for e, val in duals[hk].lambda_bar.items():
            lambda_bar[e] = lambda_bar.get(e, 0.0) + val
    coeffs = {eta[origin]: 1.0}
    for e, val in sorted(lambda_bar.items()):
        coeffs[x[e]] = val
    return coeffs, ">=", rhs


def solution_from_tour(sub: SubInstance, seq: Sequence[int]) -> TspGlSolution:
    """Score a tour: its design cost, and each request of the cover routed
    along it in its cheaper direction."""
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
    cutpool: CutPool,
    incumbent_ub: float = math.inf,
    deadline: float = math.inf,
) -> TspGlOutcome:
    """Benders loop: tour master, per-request path subproblems.

    The master starts with the optimality cuts of the TSP tour that
    `cover_bounds` cached in `cutpool.tsp_cache` for this node set (so that
    stage must have run) and the subtour cuts `cutpool` holds for it. It
    then runs through `resolve_with_cuts`, without primal heuristics, for
    at most `MAX_BENDERS_ITERATIONS` MIPs or until `deadline`. Each master
    solution yields subtour cuts if it splits into cycles, and otherwise its
    tour is scored and the optimality cuts of the origins whose eta it
    underestimates are added. The loop aborts as soon as the master
    objective provably exceeds `incumbent_ub`.
    """
    model, x, eta = _master_model(sub)
    for comp in cutpool.subtours_for(sub.key):
        model.add_constr(*_sec_cut(x, comp))
    tour, _tsp_val = cutpool.tsp_cache[sub.key]
    duals = {hk: dual_subproblem(tour, hk, sub.qtilde) for hk in sub.requests}
    for h in sub.origins():
        model.add_constr(*_optimality_row(x, eta, duals, h))

    incumbent: Optional[TspGlSolution] = None

    def separate(out: SolveOutcome) -> List[Tuple[Dict[int, float], str, float]]:
        nonlocal incumbent
        if out.objective > incumbent_ub + INCUMBENT_EPS:
            return []
        tours = cycles(chosen_edges(x, out.values))
        if len(tours) > 1:
            # no integer solution holds a subtour whose row is in the model,
            # so every cycle found here is new
            for tour in tours:
                cutpool.add_subtour(sub.key, tour)
            return [_sec_cut(x, tour) for tour in tours]
        seq = tours[0]
        candidate = solution_from_tour(sub, seq)
        if incumbent is None or candidate.objective < incumbent.objective - INCUMBENT_EPS:
            incumbent = candidate
        duals = {hk: dual_subproblem(seq, hk, sub.qtilde) for hk in sub.requests}
        violated = []
        for h in sub.origins():
            true_h = sum(duals[hk].objective for hk in sub.requests if hk[0] == h)
            if out.values[eta[h]] < true_h - _CUT_VIOLATION_EPS * max(1.0, abs(true_h)):
                violated.append(_optimality_row(x, eta, duals, h))
        return violated

    out = resolve_with_cuts(model, separate, max_rounds=MAX_BENDERS_ITERATIONS - 1,
                            deadline=deadline, tuning=NO_PRIMAL_HEURISTICS)
    if out.status == TIME_LIMIT or not out.cuts_complete:
        status = TIME_LIMIT
    elif not out.solved:
        status = INFEASIBLE
    elif out.objective > incumbent_ub + INCUMBENT_EPS:
        status = ABORTED
    else:
        status = OPTIMAL
    return TspGlOutcome(status, incumbent, out.cut_rounds + 1)
