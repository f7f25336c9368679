"""Deterministic tour-plus-routing solver on a cover-induced subgraph.

Given a feasibility cover Q, the subproblem is: find a Hamiltonian cycle over
N'(Q) (compulsory nodes plus cover endpoints) minimizing
(1-alpha) * design + alpha * routing, where each request in Q ships one unit
of flow along the cheapest tour-constrained path. It is solved by a Benders
loop: the master picks the tour, per-request shortest paths price it.

The module also holds the blocks every model shares: the edge columns, the
degree rows, one request's routing block (arc flows, conservation and
linking rows), and the one subtour row, a generalized subtour elimination
constraint (GSEC), for the cycles of integer tours and fractional values.
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

ABORTED = "Aborted"

_CUT_VIOLATION_EPS = 1e-7
# A Benders master above `ub + INCUMBENT_EPS` aborts, and the search discards
# a cover whose bound reaches `ub - INCUMBENT_EPS`; one constant keeps the two
# in step, and a new incumbent must beat the old one by more than it.
INCUMBENT_EPS = 1e-9
_FLOW_TOL = 1e-9        # edge values and residual capacities at or below this are zero
GSEC_EPS = 1e-6         # smallest violation for which a GSEC row is separated
MAX_BENDERS_ITERATIONS = 500
_SCREEN_STEPS = 40      # most 1-trees the screen in `cover_bounds` builds per cover
# relative margin a screened bound must clear above the cutoff, far above
# the float rounding of a 1-tree's value
_SCREEN_MARGIN = 1e-9


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
    d = inst.design
    if len(nodes) == 2:
        a, b = nodes
        extra = min(others, key=lambda v: (d[a][v] + d[v][b], v))
        return tuple(sorted([a, b, extra]))
    (a,) = nodes
    u, v = min(
        itertools.combinations(others, 2),
        key=lambda uv: (d[a][uv[0]] + d[uv[0]][uv[1]] + d[uv[1]][a], uv),
    )
    return tuple(sorted([a, u, v]))


def make_subinstance(inst: Instance, cover: FeasibilityCover) -> SubInstance:
    nodes = padded_node_set(inst, cover.visited)
    return SubInstance(inst=inst, nodes=nodes, requests=cover.requests)


@dataclass
class BendersDuals:
    p: Dict[int, float]                 # node potentials, >= 0
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
    add_degree_rows(model, x, nodes, 2.0)
    found: List[FrozenSet[int]] = []

    def cut_source(out: SolveOutcome):
        tours = cycles(chosen_edges(x, out.values))
        if len(tours) > 1:
            found.extend(map(frozenset, tours))
        return subtour_rows(x, nodes, tours, nodes)

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


# --- tour and routing blocks shared by every model --------------------------
#
# One design column per edge (a, b), a < b, in lexicographic order, and one
# degree row per node: the tour models ask for degree 2, the restricted
# master and the compact MIP for 0, with each stop column entering at -2.
# The master and the compact MIP route each request through one block of
# arc flows, conservation rows and linking rows, built in the same order.

def add_edge_vars(model: LinearModel, nodes: Sequence[int], cost, scale: float = 1.0,
                  integer: bool = False) -> Dict[Edge, int]:
    """One 0/1 design variable per node pair, costing scale * cost[a][b]."""
    return {
        (a, b): model.add_var(lb=0.0, ub=1.0, obj=scale * cost[a][b], integer=integer)
        for a, b in itertools.combinations(nodes, 2)
    }


def add_degree_rows(model: LinearModel, x: Dict[Edge, int], nodes: Sequence[int],
                    rhs: float) -> Dict[int, int]:
    """x(δ(i)) == rhs for every node i, over its edges to the other `nodes`;
    returns each node's row."""
    return {i: model.add_constr({x[edge(i, j)]: 1.0 for j in nodes if j != i}, "==", rhs)
            for i in nodes}


def add_routing(model: LinearModel, inst: Instance, x: Dict[Edge, int], hk: Request,
                served: Optional[int] = None) -> Tuple[int, int]:
    """One request's routing block; returns its conservation rows at h and k.

    Arc flows over every node pair, arc (i, j) costing alpha * (design[i][j]
    * the request's routing weight); one row per node, outflow minus inflow
    == 0, with the column `served` (when given) last at h (-1) and at k
    (+1); and f_ab + f_ba <= x_ab per edge. The paired row replaces f_ab <=
    x_ab and f_ba <= x_ab without changing any LP or MIP optimum: routing
    costs are non-negative, so a flow on both arcs of an edge can cancel the
    smaller amount without costing more.
    """
    w = inst.routing_weight[hk]
    f = {(i, j): model.add_var(lb=0.0, obj=inst.alpha * (inst.design[i][j] * w))
         for i in inst.nodes for j in inst.nodes if i != j}
    rows: Dict[int, int] = {}
    for i in inst.nodes:
        coeffs: Dict[int, float] = {}
        for j in inst.nodes:
            if j != i:
                coeffs[f[(i, j)]] = 1.0
                coeffs[f[(j, i)]] = -1.0
        if served is not None and i in hk:
            coeffs[served] = -1.0 if i == hk[0] else 1.0
        rows[i] = model.add_constr(coeffs, "==", 0.0)
    for (a, b), xab in x.items():
        model.add_constr({f[(a, b)]: 1.0, f[(b, a)]: 1.0, xab: -1.0}, "<=", 0.0)
    return rows[hk[0]], rows[hk[1]]


def add_service_rows(model: LinearModel, inst: Instance, serve: Dict[Request, int]) -> None:
    """The chance constraint over the 0/1 service columns `serve`.

    One new 0/1 column per scenario, set only when the served demand reaches
    theta times the scenario's total, and a row that asks for at least
    ceil((1 - rho) |S|) of them.
    """
    met = [model.add_var(lb=0.0, ub=1.0, integer=True) for _s in range(inst.n_scenarios)]
    for s, (col, total) in enumerate(zip(met, inst.scenario_totals)):
        coeffs = {serve[hk]: d[s] for hk, d in zip(inst.requests, inst.demand) if d[s]}
        coeffs[col] = -inst.theta * total
        model.add_constr(coeffs, ">=", 0.0)
    model.add_constr({col: 1.0 for col in met}, ">=", float(inst.required_scenarios))


def chosen_edges(x: Dict[Edge, int], values: List[float]) -> List[Edge]:
    """Edges set to one in a solution, in lexicographic order."""
    return [e for e, col in x.items() if values[col] > 0.5]


# --- generalized subtour elimination (GSEC) rows ---------------------------
#
# For a node set S without the depot r and a node i in S, every tour through
# r satisfies x(δ(S)) >= x(δ(i)): if it visits i, it crosses δ(S) at least
# twice. The rows hold only edge variables, and every model's subtour rows
# are these: separated at fractional values, or built by `subtour_rows`.

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


def subtour_rows(x: Dict[Edge, int], nodes: Sequence[int], tours: Iterable[Iterable[int]],
                 required: Iterable[int]) -> List[Tuple[Dict[int, float], str, float]]:
    """One GSEC row, with i = min(C), per cycle C of an integer solution that
    misses a node of `required`; a cycle holding all of them yields none."""
    required = frozenset(required)
    return [gsec_row(x, nodes, side, min(side))
            for side in map(frozenset, tours) if not required <= side]


# --- bound estimation ------------------------------------------------------

def _one_tree(c: Sequence[Sequence[float]], pi: Sequence[float]) -> Tuple[float, List[int]]:
    """Minimum 1-tree under the node penalties `pi`, and each node's degree.

    The tree spans nodes 1..m-1 (Prim) on the costs c[i][j] + pi[i] + pi[j],
    and node 0 joins it by its two cheapest such edges. Its value, the
    tree's cost minus 2 * sum(pi), bounds every tour's cost from below,
    whatever `pi` is (Held & Karp, 1970).
    """
    m = len(c)
    deg = [0] * m
    value = 0.0
    dist = [c[1][v] + pi[1] + pi[v] for v in range(m)]
    near = [1] * m
    rest = list(range(2, m))
    while rest:
        j = min(rest, key=dist.__getitem__)
        rest.remove(j)
        value += c[near[j]][j]
        deg[near[j]] += 1
        deg[j] += 1
        row, pj = c[j], pi[j]
        for v in rest:
            w = row[v] + pj + pi[v]
            if w < dist[v]:
                dist[v], near[v] = w, j
    a, b = sorted(range(1, m), key=lambda v: c[0][v] + pi[v])[:2]
    value += c[0][a] + c[0][b]
    deg[0] = 2
    deg[a] += 1
    deg[b] += 1
    # the penalties add pi[i] * deg[i] over the tree and 2 * pi[i] over a tour
    return value + sum(p * (d - 2) for p, d in zip(pi, deg)), deg


def _tree_screen(c: Sequence[Sequence[float]], need: float) -> float:
    """The best 1-tree bound on the tour cost over `c` found by Polyak
    subgradient steps toward `need`; stops as soon as it reaches `need`,
    when the 1-tree is a tour (no penalty can raise it), or after
    `_SCREEN_STEPS` trees."""
    pi = [0.0] * len(c)
    best = -math.inf
    for _ in range(_SCREEN_STEPS):
        value, deg = _one_tree(c, pi)
        best = max(best, value)
        norm = sum((d - 2) ** 2 for d in deg)
        if best >= need or norm == 0:
            break
        step = (need - value) / norm
        pi = [p + step * (d - 2) for p, d in zip(pi, deg)]
    return best


def cover_bounds(sub: SubInstance, cutpool: CutPool, deadline: float = math.inf,
                 cutoff: float = math.inf) -> Optional[BoundEstimate]:
    """Bracket the subproblem value without solving it.

    Lower bound: exact TSP design plus each request's direct-arc cost (no
    tour-constrained path is cheaper under a metric). Upper bound: evaluate
    the TSP tour itself, routing each request along it. The tour and the
    subtours met finding it go into `cutpool`, where `benders_solve_tspgl`
    reads them. None, with nothing cached, when the TSP reaches `deadline`.

    A node set of at least 4 nodes that `cutpool` has no tour for is first
    screened against a finite `cutoff`: a 1-tree bound stands in for the
    TSP. If it proves the lower bound at least `cutoff` (plus a relative
    1e-9), the result is that proven lower bound and an infinite upper
    bound, and nothing is solved or cached. The exact lower bound is then
    at least `cutoff` too, so a caller that discards a cover whose lower
    bound reaches `cutoff` decides exactly as it would without the screen.
    """
    inst = sub.inst
    alpha = inst.alpha
    key = sub.key
    lb_routing = sum(inst.design[h][k] * inst.routing_weight[(h, k)] for h, k in sub.requests)
    cached = cutpool.tsp_cache.get(key)
    if cached is None and math.isfinite(cutoff) and len(sub.nodes) >= 4:
        target = cutoff + _SCREEN_MARGIN * max(1.0, abs(cutoff))
        # the screen bounds (1 - alpha) * TSP on scaled costs, so it never
        # divides by 1 - alpha; at alpha = 1 that term is 0 and no tree helps
        c = [[(1.0 - alpha) * inst.design[a][b] for b in sub.nodes] for a in sub.nodes]
        tree = _tree_screen(c, target - alpha * lb_routing) if alpha < 1.0 else 0.0
        lb = tree + alpha * lb_routing
        if lb >= target:
            return BoundEstimate(lb=lb, ub=math.inf)
    if cached is not None:
        tour, tsp_val = cached
    else:
        tsp = symmetric_tsp(sub.nodes, inst.design, deadline)
        if tsp is None:
            return None
        seq, tsp_val, subtours = tsp
        tour = tuple(seq)
        cutpool.tsp_cache[key] = (tour, tsp_val)
        for comp in subtours:
            cutpool.add_subtour(key, comp)
    ub_routing = sum(primal_subproblem(tour, hk, inst) for hk in sub.requests)
    return BoundEstimate(lb=(1.0 - alpha) * tsp_val + alpha * lb_routing,
                         ub=(1.0 - alpha) * tsp_val + alpha * ub_routing)


# --- Benders subproblems ---------------------------------------------------

def _tour_walk(seq: Sequence[int], hk: Request, inst: Instance
               ) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Path cost from h to every node of the tour `seq`, forward and backward."""
    n = len(seq)
    start = seq.index(hk[0])
    fwd: Dict[int, float] = {}
    back: Dict[int, float] = {}
    travel, w = inst.design, inst.routing_weight[hk]
    ahead = behind = 0.0
    for t in range(n):
        a, b = seq[(start + t) % n], seq[(start - t) % n]
        fwd[a], back[b] = ahead, behind
        ahead += travel[a][seq[(start + t + 1) % n]] * w
        behind += travel[b][seq[(start - t - 1) % n]] * w
    return fwd, back


def primal_subproblem(xbar: Sequence[int], hk: Request, inst: Instance) -> float:
    """Cost of the unit shortest path h -> k along the tour: the cheaper of
    its two directions.

    Returns inf when an endpoint is off the tour; the caller treats that as
    an infeasibility signal.
    """
    h, k = hk
    seq = list(xbar)
    if h not in seq or k not in seq:
        return math.inf
    fwd, back = _tour_walk(seq, hk, inst)
    return min(fwd[k], back[k])


def dual_subproblem(xbar: Sequence[int], hk: Request, inst: Instance) -> BendersDuals:
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
    fwd, back = _tour_walk(seq, hk, inst)
    z = min(fwd[k], back[k])
    nodes = sorted(seq)
    u = {v: min(fwd[v], back[v], z) for v in nodes}
    p = {v: z - u[v] for v in nodes}
    # each positive lam_ij goes into its edge's lambda-bar; an absent edge holds 0
    lambda_bar: Dict[Edge, float] = {}
    w = inst.routing_weight[hk]
    for i in nodes:
        ui, row = u[i], inst.design[i]
        for j in nodes:
            if i != j:
                gain = u[j] - ui - row[j] * w
                if gain > 0.0:
                    e = edge(i, j)
                    lambda_bar[e] = lambda_bar.get(e, 0.0) + gain
    obj = p[h] - p[k] - sum(lambda_bar.get(e, 0.0) for e in _cycle_edges(seq))
    if abs(obj - z) > 1e-9 * max(1.0, abs(z)):
        raise RuntimeError(f"routing duals of {hk} reach {obj!r}, the primal path costs {z!r}")
    return BendersDuals(p=p, lambda_bar=lambda_bar, objective=u[k])


def _cycle_edges(seq: Sequence[int]) -> List[Edge]:
    n = len(seq)
    return [edge(seq[t], seq[(t + 1) % n]) for t in range(n)]


# --- Benders master loop ---------------------------------------------------

def _master_model(sub: SubInstance) -> Tuple[LinearModel, Dict[Edge, int], Dict[int, int]]:
    """Tour master: edge columns, one routing-cost column eta per origin."""
    model = LinearModel()
    x = add_edge_vars(model, sub.nodes, sub.inst.design, scale=1.0 - sub.inst.alpha,
                      integer=True)
    eta = {h: model.add_var(lb=0.0, obj=sub.inst.alpha) for h in sub.origins()}
    add_degree_rows(model, x, sub.nodes, 2.0)
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
    design = sum(inst.design[a][b] for a, b in tour_edges)
    routing = 0.0
    for hk in sub.requests:
        routing += primal_subproblem(seq, hk, inst)
    total = (1.0 - inst.alpha) * design + inst.alpha * routing
    return TspGlSolution(
        tour_edges=tour_edges,
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
    for row in subtour_rows(x, sub.nodes, cutpool.subtours_for(sub.key), sub.nodes):
        model.add_constr(*row)
    tour, _tsp_val = cutpool.tsp_cache[sub.key]
    duals = {hk: dual_subproblem(tour, hk, sub.inst) for hk in sub.requests}
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
            return subtour_rows(x, sub.nodes, tours, sub.nodes)
        seq = tours[0]
        candidate = solution_from_tour(sub, seq)
        if incumbent is None or candidate.objective < incumbent.objective - INCUMBENT_EPS:
            incumbent = candidate
        duals = {hk: dual_subproblem(seq, hk, sub.inst) for hk in sub.requests}
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
