"""Independent reference implementations used to verify the solvers.

Everything here is brute force or textbook on purpose: subset enumeration
for covers, permutation enumeration and the loop form of Held-Karp for
tours. Keep these free of any imports from the solver internals beyond the
plain data model. Two exceptions share the LP layer and the block builders,
not the code they check: `solve_tspgl_direct`, a monolithic flow MIP that
the Benders loop is checked against, which cuts subtours with its own
textbook row `sec_row`, and `lp_duals`, the routing dual LP
that the Benders duals are checked against. `add_split_linking_rows` is the
textbook two-row form of the linking rows that the paired form is checked
against. `presolved_lp_objective` reads a `LinearModel`'s arrays and
solves them with a plain `linprog` call, as the RMP LP's differential
oracle. `warm_start` runs the solver's own bound stage, because the
Benders loop reads its tour from the cut cache that stage fills.
`is_minimal` checks cover minimalization against `chance_feasible`
itself, one request removal at a time. The chance constraint's reference
sums each scenario's served demand and total with its own generators over
`Instance.demand`, request by request, which the solver's demand columns
and scenario totals must reproduce bit for bit; `metrics_reference` scores
a solution from those sums. `routing_weight` rebuilds each request's
routing weight from the same totals with the solver's arithmetic, so
`structural_violations` and every arc cost here price routing without
reading `Instance.routing_weight`.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from stspgl.model import (
    OPTIMAL,
    TIME_LIMIT,
    Edge,
    Instance,
    Request,
    TspGlSolution,
    cycles,
    edge,
    required_scenario_count,
)
from stspgl.mpbackend import LinearModel, SolveOutcome, resolve_with_cuts, solve_lp
from stspgl.scenarios import MetricsRow, chance_feasible
from stspgl.tspgl import (
    BendersDuals,
    CutPool,
    SubInstance,
    TspGlOutcome,
    add_edge_vars,
    chosen_edges,
    cover_bounds,
    _cycle_edges,
    solution_from_tour,
)

SAT_EPS = 1e-9


def demand(inst: Instance, s: int, hk: Request) -> float:
    return inst.demand[inst.requests.index(hk)][s]


def scenario_total(inst: Instance, s: int) -> float:
    """Scenario s's total demand, summed over the requests in their order."""
    return sum(col[s] for col in inst.demand)


def served_demand_reference(inst: Instance, served: Sequence[Request]) -> List[float]:
    served = list(served)
    return [sum(demand(inst, s, hk) for hk in served) for s in range(inst.n_scenarios)]


def scenario_satisfied(inst: Instance, served: Sequence[Request], s: int) -> bool:
    """True when the served requests cover a theta share of scenario demand."""
    got = sum(demand(inst, s, hk) for hk in served)
    need = inst.theta * scenario_total(inst, s)
    return got >= need - SAT_EPS


def satisfied_count(inst: Instance, served: Sequence[Request]) -> int:
    served = list(served)
    return sum(1 for s in range(inst.n_scenarios) if scenario_satisfied(inst, served, s))


def subset_is_cover(inst: Instance, subset: Sequence[Request]) -> bool:
    return satisfied_count(inst, subset) >= required_scenario_count(inst.n_scenarios, inst.rho)


def metrics_reference(inst: Instance, served: Sequence[Request], design_cost: float,
                      visited: Sequence[int]) -> MetricsRow:
    """The metrics row with each scenario's served demand summed afresh for
    the unmet share, the per-scenario verdict and the chance constraint."""
    served = list(served)
    ns = inst.n_scenarios
    unmet = 0.0
    missed = 0
    for s in range(ns):
        total = scenario_total(inst, s)
        got = sum(demand(inst, s, hk) for hk in served)
        unmet += max(0.0, total - got) / total
        if not scenario_satisfied(inst, served, s):
            missed += 1
    return MetricsRow(nodes=inst.n, theta=inst.theta, rho=inst.rho, design_cost=design_cost,
                      nbar=len(set(visited)), dbar=unmet / ns, rhobar=missed / ns,
                      infeasible=not subset_is_cover(inst, served))


def routing_weight(inst: Instance, hk: Request) -> float:
    """Request hk's routing weight: the mean over scenarios of its demand
    over theta times the scenario's total, added scenario by scenario."""
    ns = inst.n_scenarios
    acc = 0.0
    for s in range(ns):
        acc += demand(inst, s, hk) / (inst.theta * scenario_total(inst, s))
    return acc / ns


def is_minimal(inst: Instance, cover) -> bool:
    """A feasibility cover that stops being one when any request leaves it."""
    reqs = list(getattr(cover, "requests", cover))
    if not chance_feasible(inst, reqs):
        return False
    return not any(chance_feasible(inst, [x for x in reqs if x != r]) for r in reqs)


def structural_violations(sol: TspGlSolution, inst: Instance) -> List[str]:
    """One line per flaw: a broken degree, an unvisited compulsory node, a
    split cycle, a served request with an endpoint off the tour, or a cost
    that the tour does not give.

    The oracle routes each served request itself, the cheaper way round the
    tour at its routing weight, and checks the design,
    routing and total costs to 1e-9 relative."""
    report: List[str] = []
    degree: Dict[int, int] = {}
    for i, j in sol.tour_edges:
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    for v, d in degree.items():
        if d != 2:
            report.append(f"node {v} has tour degree {d}")
    for v in inst.compulsory:
        if v not in degree:
            report.append(f"compulsory node {v} not visited")
    # single connected cycle over the visited nodes
    if sol.tour_edges:
        seen = {min(degree)}
        stack = [min(degree)]
        adj: Dict[int, List[int]] = {}
        for i, j in sol.tour_edges:
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
        while stack:
            cur = stack.pop()
            for nb in adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != set(degree):
            report.append("tour is not a single connected cycle")
    off = [hk for hk in sol.served if hk[0] not in degree or hk[1] not in degree]
    report.extend(f"request {hk} has an endpoint off the tour" for hk in off)
    if report:
        return report
    design = sum(inst.design[a][b] for a, b in sol.tour_edges)
    seq = sol.tour_sequence()
    routing = 0.0
    for hk in sol.served:
        routing += tour_path_cost(seq, *hk, arc_cost(inst, hk))
    total = (1.0 - inst.alpha) * design + inst.alpha * routing
    for name, got, want in (("design_cost", sol.design_cost, design),
                            ("routing_cost", sol.routing_cost, routing),
                            ("objective", sol.objective, total)):
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            report.append(f"{name} {got!r} differs from the tour's {want!r}")
    return report


def enumerate_minimal_covers(inst: Instance) -> List[Tuple]:
    """All minimal feasibility covers by full subset enumeration (|D| small)."""
    reqs = list(inst.requests)
    nd = len(reqs)
    cover_mask: Dict[int, bool] = {}
    for mask in range(1 << nd):
        subset = [reqs[i] for i in range(nd) if mask >> i & 1]
        cover_mask[mask] = subset_is_cover(inst, subset)
    minimal = []
    for mask in range(1 << nd):
        if not cover_mask[mask]:
            continue
        # single-bit removals suffice: feasibility is monotone under supersets
        if all(not cover_mask[mask & ~(1 << i)] for i in range(nd) if mask >> i & 1):
            minimal.append(tuple(sorted(reqs[i] for i in range(nd) if mask >> i & 1)))
    return sorted(minimal)


def oracle_tsp(nodes: Sequence[int], cost) -> Tuple[List[int], float]:
    """Exact symmetric TSP by permutation enumeration (fix the first node)."""
    nodes = sorted(nodes)
    if len(nodes) == 1:
        return list(nodes), 0.0
    if len(nodes) == 2:
        a, b = nodes
        return list(nodes), 2.0 * cost[a][b]
    first, rest = nodes[0], nodes[1:]
    best_val = math.inf
    best_seq: List[int] = []
    for perm in itertools.permutations(rest):
        if perm[0] > perm[-1]:
            continue  # each cycle direction counted once
        seq = [first, *perm]
        val = sum(cost[seq[i]][seq[(i + 1) % len(seq)]] for i in range(len(seq)))
        if val < best_val - 1e-12:
            best_val = val
            best_seq = seq
    return best_seq, best_val


def held_karp_reference(nodes: List[int], cost) -> Tuple[List[int], float]:
    """Held-Karp in its textbook loop form: push each subset to its supersets.

    Among equal candidates the strict `<` keeps the lowest predecessor, and
    the closing node is the lowest of the cheapest.
    """
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


def arc_cost(inst: Instance, hk: Request):
    """Request hk's cost on arc (a, b): the design cost times its routing weight."""
    w = routing_weight(inst, hk)
    return lambda a, b: inst.design[a][b] * w


def tour_path_cost(seq: Sequence[int], i: int, j: int, weight) -> float:
    """Cheapest of the two directions between i and j along the cycle."""
    pos = {v: idx for idx, v in enumerate(seq)}
    n = len(seq)
    cw = 0.0
    at = pos[i]
    while seq[at] != j:
        nxt = (at + 1) % n
        cw += weight(seq[at], seq[nxt])
        at = nxt
    ccw = 0.0
    at = pos[i]
    while seq[at] != j:
        nxt = (at - 1) % n
        ccw += weight(seq[at], seq[nxt])
        at = nxt
    return min(cw, ccw)


def padded_nodes(inst: Instance, visited) -> List[int]:
    """Grow a visited set below tour size to 3 nodes, cheapest-first.

    Mirrors the production padding contract: one node minimizing the detour
    (two-node case) or the pair minimizing the triangle perimeter (one-node
    case), ties broken by node id.
    """
    nodes = sorted(visited)
    if len(nodes) >= 3:
        return nodes
    others = [v for v in inst.nodes if v not in visited]
    if len(nodes) == 2:
        a, b = nodes
        extra = min(others, key=lambda v: (inst.design[a][v] + inst.design[v][b], v))
        return sorted([a, b, extra])
    (a,) = nodes
    best = min(
        itertools.combinations(others, 2),
        key=lambda uv: (inst.design[a][uv[0]] + inst.design[uv[0]][uv[1]]
                        + inst.design[uv[1]][a], uv),
    )
    return sorted([a, *best])


def oracle_tspgl(inst: Instance, cover) -> Tuple[float, List[int]]:
    """Exact TSP-GL on the cover's node set by tour enumeration."""
    reqs = tuple(sorted(cover))
    visited = set(inst.compulsory)
    for h, k in reqs:
        visited.add(h)
        visited.add(k)
    nodes = padded_nodes(inst, visited)
    first, rest = nodes[0], nodes[1:]
    best_val = math.inf
    best_seq: List[int] = []
    costs = [arc_cost(inst, hk) for hk in reqs]
    for perm in itertools.permutations(rest):
        if len(perm) > 1 and perm[0] > perm[-1]:
            continue
        seq = [first, *perm]
        design = sum(inst.design[seq[i]][seq[(i + 1) % len(seq)]] for i in range(len(seq)))
        routing = 0.0
        for hk, cost in zip(reqs, costs):
            routing += tour_path_cost(seq, hk[0], hk[1], cost)
        val = (1.0 - inst.alpha) * design + inst.alpha * routing
        if val < best_val - 1e-12:
            best_val = val
            best_seq = seq
    return best_val, best_seq


def oracle_stspgl(inst: Instance) -> Tuple[Optional[float], Optional[Tuple]]:
    """Exact optimum: best TSP-GL value over all minimal covers.

    Valid because the TSP-GL value is monotone nondecreasing when a cover
    grows (metric shortcutting), so some minimal cover attains the optimum.
    Returns (None, None) when no cover exists.
    """
    covers = enumerate_minimal_covers(inst)
    if not covers:
        return None, None
    best_val = math.inf
    best_cover: Optional[Tuple] = None
    for cov in covers:
        val, _ = oracle_tspgl(inst, cov)
        if val < best_val - 1e-12:
            best_val = val
            best_cover = cov
    return best_val, best_cover


def lp_duals(xbar: Sequence[int], hk: Request, inst: Instance,
             nodes: Sequence[int]) -> BendersDuals:
    """Routing duals at the tour `xbar` from the dual LP of the path flow."""
    xval = {e: 0.0 for e in itertools.combinations(sorted(nodes), 2)}
    for e in _cycle_edges(xbar):
        xval[e] = 1.0
    # maximize sum supply * p - sum x * lam as the minimum of its negation
    model = LinearModel()
    pcol = {v: model.add_var(lb=0.0, obj=-supply(hk, v)) for v in nodes}
    lcol = {(i, j): model.add_var(lb=0.0, obj=xval[edge(i, j)])
            for i in nodes for j in nodes if i != j}
    cost = arc_cost(inst, hk)
    for (i, j), col in lcol.items():
        model.add_constr({pcol[i]: 1.0, pcol[j]: -1.0, col: -1.0}, "<=", cost(i, j))
    out = solve_lp(model)
    if out.status != OPTIMAL:
        raise RuntimeError(f"routing dual LP ended with status {out.status}")
    p = {v: out.values[col] for v, col in pcol.items()}
    lambda_bar = {
        (a, b): out.values[lcol[(a, b)]] + out.values[lcol[(b, a)]]
        for a, b in itertools.combinations(sorted(nodes), 2)
    }
    return BendersDuals(p=p, lambda_bar=lambda_bar, objective=-out.objective)


def supply(hk: Request, v: int) -> float:
    """Net outflow a request's flow needs at node v: 1 at h, -1 at k."""
    return 1.0 if v == hk[0] else (-1.0 if v == hk[1] else 0.0)


def add_flow_block(model: LinearModel, inst: Instance, x: Dict[Edge, int], hk: Request,
                   nodes: Sequence[int], rhs, split: bool = False) -> Dict[int, int]:
    """One request's flow over `nodes`, built apart from the solver's own
    routing block: arc columns at alpha * (design * weight), a row per node
    asking net outflow rhs(v), and f_ab + f_ba <= x_ab per edge, or with
    `split` f_ab <= x_ab and f_ba <= x_ab. Returns each node's flow row."""
    cost = arc_cost(inst, hk)
    f = {(i, j): model.add_var(lb=0.0, obj=inst.alpha * cost(i, j))
         for i in nodes for j in nodes if i != j}
    rows = {}
    for i in nodes:
        coeffs: Dict[int, float] = {}
        for j in nodes:
            if j != i:
                coeffs[f[(i, j)]] = 1.0
                coeffs[f[(j, i)]] = -1.0
        rows[i] = model.add_constr(coeffs, "==", rhs(i))
    for (a, b), xab in x.items():
        if split:
            model.add_constr({f[(a, b)]: 1.0, xab: -1.0}, "<=", 0.0)
            model.add_constr({f[(b, a)]: 1.0, xab: -1.0}, "<=", 0.0)
        else:
            model.add_constr({f[(a, b)]: 1.0, f[(b, a)]: 1.0, xab: -1.0}, "<=", 0.0)
    return rows


def add_split_routing(model: LinearModel, inst: Instance, x: Dict[Edge, int],
                      hk: Request) -> Tuple[int, int]:
    """The master's routing block with f <= x on both arcs of every edge:
    two linking rows per edge."""
    rows = add_flow_block(model, inst, x, hk, inst.nodes, lambda _v: 0.0, split=True)
    return rows[hk[0]], rows[hk[1]]


def sec_row(x: Dict[Edge, int], component: Iterable[int]) -> Tuple[Dict[int, float], str, float]:
    """Subtour elimination in its textbook form: at most |C| - 1 edges
    inside C, written here so the reference shares no row with the solver."""
    comp = sorted(component)
    return {x[e]: 1.0 for e in itertools.combinations(comp, 2)}, "<=", float(len(comp) - 1)


def solve_tspgl_direct(sub: SubInstance, deadline: float = math.inf) -> TspGlOutcome:
    """One-shot flow MIP over the subgraph, with a subtour resolve loop.

    Flow caps alone leave room for a disconnected design when some component
    carries no request, so the resolve loop enforces a single cycle.
    """
    inst = sub.inst
    model = LinearModel()
    x = add_edge_vars(model, sub.nodes, inst.design, scale=1.0 - inst.alpha, integer=True)
    for i in sub.nodes:
        model.add_constr({x[edge(i, j)]: 1.0 for j in sub.nodes if j != i}, "==", 2.0)
    for hk in sub.requests:
        add_flow_block(model, inst, x, hk, sub.nodes, lambda v, hk=hk: supply(hk, v))

    def cut_source(out: SolveOutcome):
        tours = cycles(chosen_edges(x, out.values))
        return [sec_row(x, tour) for tour in tours] if len(tours) > 1 else []

    out = resolve_with_cuts(model, cut_source, max_rounds=len(sub.nodes) * 4,
                            deadline=deadline)
    if not out.solved:
        return TspGlOutcome(out.status, None)
    tours = cycles(chosen_edges(x, out.values))
    if len(tours) > 1:
        # the cut rounds ran out on a solve that still splits
        return TspGlOutcome(TIME_LIMIT, None, out.cut_rounds + 1)
    sol = solution_from_tour(sub, tours[0])
    status = OPTIMAL if out.status == OPTIMAL and out.cuts_complete else TIME_LIMIT
    return TspGlOutcome(status, sol, out.cut_rounds + 1)


def presolved_lp_objective(model: LinearModel) -> Optional[float]:
    """The model's LP optimum from a plain `linprog` call with HiGHS's
    default presolve, or None when HiGHS proves no optimum.

    Each row goes in as written: an equality to `A_eq`, and each finite side
    of any other row as its own `<=` row of `A_ub`.
    """
    c, lb, ub, _ = model._arrays()
    mat, lo, hi = model._matrix()
    eq = lo == hi
    upper, lower = np.isfinite(hi) & ~eq, np.isfinite(lo) & ~eq
    ineq = upper.any() or lower.any()
    res = linprog(
        c,
        A_ub=sparse.vstack([mat[upper], -mat[lower]]) if ineq else None,
        b_ub=np.concatenate([hi[upper], -lo[lower]]) if ineq else None,
        A_eq=mat[eq] if eq.any() else None,
        b_eq=lo[eq] if eq.any() else None,
        bounds=np.column_stack((lb, ub)),
        method="highs",
    )
    return float(res.fun) if res.status == 0 else None


def warm_start(sub: SubInstance) -> CutPool:
    """A fresh cut cache after the cover's bound stage, holding the TSP tour
    `benders_solve_tspgl` starts from."""
    pool = CutPool()
    cover_bounds(sub, pool)
    return pool
