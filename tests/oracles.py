"""Independent reference implementations used to verify the solvers.

Everything here is brute force or textbook on purpose: subset enumeration
for covers, permutation enumeration and the loop form of Held-Karp for
tours. Keep these free of any imports from the solver internals beyond the
plain data model. Two exceptions share the LP layer and the block builders,
not the code they check: `solve_tspgl_direct`, a monolithic flow MIP that
the Benders loop is checked against, and `lp_duals`, the routing dual LP
that the Benders duals are checked against. `add_split_linking_rows` is the
textbook two-row form of the linking rows that the paired form is checked
against. `is_minimal` checks cover minimalization against `chance_feasible`
itself, one request removal at a time. The chance constraint's reference
sums each scenario's served demand with its own generator, request by
request, which the solver's precomputed demand columns must reproduce bit
for bit; `metrics_reference` scores a solution from those sums.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from stspgl.model import (
    FLOW_EPS,
    OPTIMAL,
    TIME_LIMIT,
    Arc,
    Edge,
    Instance,
    Request,
    TspGlSolution,
    cycles,
    edge,
    required_scenario_count,
)
from stspgl.mpbackend import LinearModel, SolveOutcome, resolve_with_cuts, solve_lp
from stspgl.scenarios import MetricsRow, RoutingCostTable, chance_feasible
from stspgl.tspgl import (
    BendersDuals,
    SubInstance,
    TspGlOutcome,
    add_edge_vars,
    add_flow_vars,
    add_linking_rows,
    chosen_edges,
    degree_coeffs,
    flow_coeffs,
    supply,
    _cycle_edges,
    _sec_cut,
    solution_from_tour,
)

SAT_EPS = 1e-9


def demand(inst: Instance, s: int, hk: Request) -> float:
    return inst.scenarios.demand[s][inst.requests.index(hk)]


def served_demand_reference(inst: Instance, served: Sequence[Request]) -> List[float]:
    served = list(served)
    return [sum(demand(inst, s, hk) for hk in served) for s in range(inst.scenarios.size)]


def scenario_satisfied(inst: Instance, served: Sequence[Request], s: int) -> bool:
    """True when the served requests cover a theta share of scenario demand."""
    got = sum(demand(inst, s, hk) for hk in served)
    need = inst.theta * inst.scenarios.total(s)
    return got >= need - SAT_EPS


def satisfied_count(inst: Instance, served: Sequence[Request]) -> int:
    served = list(served)
    return sum(1 for s in range(inst.scenarios.size) if scenario_satisfied(inst, served, s))


def subset_is_cover(inst: Instance, subset: Sequence[Request]) -> bool:
    return satisfied_count(inst, subset) >= required_scenario_count(inst.scenarios.size, inst.rho)


def metrics_reference(inst: Instance, served: Sequence[Request], design_cost: float,
                      visited: Sequence[int]) -> MetricsRow:
    """The metrics row with each scenario's served demand summed afresh for
    the unmet share, the per-scenario verdict and the chance constraint."""
    served = list(served)
    ns = inst.scenarios.size
    unmet = 0.0
    missed = 0
    for s in range(ns):
        total = inst.scenarios.total(s)
        got = sum(demand(inst, s, hk) for hk in served)
        unmet += max(0.0, total - got) / total
        if not scenario_satisfied(inst, served, s):
            missed += 1
    return MetricsRow(nodes=inst.n, theta=inst.theta, rho=inst.rho, design_cost=design_cost,
                      nbar=len(set(visited)), dbar=unmet / ns, rhobar=missed / ns,
                      infeasible=not subset_is_cover(inst, served))


def is_minimal(inst: Instance, cover) -> bool:
    """A feasibility cover that stops being one when any request leaves it."""
    reqs = list(getattr(cover, "requests", cover))
    if not chance_feasible(inst, reqs):
        return False
    return not any(chance_feasible(inst, [x for x in reqs if x != r]) for r in reqs)


def structural_violations(sol: TspGlSolution, inst: Instance) -> List[str]:
    """One line per flaw: a broken degree, an unvisited compulsory node, a
    split cycle, or a flow that leaves the tour or breaks conservation."""
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
    for hk, flow in sol.flows.items():
        out_minus_in: Dict[int, float] = {}
        for (i, j), val in flow.items():
            if val < -FLOW_EPS:
                report.append(f"negative flow on arc ({i},{j}) for request {hk}")
            if val > FLOW_EPS and edge(i, j) not in sol.tour_edges:
                report.append(f"flow off the tour on arc ({i},{j}) for request {hk}")
            out_minus_in[i] = out_minus_in.get(i, 0.0) + val
            out_minus_in[j] = out_minus_in.get(j, 0.0) - val
        h, k = hk
        for v, bal in out_minus_in.items():
            want = 1.0 if v == h else (-1.0 if v == k else 0.0)
            if abs(bal - want) > 1e-6:
                report.append(f"flow conservation broken at node {v} for request {hk}")
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
        extra = min(others, key=lambda v: (inst.cbar(a, v) + inst.cbar(v, b), v))
        return sorted([a, b, extra])
    (a,) = nodes
    best = min(
        itertools.combinations(others, 2),
        key=lambda uv: (inst.cbar(a, uv[0]) + inst.cbar(uv[0], uv[1]) + inst.cbar(uv[1], a), uv),
    )
    return sorted([a, *best])


def oracle_tspgl(inst: Instance, qtilde: RoutingCostTable, cover) -> Tuple[float, List[int]]:
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
    for perm in itertools.permutations(rest):
        if len(perm) > 1 and perm[0] > perm[-1]:
            continue
        seq = [first, *perm]
        design = sum(inst.cbar(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))
        routing = 0.0
        for hk in reqs:
            routing += tour_path_cost(seq, hk[0], hk[1], lambda a, b: qtilde.cost(hk, a, b))
        val = (1.0 - inst.alpha) * design + inst.alpha * routing
        if val < best_val - 1e-12:
            best_val = val
            best_seq = seq
    return best_val, best_seq


def oracle_stspgl(inst: Instance, qtilde: Optional[RoutingCostTable] = None) -> Tuple[Optional[float], Optional[Tuple]]:
    """Exact optimum: best TSP-GL value over all minimal covers.

    Valid because the TSP-GL value is monotone nondecreasing when a cover
    grows (metric shortcutting), so some minimal cover attains the optimum.
    Returns (None, None) when no cover exists.
    """
    from stspgl.scenarios import deterministic_routing_costs

    if qtilde is None:
        qtilde = deterministic_routing_costs(inst)
    covers = enumerate_minimal_covers(inst)
    if not covers:
        return None, None
    best_val = math.inf
    best_cover: Optional[Tuple] = None
    for cov in covers:
        val, _ = oracle_tspgl(inst, qtilde, cov)
        if val < best_val - 1e-12:
            best_val = val
            best_cover = cov
    return best_val, best_cover


def lp_duals(xbar: Sequence[int], hk: Request, qtilde: RoutingCostTable,
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
    for (i, j), col in lcol.items():
        model.add_constr({pcol[i]: 1.0, pcol[j]: -1.0, col: -1.0}, "<=",
                         qtilde.cost(hk, i, j))
    out = solve_lp(model)
    if out.status != OPTIMAL:
        raise RuntimeError(f"routing dual LP ended with status {out.status}")
    p = {v: out.values[col] for v, col in pcol.items()}
    lam = {arc: out.values[col] for arc, col in lcol.items()}
    lambda_bar = {
        (a, b): lam[(a, b)] + lam[(b, a)]
        for a, b in itertools.combinations(sorted(nodes), 2)
    }
    return BendersDuals(p=p, lam=lam, lambda_bar=lambda_bar, objective=-out.objective)


def add_split_linking_rows(model: LinearModel, x: Dict[Edge, int], f: Dict[Arc, int]) -> None:
    """f <= x on both arcs of every edge: two rows per edge."""
    for (a, b), xab in x.items():
        model.add_constr({f[(a, b)]: 1.0, xab: -1.0}, "<=", 0.0)
        model.add_constr({f[(b, a)]: 1.0, xab: -1.0}, "<=", 0.0)


def solve_tspgl_direct(sub: SubInstance, time_limit: Optional[float] = None) -> TspGlOutcome:
    """One-shot flow MIP over the subgraph, with a subtour resolve loop.

    Flow caps alone leave room for a disconnected design when some component
    carries no request, so the resolve loop enforces a single cycle.
    """
    model = LinearModel()
    x = add_edge_vars(model, sub.nodes, sub.inst.design, scale=1.0 - sub.alpha,
                      integer=True)
    flows = {hk: add_flow_vars(model, hk, sub.nodes, sub.qtilde, sub.alpha)
             for hk in sub.requests}
    for i in sub.nodes:
        model.add_constr(degree_coeffs(x, i, sub.nodes), "==", 2.0)
    for hk, f in flows.items():
        for i in sub.nodes:
            model.add_constr(flow_coeffs(f, i, sub.nodes), "==", supply(hk, i))
        add_linking_rows(model, x, f)

    def cut_source(out: SolveOutcome):
        tours = cycles(chosen_edges(x, out.values))
        return [_sec_cut(x, tour) for tour in tours] if len(tours) > 1 else []

    out = resolve_with_cuts(model, cut_source, max_rounds=len(sub.nodes) * 4,
                            time_limit=time_limit)
    if not out.solved:
        return TspGlOutcome(out.status, None, -math.inf)
    tours = cycles(chosen_edges(x, out.values))
    if len(tours) > 1:
        # the cut rounds ran out on a solve that still splits
        return TspGlOutcome(TIME_LIMIT, None, -math.inf, out.cut_rounds + 1)
    sol = solution_from_tour(sub, tours[0])
    status = OPTIMAL if out.status == OPTIMAL and out.cuts_complete else TIME_LIMIT
    bound = out.best_bound if out.best_bound is not None else sol.objective
    return TspGlOutcome(status, sol, bound if status != OPTIMAL else sol.objective,
                        out.cut_rounds + 1)
