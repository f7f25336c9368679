from __future__ import annotations

import itertools
import math
import random

import pytest

from oracles import oracle_tsp, oracle_tspgl, tour_path_cost
from stspgl.covers import make_cover, minimal_feasibility_cover
from stspgl.model import OPTIMAL, Instance, build_instance, edge
from stspgl.mpbackend import LinearModel, solve_lp
from stspgl.scenarios import RoutingCostTable, deterministic_routing_costs, generate_instance
from stspgl.tspgl import (
    ABORTED,
    BoundEstimate,
    CutPool,
    aggregated_optimality_cuts,
    benders_solve_tspgl,
    cover_bounds,
    dual_subproblem,
    find_subtours,
    make_subinstance,
    padded_node_set,
    primal_subproblem,
    solve_tspgl_direct,
    symmetric_tsp,
    _fast_duals,
    _held_karp,
    _tsp_mip,
)


def _sub(inst, requests):
    qt = deterministic_routing_costs(inst)
    return make_subinstance(inst, make_cover(inst, requests), qt)


def test_symmetric_tsp_tiny_cases(d1):
    assert symmetric_tsp([2], d1.design)[1] == 0.0
    assert symmetric_tsp([1, 4], d1.design)[1] == 6.0
    seq, val, subtours = symmetric_tsp([0, 1, 3], d1.design)
    assert val == 6.0
    assert sorted(seq) == [0, 1, 3]
    assert subtours == []


def test_symmetric_tsp_unit_k4():
    cost = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    _seq, val, _ = symmetric_tsp(range(4), cost)
    assert val == 4.0


def test_symmetric_tsp_d1_full_set(d1):
    _seq, val, _ = symmetric_tsp(range(5), d1.design)
    assert val == 8.0


def test_symmetric_tsp_matches_oracle_on_random_points():
    rng = random.Random(31)
    for n in (5, 6, 7, 8):
        pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n)]
        cost = [[math.dist(pts[i], pts[j]) for j in range(n)] for i in range(n)]
        _seq, val, _ = symmetric_tsp(range(n), cost)
        _oseq, want = oracle_tsp(range(n), cost)
        assert val == pytest.approx(want, rel=1e-9)


def test_tsp_mip_path_agrees_with_held_karp():
    rng = random.Random(5)
    for _ in range(4):
        n = 7
        pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n)]
        cost = [[math.dist(pts[i], pts[j]) for j in range(n)] for i in range(n)]
        nodes = list(range(n))
        _seq, hk_val = _held_karp(nodes, cost)
        _mseq, mip_val, _found = _tsp_mip(nodes, cost, time_limit=None)
        assert mip_val == pytest.approx(hk_val, rel=1e-9)


def test_padded_node_set(d1):
    assert padded_node_set(d1, [0, 1, 3]) == (0, 1, 3)
    # two nodes: add the node minimizing the detour (node 1 sits between 0 and 2)
    assert padded_node_set(d1, [0, 2]) == (0, 1, 2)
    # one node: add the perimeter-minimizing pair
    assert padded_node_set(d1, [4]) == (2, 3, 4)


def test_make_subinstance_on_d1(d1):
    sub = _sub(d1, [(1, 3)])
    assert sub.nodes == (0, 1, 3)
    assert sub.requests == ((1, 3),)
    assert sub.origins() == [1]
    assert set(sub.edges()) == {(0, 1), (0, 3), (1, 3)}


def test_cover_bounds_on_d1(d1):
    sub = _sub(d1, [(1, 3)])
    b = cover_bounds(sub)
    assert b.lb_design == 6.0
    assert b.lb_routing[(1, 3)] == pytest.approx(2.0)
    assert b.ub_routing[(1, 3)] == pytest.approx(2.0)
    assert b.lb == pytest.approx(5.0)
    assert b.ub == pytest.approx(5.0)
    other = cover_bounds(_sub(d1, [(2, 4)]))
    assert other.lb == pytest.approx(6.5)
    assert other.ub == pytest.approx(6.5)


def test_cover_bounds_sandwich_random():
    for seed in range(10):
        inst = generate_instance(n=7, seed=seed, n_requests=5, n_scenarios=3,
                                 theta=0.7, rho=0.3)
        qt = deterministic_routing_costs(inst)
        cov = minimal_feasibility_cover(inst, inst.requests)
        sub = make_subinstance(inst, cov, qt)
        b = cover_bounds(sub)
        assert b.lb <= b.ub + 1e-9
        want, _ = oracle_tspgl(inst, qt, cov.requests)
        assert b.lb <= want + 1e-9
        assert want <= b.ub + 1e-9


def test_cover_bounds_uses_cutpool_cache(d1):
    pool = CutPool()
    sub = _sub(d1, [(1, 3)])
    first = cover_bounds(sub, cutpool=pool)
    assert sub.key in pool.tsp_cache
    pool.tsp_cache[sub.key] = (pool.tsp_cache[sub.key][0], 123.0)
    second = cover_bounds(sub, cutpool=pool)
    assert second.lb_design == 123.0  # cache hit, not recomputed
    assert first.lb_design == 6.0


def test_primal_subproblem_on_d1(d1, d1_qtilde):
    # direct arc costs 2, the long way around costs 1 + 3
    flow, z = primal_subproblem([0, 1, 3], (1, 3), d1_qtilde)
    assert z == pytest.approx(2.0)
    assert flow == {(1, 3): 1.0}
    flow2, z2 = primal_subproblem([3, 1, 0], (1, 3), d1_qtilde)
    assert z2 == pytest.approx(2.0)
    assert flow2 == {(1, 3): 1.0}


def test_primal_subproblem_endpoint_off_tour(d1, d1_qtilde):
    flow, z = primal_subproblem([0, 1, 3], (2, 4), d1_qtilde)
    assert flow is None
    assert z == math.inf


def _flow_lp_value(nodes, tour_seq, hk, qtilde):
    xval = {e: 0.0 for e in itertools.combinations(sorted(nodes), 2)}
    for t in range(len(tour_seq)):
        xval[edge(tour_seq[t], tour_seq[(t + 1) % len(tour_seq)])] = 1.0
    h, k = hk
    m = LinearModel()
    f = {}
    for i in nodes:
        for j in nodes:
            if i != j:
                f[(i, j)] = m.add_var(lb=0.0, obj=qtilde.cost(hk, i, j))
    for i in nodes:
        coeffs = {}
        for j in nodes:
            if j == i:
                continue
            coeffs[f[(i, j)]] = 1.0
            coeffs[f[(j, i)]] = -1.0
        rhs = 1.0 if i == h else (-1.0 if i == k else 0.0)
        m.add_constr(coeffs, "==", rhs)
    for a, b in itertools.combinations(sorted(nodes), 2):
        m.add_constr({f[(a, b)]: 1.0}, "<=", xval[(a, b)])
        m.add_constr({f[(b, a)]: 1.0}, "<=", xval[(a, b)])
    out = solve_lp(m)
    assert out.status == OPTIMAL
    return out.objective


def test_primal_subproblem_matches_flow_lp_on_random_tours():
    rng = random.Random(17)
    for seed in range(6):
        inst = generate_instance(n=6, seed=100 + seed, n_requests=4, n_scenarios=3)
        qt = deterministic_routing_costs(inst)
        nodes = list(inst.nodes)
        rng.shuffle(nodes)
        tour = nodes[: rng.randint(4, 6)]
        for hk in inst.requests:
            if hk[0] not in tour or hk[1] not in tour:
                continue
            _flow, z = primal_subproblem(tour, hk, qt)
            assert z == pytest.approx(_flow_lp_value(tour, tour, hk, qt), abs=1e-7)


def _walk_distance(tour, hk, qt, v):
    """Cheaper of the two walks from h to v round the tour, edge by edge."""
    n, start = len(tour), tour.index(hk[0])
    walks = []
    for step in (1, -1):
        cost, at = 0.0, start
        while tour[at] != v:
            nxt = (at + step) % n
            cost += qt.cost(hk, tour[at], tour[nxt])
            at = nxt
        walks.append(cost)
    return min(walks)


def test_dual_subproblem_strong_duality_random():
    rng = random.Random(23)
    for seed in range(6):
        inst = generate_instance(n=7, seed=200 + seed, n_requests=5, n_scenarios=3)
        qt = deterministic_routing_costs(inst)
        tour = list(inst.nodes)
        rng.shuffle(tour)
        for hk in inst.requests:
            _flow, z = primal_subproblem(tour, hk, qt)
            fast = dual_subproblem(tour, hk, qt, mode="fast")
            assert fast.objective == pytest.approx(z, abs=1e-9)
            lp = dual_subproblem(tour, hk, qt, mode="lp")
            assert lp.objective == pytest.approx(z, abs=1e-6)
            for (i, j), lam in fast.lam.items():
                assert lam >= -1e-12
                assert fast.p[i] - fast.p[j] - lam <= qt.cost(hk, i, j) + 1e-9
            # the running sums add the same edge costs in the same order as
            # a separate walk to each node, so the floats are equal
            dist = {v: _walk_distance(tour, hk, qt, v) for v in tour}
            walked = _fast_duals(tour, hk, qt, sorted(tour))
            assert walked.objective == dist[hk[1]]
            assert walked.p == {v: max(dist.values()) - dist[v] for v in tour}


def test_dual_subproblem_zero_costs(d1):
    zero = RoutingCostTable(travel=d1.design, weight={(1, 3): 0.0, (2, 4): 0.0})
    duals = dual_subproblem([0, 1, 3], (1, 3), zero)
    assert duals.objective == 0.0


def test_find_subtours():
    assert find_subtours([(0, 1), (1, 2), (0, 2)]) == []
    comps = find_subtours([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert len(comps) == 2
    assert frozenset({0, 1, 2}) in comps
    assert frozenset({3, 4, 5}) in comps


def test_aggregated_cut_tight_at_generating_tour(d1):
    sub = _sub(d1, list(d1.requests))
    seq, _val, _ = symmetric_tsp(sub.nodes, d1.design)
    duals = {hk: dual_subproblem(seq, hk, sub.qtilde, nodes=sub.nodes) for hk in sub.requests}
    for h in sub.origins():
        cut = aggregated_optimality_cuts(duals, h)
        xval = {e: 0.0 for e in sub.edges()}
        for t in range(len(seq)):
            xval[edge(seq[t], seq[(t + 1) % len(seq)])] = 1.0
        lhs_x = sum(cut.coeffs.get(e, 0.0) * xval[e] for e in sub.edges())
        true_h = sum(
            primal_subproblem(seq, hk, sub.qtilde)[1] for hk in sub.requests_from(h)
        )
        assert true_h + lhs_x == pytest.approx(cut.rhs, abs=1e-9)


def test_aggregated_cut_valid_for_all_tours():
    inst = generate_instance(n=6, seed=77, n_requests=4, n_scenarios=3, theta=0.7, rho=0.3)
    qt = deterministic_routing_costs(inst)
    cov = minimal_feasibility_cover(inst, inst.requests)
    sub = make_subinstance(inst, cov, qt)
    base_seq, _v, _ = symmetric_tsp(sub.nodes, inst.design)
    duals = {hk: dual_subproblem(base_seq, hk, qt, nodes=sub.nodes) for hk in sub.requests}
    nodes = list(sub.nodes)
    for h in sub.origins():
        cut = aggregated_optimality_cuts(duals, h)
        for perm in itertools.permutations(nodes[1:]):
            seq = [nodes[0], *perm]
            xval = {e: 0.0 for e in sub.edges()}
            for t in range(len(seq)):
                xval[edge(seq[t], seq[(t + 1) % len(seq)])] = 1.0
            eta_true = sum(
                primal_subproblem(seq, hk, qt)[1] for hk in sub.requests_from(h)
            )
            lhs = eta_true + sum(cut.coeffs.get(e, 0.0) * xval[e] for e in sub.edges())
            assert lhs >= cut.rhs - 1e-9


def test_benders_on_d1_covers(d1):
    out13 = benders_solve_tspgl(_sub(d1, [(1, 3)]))
    assert out13.status == OPTIMAL
    assert out13.solution.objective == pytest.approx(5.0)
    assert sorted(out13.solution.visited) == [0, 1, 3]
    out24 = benders_solve_tspgl(_sub(d1, [(2, 4)]))
    assert out24.status == OPTIMAL
    assert out24.solution.objective == pytest.approx(6.5)
    assert out24.lower_bound == pytest.approx(6.5, abs=1e-6)


def test_benders_early_abort(d1):
    sub = _sub(d1, [(2, 4)])
    out = benders_solve_tspgl(sub, incumbent_ub=5.0)
    assert out.status == ABORTED
    assert out.lower_bound > 5.0


def test_benders_reuses_cached_cuts(d1):
    pool = CutPool()
    sub = _sub(d1, [(1, 3)])
    pool.add_subtour(sub.key, frozenset({0, 1}))  # harmless valid-shaped cut
    out = benders_solve_tspgl(sub, cutpool=pool)
    assert out.status == OPTIMAL
    assert out.solution.objective == pytest.approx(5.0)


def test_benders_matches_direct_on_random_subinstances():
    agree = 0
    for seed in range(12):
        inst = generate_instance(n=7, seed=300 + seed, n_requests=5, n_scenarios=4,
                                 theta=0.7, rho=0.25)
        qt = deterministic_routing_costs(inst)
        cov = minimal_feasibility_cover(inst, inst.requests)
        sub = make_subinstance(inst, cov, qt)
        ben = benders_solve_tspgl(sub)
        direct = solve_tspgl_direct(sub)
        assert ben.status == OPTIMAL
        assert direct.status == OPTIMAL
        assert ben.solution.objective == pytest.approx(
            direct.solution.objective, rel=1e-6
        )
        agree += 1
    assert agree == 12


def test_direct_solver_enumeration_case(d1, d1_qtilde):
    sub = _sub(d1, [(1, 3)])
    out = solve_tspgl_direct(sub)
    assert out.status == OPTIMAL
    want, _seq = oracle_tspgl(d1, d1_qtilde, [(1, 3)])
    assert out.solution.objective == pytest.approx(want)
    assert out.solution.structural_violations(d1) == []


def test_direct_solver_alpha_extremes():
    inst = generate_instance(n=6, seed=55, n_requests=4, n_scenarios=3, theta=0.6, rho=0.3)
    cov = minimal_feasibility_cover(inst, inst.requests)

    at0 = Instance(
        n=inst.n, design=inst.design, compulsory=inst.compulsory,
        requests=inst.requests, scenarios=inst.scenarios, alpha=0.0,
        theta=inst.theta, rho=inst.rho, rounding=inst.rounding, coords=inst.coords,
    )
    qt0 = deterministic_routing_costs(at0)
    sub0 = make_subinstance(at0, make_cover(at0, cov.requests), qt0)
    out0 = solve_tspgl_direct(sub0)
    _seq, tsp_val, _ = symmetric_tsp(sub0.nodes, at0.design)
    assert out0.solution.objective == pytest.approx(tsp_val, rel=1e-9)

    at1 = Instance(
        n=inst.n, design=inst.design, compulsory=inst.compulsory,
        requests=inst.requests, scenarios=inst.scenarios, alpha=1.0,
        theta=inst.theta, rho=inst.rho, rounding=inst.rounding, coords=inst.coords,
    )
    qt1 = deterministic_routing_costs(at1)
    sub1 = make_subinstance(at1, make_cover(at1, cov.requests), qt1)
    out1 = solve_tspgl_direct(sub1)
    want, _ = oracle_tspgl(at1, qt1, cov.requests)
    assert out1.solution.objective == pytest.approx(want, rel=1e-9)


def test_restriction_matches_full_graph_enumeration(d1, d1_qtilde):
    # the restricted subgraph loses nothing: enumerate tours over every
    # superset of the cover's nodes and compare with the restricted optimum
    sub = _sub(d1, [(1, 3)])
    restricted = solve_tspgl_direct(sub).solution.objective
    best = math.inf
    visited = set(sub.nodes)
    others = [v for v in d1.nodes if v not in visited]
    for extra_count in range(len(others) + 1):
        for extra in itertools.combinations(others, extra_count):
            node_set = sorted(visited | set(extra))
            if len(node_set) < 3:
                continue
            first, rest = node_set[0], node_set[1:]
            for perm in itertools.permutations(rest):
                seq = [first, *perm]
                design = sum(
                    d1.cbar(seq[t], seq[(t + 1) % len(seq)]) for t in range(len(seq))
                )
                routing = sum(
                    tour_path_cost(seq, hk[0], hk[1], lambda a, b: d1_qtilde.cost(hk, a, b))
                    for hk in sub.requests
                )
                best = min(best, 0.75 * design + 0.25 * routing)
    assert restricted == pytest.approx(best, rel=1e-9)


def test_benders_warm_start_accepts_external_bounds(d1):
    sub = _sub(d1, [(1, 3)])
    warm = cover_bounds(sub)
    assert isinstance(warm, BoundEstimate)
    out = benders_solve_tspgl(sub, warm=warm)
    assert out.status == OPTIMAL
    assert out.solution.objective == pytest.approx(5.0)
