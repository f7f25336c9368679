from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stspgl
from oracles import (
    enumerate_minimal_covers,
    held_karp_reference,
    lp_duals,
    oracle_tsp,
    oracle_tspgl,
    solve_tspgl_direct,
    structural_violations,
    tour_path_cost,
    warm_start,
)
from stspgl import mpbackend, tspgl
from stspgl.covers import make_cover, minimal_feasibility_cover
from stspgl.model import OPTIMAL, Instance, cycles, edge
from stspgl.mpbackend import LinearModel, solve_lp, solve_mip
from stspgl.scenarios import RoutingCostTable, deterministic_routing_costs, generate_instance
from stspgl.tspgl import (
    ABORTED,
    GSEC_EPS,
    BoundEstimate,
    CutPool,
    benders_solve_tspgl,
    cover_bounds,
    dual_subproblem,
    gsec_row,
    make_subinstance,
    padded_node_set,
    primal_subproblem,
    separate_gsecs,
    solution_from_tour,
    symmetric_tsp,
    _held_karp,
    _optimality_row,
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
        _mseq, mip_val, _found = _tsp_mip(nodes, cost, deadline=math.inf)
        assert mip_val == pytest.approx(hk_val, rel=1e-9)


def test_tsp_mip_path_returns_none_on_a_spent_budget():
    rng = random.Random(13)
    for size in (20, 30, 40):
        cost = _random_costs(rng, size, "euclidean")
        assert symmetric_tsp(range(size), cost, deadline=time.monotonic()) is None
        # a budget too short to prove a tour: no tour, and no error
        assert symmetric_tsp(range(size), cost, deadline=time.monotonic() + 0.001) is None


def test_tsp_mip_rejects_a_solve_that_still_splits(monkeypatch):
    # two 8-node clusters 1000 apart: the uncut degree-2 MIP closes a cycle
    # in each, and a walk from node 0 would miss the second one
    pts = [(10.0 * (i % 4) + 1000.0 * (i // 8), 10.0 * (i // 4 % 2)) for i in range(16)]
    cost = [[math.dist(a, b) for b in pts] for a in pts]

    def no_round_left(model, cut_source, max_rounds, deadline):
        out = solve_mip(model)
        assert cut_source(out), "the uncut solve should hold a subtour"
        out.cuts_complete = False
        return out

    monkeypatch.setattr(tspgl, "resolve_with_cuts", no_round_left)
    with pytest.raises(RuntimeError, match="16 nodes"):
        symmetric_tsp(range(16), cost)


def test_cover_bounds_caches_nothing_when_the_tsp_times_out():
    inst = generate_instance(n=24, seed=2, n_requests=20, n_scenarios=3)
    sub = _sub(inst, list(inst.requests))
    assert len(sub.nodes) > 15
    pool = CutPool()
    assert cover_bounds(sub, pool, deadline=time.monotonic()) is None
    assert pool.tsp_cache == {} and pool.subtours == {}
    assert cover_bounds(sub, pool, deadline=time.monotonic() + 60.0) is not None
    assert sub.key in pool.tsp_cache


def _random_costs(rng, size, kind):
    if kind == "integer":
        # few distinct values, so equal partial paths and equal tours abound
        half = {(i, j): float(rng.randint(1, 6)) for i, j in itertools.combinations(range(size), 2)}
        return [[0.0 if i == j else half[edge(i, j)] for j in range(size)] for i in range(size)]
    if kind == "euclidean":
        pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(size)]
        return [[math.dist(pts[i], pts[j]) for j in range(size)] for i in range(size)]
    return [[0.0 if i == j else rng.uniform(1, 50) for j in range(size)] for i in range(size)]


def test_held_karp_kernel_matches_reference():
    kinds = ("integer", "euclidean", "asymmetric")
    # 4..13 nodes, then one trial per kind at 14 and 15, the Held-Karp cutoff
    trials = [(4 + trial % 10, kinds[trial % 3]) for trial in range(300)]
    trials += [(n, kind) for n in (14, 15) for kind in kinds]
    rng = random.Random(41)
    for trial, (n, kind) in enumerate(trials):
        cost = _random_costs(rng, n + 3, kind)
        nodes = sorted(rng.sample(range(n + 3), n))
        seq, value = _held_karp(nodes, cost)
        ref_seq, ref = held_karp_reference(nodes, cost)
        assert seq == ref_seq, (trial, kind)
        assert value == ref, (trial, kind)


_HELD_KARP_MEMORY_PROBE = """
import json, math, random
from stspgl.tspgl import _held_karp


def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0


rng = random.Random(3)
pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(15)]
cost = [[math.dist(p, q) for q in pts] for p in pts]
base = peak_mb()
_seq, value = _held_karp(list(range(15)), cost)
print(json.dumps({"value": value, "grown_mb": peak_mb() - base}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc/self/status")
def test_held_karp_memory_stays_bounded():
    """One 15-node Held-Karp call in a fresh interpreter. Its DP table holds
    16384 x 14 floats (1.8 MB); lists of Python floats in its place grow the
    peak RSS by 9 MB, and a candidate array gathered for a whole subset layer
    at once by 18 MB. The peak is the child's VmHWM: on Linux its ru_maxrss
    would start from the RSS of this test process, which hides the growth."""
    env = dict(os.environ, PYTHONPATH=str(Path(stspgl.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _HELD_KARP_MEMORY_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert math.isfinite(report["value"])
    assert report["grown_mb"] < 6.0


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
    assert sub.key == frozenset({0, 1, 3})


def test_cover_bounds_on_d1(d1):
    sub = _sub(d1, [(1, 3)])
    pool = CutPool()
    b = cover_bounds(sub, pool)
    assert pool.tsp_cache[sub.key] == ((0, 1, 3), 6.0)
    # design 6 weighted 0.75, the direct arc's routing cost 2 weighted 0.25
    assert b.lb == pytest.approx(5.0)
    assert b.ub == pytest.approx(5.0)
    other = cover_bounds(_sub(d1, [(2, 4)]), CutPool())
    assert other.lb == pytest.approx(6.5)
    assert other.ub == pytest.approx(6.5)


def test_cover_bounds_sandwich_random():
    for seed in range(10):
        inst = generate_instance(n=7, seed=seed, n_requests=5, n_scenarios=3,
                                 theta=0.7, rho=0.3)
        qt = deterministic_routing_costs(inst)
        cov = minimal_feasibility_cover(inst, inst.requests)
        sub = make_subinstance(inst, cov, qt)
        b = cover_bounds(sub, CutPool())
        assert b.lb <= b.ub + 1e-9
        want, _ = oracle_tspgl(inst, qt, cov.requests)
        assert b.lb <= want + 1e-9
        assert want <= b.ub + 1e-9


def test_cover_bounds_uses_cutpool_cache(d1):
    pool = CutPool()
    sub = _sub(d1, [(1, 3)])
    first = cover_bounds(sub, pool)
    assert sub.key in pool.tsp_cache
    pool.tsp_cache[sub.key] = (pool.tsp_cache[sub.key][0], 123.0)
    second = cover_bounds(sub, pool)
    assert second.lb == pytest.approx(0.75 * 123.0 + 0.25 * 2.0)  # cache hit, not recomputed
    assert first.lb == pytest.approx(0.75 * 6.0 + 0.25 * 2.0)


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
            fast = dual_subproblem(tour, hk, qt)
            assert fast.objective == z
            lp = lp_duals(tour, hk, qt, sorted(tour))
            assert lp.objective == pytest.approx(z, abs=1e-6)
            # the duals keep only positive multipliers: check every arc,
            # an absent one at 0
            assert all(lam > 0.0 for lam in fast.lam.values())
            for i in tour:
                for j in tour:
                    if i != j:
                        lam = fast.lam.get((i, j), 0.0)
                        assert fast.p[i] - fast.p[j] - lam <= qt.cost(hk, i, j) + 1e-9
            for a, b in itertools.combinations(sorted(tour), 2):
                assert fast.lambda_bar.get((a, b), 0.0) == \
                    fast.lam.get((a, b), 0.0) + fast.lam.get((b, a), 0.0)
            # the running sums add the same edge costs in the same order as
            # a separate walk to each node, so the floats are equal
            dist = {v: _walk_distance(tour, hk, qt, v) for v in tour}
            assert z == dist[hk[1]]
            assert fast.p == {v: z - min(dist[v], z) for v in tour}


def _optimality_cut(duals, origin, nodes):
    """The optimality row of `origin` read back over edges: edge columns in
    lexicographic order, then one eta column per origin. Returns the edge
    coefficients and the rhs; the row holds no other column."""
    x = {e: col for col, e in enumerate(itertools.combinations(sorted(nodes), 2))}
    eta = {h: len(x) + t for t, h in enumerate(sorted({hk[0] for hk in duals}))}
    coeffs, sense, rhs = _optimality_row(x, eta, duals, origin)
    assert sense == ">="
    assert coeffs.pop(eta[origin]) == 1.0
    edge_of = {col: e for e, col in x.items()}
    return {edge_of[col]: val for col, val in coeffs.items()}, rhs


def _uncapped_lambda_bar(tour, hk, qt):
    """Edge multipliers of the potentials u_v = d(v), without the cap."""
    u = {v: _walk_distance(tour, hk, qt, v) for v in tour}
    lam = {(i, j): max(0.0, u[j] - u[i] - qt.cost(hk, i, j))
           for i in tour for j in tour if i != j}
    return {(a, b): lam[(a, b)] + lam[(b, a)] for a, b in itertools.combinations(sorted(tour), 2)}


def test_capped_cut_dominates_uncapped():
    rng = random.Random(29)
    strictly_smaller = 0
    for seed in range(6):
        inst = generate_instance(n=8, seed=400 + seed, n_requests=6, n_scenarios=3)
        qt = deterministic_routing_costs(inst)
        for _ in range(4):
            tour = list(inst.nodes)
            rng.shuffle(tour)
            requests = rng.sample(list(inst.requests), rng.randint(1, len(inst.requests)))
            duals = {hk: dual_subproblem(tour, hk, qt) for hk in requests}
            for h in sorted({hk[0] for hk in requests}):
                coeffs, rhs = _optimality_cut(duals, h, tour)
                mine = sorted(hk for hk in requests if hk[0] == h)
                uncapped = {}
                for hk in mine:
                    for e, val in _uncapped_lambda_bar(tour, hk, qt).items():
                        uncapped[e] = uncapped.get(e, 0.0) + val
                assert rhs == sum(_walk_distance(tour, hk, qt, hk[1]) for hk in mine)
                for e, val in uncapped.items():
                    capped = coeffs.get(e, 0.0)
                    assert capped <= val
                    strictly_smaller += capped < val
    assert strictly_smaller > 0


def test_dual_subproblem_zero_costs(d1):
    zero = RoutingCostTable(travel=d1.design, weight={(1, 3): 0.0, (2, 4): 0.0})
    duals = dual_subproblem([0, 1, 3], (1, 3), zero)
    assert duals.objective == 0.0


def test_dual_subproblem_raises_when_duals_miss_the_path_cost(d1):
    # under negative costs the tour walk is no shortest path, so the duals
    # built from it cannot reach the path cost
    negative = RoutingCostTable(travel=d1.design, weight={(1, 3): -1.0, (2, 4): -1.0})
    with pytest.raises(RuntimeError, match=r"\(1, 3\) reach .*, the primal path costs -4\.0"):
        dual_subproblem([0, 1, 3], (1, 3), negative)


def _gsec_violation(xval, side, i):
    """x(δ(i)) - x(δ(S)), summed straight from the edge values."""
    degree = sum(val for e, val in xval.items() if i in e)
    cut = sum(val for (a, b), val in xval.items() if (a in side) != (b in side))
    return degree - cut


def _random_cycle_mix(rng, nodes, root):
    """Convex combination of random cycles through the root: no GSEC is violated."""
    xval = {e: 0.0 for e in itertools.combinations(nodes, 2)}
    weights = [rng.random() for _ in range(rng.randint(1, 4))]
    for w in weights:
        others = [v for v in nodes if v != root]
        seq = [root, *rng.sample(others, rng.randint(2, len(others)))]
        for t in range(len(seq)):
            xval[edge(seq[t], seq[(t + 1) % len(seq)])] += w / sum(weights)
    return xval


def _random_fractional(rng, nodes):
    return {e: (rng.random() if rng.random() < 0.5 else 0.0)
            for e in itertools.combinations(nodes, 2)}


def test_gsec_separator_matches_brute_force():
    rng = random.Random(61)
    outcomes = {True: 0, False: 0}
    for trial in range(150):
        nodes = list(range(rng.randint(3, 7)))
        root = rng.choice(nodes)
        if trial % 3 == 0:
            xval = _random_cycle_mix(rng, nodes, root)
        elif trial % 3 == 1:
            xval = _random_fractional(rng, nodes)
        else:
            xval = _random_cycle_mix(rng, nodes, root)
            for e in rng.sample(sorted(xval), 2):
                xval[e] = rng.random()
        brute = max((_gsec_violation(xval, frozenset(side), i)
                     for size in range(1, len(nodes))
                     for side in itertools.combinations([v for v in nodes if v != root], size)
                     for i in side), default=-math.inf)
        rows = separate_gsecs(nodes, xval, root)
        assert bool(rows) == (brute > GSEC_EPS)
        outcomes[bool(rows)] += 1
        assert len({side for side, _i in rows}) == len(rows)
        for side, i in rows:
            assert root not in side and i in side
            assert _gsec_violation(xval, side, i) > GSEC_EPS
        if rows:
            # one minimum cut per node finds the most violated row
            best = max(_gsec_violation(xval, side, i) for side, i in rows)
            assert best == pytest.approx(brute, abs=1e-9)
    assert min(outcomes.values()) >= 30


@pytest.mark.parametrize("case", ["d1", "n7", "n8"])
def test_gsec_rows_hold_for_every_cover_tour(case, d1):
    inst = {"d1": d1,
            "n7": generate_instance(n=7, seed=11, n_requests=6, n_scenarios=4,
                                    theta=0.7, rho=0.25),
            "n8": generate_instance(n=8, seed=1, n_requests=7, n_scenarios=4,
                                    theta=0.7, rho=0.25)}[case]
    qt = deterministic_routing_costs(inst)
    root = min(inst.compulsory)
    nodes = list(inst.nodes)
    x = {e: col for col, e in enumerate(itertools.combinations(nodes, 2))}
    tours = []
    for cover in enumerate_minimal_covers(inst):
        _val, seq = oracle_tspgl(inst, qt, cover)
        values = [0.0] * len(x)
        for t in range(len(seq)):
            values[x[edge(seq[t], seq[(t + 1) % len(seq)])]] = 1.0
        tours.append(values)
    assert tours
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        for side, i in separate_gsecs(nodes, _random_fractional(rng, nodes), root):
            coeffs, sense, rhs = gsec_row(x, nodes, side, i)
            assert sense == ">="
            for values in tours:
                assert sum(c * values[col] for col, c in coeffs.items()) >= rhs
            checked += 1
    assert checked >= 40


def test_gsec_row_coefficients():
    nodes = range(4)
    x = {e: col for col, e in enumerate(itertools.combinations(nodes, 2))}
    # S = {2, 3}, i = 2: x(δ(S)) - x(δ(2)) = x02 + x12 + x03 + x13 - x02 - x12 - x23
    coeffs, sense, rhs = gsec_row(x, nodes, frozenset({2, 3}), 2)
    assert coeffs == {x[(0, 3)]: 1.0, x[(1, 3)]: 1.0, x[(2, 3)]: -1.0}
    assert (sense, rhs) == (">=", 0.0)


def test_aggregated_cut_tight_at_generating_tour(d1):
    sub = _sub(d1, list(d1.requests))
    seq, _val, _ = symmetric_tsp(sub.nodes, d1.design)
    duals = {hk: dual_subproblem(seq, hk, sub.qtilde) for hk in sub.requests}
    for h in sub.origins():
        coeffs, rhs = _optimality_cut(duals, h, sub.nodes)
        xval = {e: 0.0 for e in itertools.combinations(sub.nodes, 2)}
        for t in range(len(seq)):
            xval[edge(seq[t], seq[(t + 1) % len(seq)])] = 1.0
        lhs_x = sum(coeffs.get(e, 0.0) * xval[e] for e in itertools.combinations(sub.nodes, 2))
        true_h = sum(
            primal_subproblem(seq, hk, sub.qtilde)[1] for hk in sub.requests if hk[0] == h
        )
        assert true_h + lhs_x == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("n, seed", [(6, 77), (7, 11), (7, 303)])
def test_aggregated_cut_valid_for_all_tours(n, seed):
    inst = generate_instance(n=n, seed=seed, n_requests=4, n_scenarios=3, theta=0.7, rho=0.3)
    qt = deterministic_routing_costs(inst)
    cov = minimal_feasibility_cover(inst, inst.requests)
    sub = make_subinstance(inst, cov, qt)
    base_seq, _v, _ = symmetric_tsp(sub.nodes, inst.design)
    duals = {hk: dual_subproblem(base_seq, hk, qt) for hk in sub.requests}
    nodes = list(sub.nodes)
    for h in sub.origins():
        coeffs, rhs = _optimality_cut(duals, h, nodes)
        for perm in itertools.permutations(nodes[1:]):
            seq = [nodes[0], *perm]
            xval = {e: 0.0 for e in itertools.combinations(sub.nodes, 2)}
            for t in range(len(seq)):
                xval[edge(seq[t], seq[(t + 1) % len(seq)])] = 1.0
            eta_true = sum(
                primal_subproblem(seq, hk, qt)[1] for hk in sub.requests if hk[0] == h
            )
            lhs = eta_true + sum(coeffs.get(e, 0.0) * xval[e] for e in itertools.combinations(sub.nodes, 2))
            assert lhs >= rhs - 1e-9


def test_benders_on_d1_covers(d1):
    sub13 = _sub(d1, [(1, 3)])
    out13 = benders_solve_tspgl(sub13, warm_start(sub13))
    assert out13.status == OPTIMAL
    assert out13.solution.objective == pytest.approx(5.0)
    assert sorted(out13.solution.visited) == [0, 1, 3]
    sub24 = _sub(d1, [(2, 4)])
    out24 = benders_solve_tspgl(sub24, warm_start(sub24))
    assert out24.status == OPTIMAL
    assert out24.solution.objective == pytest.approx(6.5)


def test_benders_early_abort(d1):
    sub = _sub(d1, [(2, 4)])
    out = benders_solve_tspgl(sub, warm_start(sub), incumbent_ub=5.0)
    assert out.status == ABORTED


def test_benders_reuses_cached_cuts(d1):
    pool = CutPool()
    sub = _sub(d1, [(1, 3)])
    pool.add_subtour(sub.key, frozenset({0, 1}))  # harmless valid-shaped cut
    cover_bounds(sub, pool)
    out = benders_solve_tspgl(sub, pool)
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
        ben = benders_solve_tspgl(sub, warm_start(sub))
        direct = solve_tspgl_direct(sub)
        assert ben.status == OPTIMAL
        assert direct.status == OPTIMAL
        assert ben.solution.objective == pytest.approx(
            direct.solution.objective, rel=1e-6
        )
        agree += 1
    assert agree == 12


def test_benders_optimum_does_not_need_primal_heuristics(monkeypatch):
    # the Benders master skips HiGHS's primal heuristics; the optimum stays
    for seed in range(6):
        inst = generate_instance(n=11, seed=320 + seed, n_requests=12, n_scenarios=4,
                                 theta=0.8, rho=0.2)
        qt = deterministic_routing_costs(inst)
        sub = make_subinstance(inst, minimal_feasibility_cover(inst, inst.requests), qt)
        with monkeypatch.context() as patch:
            patch.setattr(mpbackend, "solve_mip",
                          lambda model, **kw: solve_mip(model, **{**kw, "tuning": {}}))
            ref = benders_solve_tspgl(sub, warm_start(sub))
        out = benders_solve_tspgl(sub, warm_start(sub))
        assert ref.status == out.status == OPTIMAL
        assert out.solution.objective == pytest.approx(ref.solution.objective, rel=1e-9)


def _n9_sub():
    # the Benders loop needs 9 master MIPs on this cover
    inst = generate_instance(n=9, seed=3, n_requests=12, n_scenarios=4, theta=0.8, rho=0.2)
    return make_subinstance(inst, minimal_feasibility_cover(inst, inst.requests),
                            deterministic_routing_costs(inst))


def _master_spy(monkeypatch) -> list:
    """Every master MIP outcome, in solve order."""
    outcomes = []
    real = mpbackend.solve_mip

    def spy(model, **kwargs):
        outcomes.append(real(model, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(mpbackend, "solve_mip", spy)
    return outcomes


def test_benders_on_a_spent_clock_solves_no_master(monkeypatch):
    sub = _n9_sub()
    pool = warm_start(sub)
    masters = _master_spy(monkeypatch)
    out = benders_solve_tspgl(sub, pool, deadline=time.monotonic())
    assert out.status == "TimeLimit"
    assert out.iterations == 1
    assert out.solution is None
    assert masters == []


@pytest.mark.parametrize("cap", [1, 2, 4, 5, 9])
def test_benders_iteration_cap_keeps_the_best_tour_found(monkeypatch, cap):
    sub = _n9_sub()
    pool = warm_start(sub)
    masters = _master_spy(monkeypatch)
    monkeypatch.setattr(tspgl, "MAX_BENDERS_ITERATIONS", cap)
    out = benders_solve_tspgl(sub, pool)
    # this cover needs 9 masters; its 4th is the first single tour
    assert out.status == ("Optimal" if cap == 9 else "TimeLimit")
    assert out.iterations == len(masters) == cap
    # every master is separated, the last one included, and its tour scored
    edges = list(itertools.combinations(sub.nodes, 2))
    best = None
    for master in masters:
        tours = cycles([e for e, val in zip(edges, master.values) if val > 0.5])
        if len(tours) == 1:
            tour = solution_from_tour(sub, tours[0])
            if best is None or tour.objective < best.objective - 1e-9:
                best = tour
    assert (best is not None) == (cap >= 4)
    assert out.solution == best
    if cap == 9:
        assert out.solution.objective == pytest.approx(solve_tspgl_direct(sub).solution.objective)


def test_benders_iterations_count_master_mips(monkeypatch):
    masters = _master_spy(monkeypatch)
    for seed, ub_shift in ((300, None), (301, None), (320, None), (321, -1.0), (322, -1.0)):
        inst = generate_instance(n=11 if seed >= 320 else 7, seed=seed,
                                 n_requests=12 if seed >= 320 else 5, n_scenarios=4,
                                 theta=0.8, rho=0.2)
        sub = make_subinstance(inst, minimal_feasibility_cover(inst, inst.requests),
                               deterministic_routing_costs(inst))
        pool = CutPool()
        lb = cover_bounds(sub, pool).lb
        ub = math.inf if ub_shift is None else lb + ub_shift
        masters.clear()
        out = benders_solve_tspgl(sub, pool, incumbent_ub=ub)
        assert out.status == (OPTIMAL if ub_shift is None else ABORTED)
        assert out.iterations == len(masters) >= 1
    n9 = _n9_sub()
    masters.clear()
    assert benders_solve_tspgl(n9, warm_start(n9)).iterations == len(masters) == 9


def test_direct_solver_enumeration_case(d1, d1_qtilde):
    sub = _sub(d1, [(1, 3)])
    out = solve_tspgl_direct(sub)
    assert out.status == OPTIMAL
    want, _seq = oracle_tspgl(d1, d1_qtilde, [(1, 3)])
    assert out.solution.objective == pytest.approx(want)
    assert structural_violations(out.solution, d1) == []


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
    # the warm start is the tour the bound stage leaves in the cut cache
    sub = _sub(d1, [(1, 3)])
    pool = CutPool()
    with pytest.raises(KeyError):
        benders_solve_tspgl(sub, pool)
    assert isinstance(cover_bounds(sub, pool), BoundEstimate)
    out = benders_solve_tspgl(sub, pool)
    assert out.status == OPTIMAL
    assert out.solution.objective == pytest.approx(5.0)
