"""Property tests: the cycle utility, the routing subproblems along a tour,
the chance constraint, the cover algebra, the LP duals' orientation and the
1-tree bound, on inputs drawn by hypothesis."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    arc_cost,
    is_minimal,
    metrics_reference,
    routing_weight,
    scenario_total,
    served_demand_reference,
    subset_is_cover,
    tour_path_cost,
)
from stspgl.covers import minimal_feasibility_cover
from stspgl.model import OPTIMAL, build_instance, cycles, edge
from stspgl.mpbackend import LinearModel, solve_lp
from stspgl.scenarios import (
    chance_feasible,
    evaluate_metrics,
    generate_instance,
    served_demand,
)
from stspgl.tspgl import (_cycle_edges, _held_karp, _one_tree, _tree_screen, dual_subproblem,
                         primal_subproblem)

PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=60)


@st.composite
def disjoint_cycles(draw):
    """Node-disjoint cycles of 3-6 nodes each, with their edges shuffled and
    each written in a random orientation."""
    sizes = draw(st.lists(st.integers(3, 6), min_size=1, max_size=4))
    labels = draw(st.lists(st.integers(0, 99), min_size=sum(sizes), max_size=sum(sizes),
                           unique=True))
    blocks, at = [], 0
    for size in sizes:
        blocks.append(labels[at:at + size])
        at += size
    edges = [(a, b) for block in blocks for a, b in _cycle_edges(block)]
    edges = [(b, a) if flip else (a, b)
             for (a, b), flip in zip(edges, draw(st.lists(st.booleans(), min_size=len(edges),
                                                          max_size=len(edges))))]
    return blocks, draw(st.permutations(edges))


@PROPERTY
@given(disjoint_cycles())
def test_cycles_returns_each_cycle_once_as_a_canonical_walk(drawn):
    blocks, edges = drawn
    found = cycles(edges)
    assert sorted(map(sorted, found)) == sorted(map(sorted, blocks))
    assert found == sorted(found, key=lambda c: (len(c), sorted(c)))
    given_edges = {edge(a, b) for a, b in edges}
    for walk in found:
        assert walk[0] == min(walk)
        assert walk[1] < walk[-1]          # toward the smaller neighbour
        assert set(_cycle_edges(walk)) <= given_edges


@PROPERTY
@given(disjoint_cycles(), st.data())
def test_cycles_rejects_paths_and_branches(drawn, data):
    _blocks, edges = drawn
    a, b = data.draw(st.sampled_from(edges))
    with pytest.raises(ValueError):
        cycles([e for e in edges if e != (a, b)])              # opens a cycle into a path
    with pytest.raises(ValueError):
        cycles([*edges, (a, 100)])                            # a third edge at a


@st.composite
def tour_and_request(draw):
    """A tour over some of n nodes, a request between two of its nodes, and
    an instance with random non-negative symmetric travel costs, not metric.

    The request and its reverse have drawn demands d and d' in one scenario,
    and theta is 0.1, so the request's routing weight 10 d / (d + d') lies
    between about 0.001 and 10."""
    n = draw(st.integers(3, 9))
    tour = draw(st.permutations(range(n)))[:draw(st.integers(3, n))]
    h, k = draw(st.permutations(tour))[:2]
    upper = draw(st.lists(st.floats(0.0, 100.0), min_size=n * n, max_size=n * n))
    travel = [[upper[min(i, j) * n + max(i, j)] if i != j else 0.0 for j in range(n)]
              for i in range(n)]
    demand = [[draw(st.floats(0.01, 100.0))], [draw(st.floats(0.0, 100.0))]]
    inst = build_instance(compulsory=[h], requests=[(h, k), (k, h)], demand=demand,
                          theta=0.1, rho=0.0, alpha=0.5, dist=travel)
    return tour, (h, k), inst


@PROPERTY
@given(tour_and_request())
def test_routing_subproblems_agree_along_the_tour(drawn):
    tour, hk, inst = drawn
    cost = arc_cost(inst, hk)
    z = primal_subproblem(tour, hk, inst)
    # the cheaper of the two walks from h to k round the tour, edge by edge,
    # costs z exactly, whichever way the tour is listed
    assert z == tour_path_cost(tour, *hk, cost) == tour_path_cost(tour[::-1], *hk, cost)
    # the duals come from the same walks, priced arc by arc with `cost`
    duals = dual_subproblem(tour, hk, inst)
    assert duals.objective == z
    u = {v: min(tour_path_cost(tour, hk[0], v, cost), z) for v in tour}
    assert duals.p == {v: z - u[v] for v in tour}
    # lambda-bar holds each edge's sum of the positive arc gains of the
    # potentials u = z - p pinned above, recomputed here
    gains = {(i, j): max(0.0, u[j] - u[i] - cost(i, j)) for i in tour for j in tour if i != j}
    sums = {(a, b): gains[(a, b)] + gains[(b, a)]
            for a, b in itertools.combinations(sorted(tour), 2)}
    assert duals.lambda_bar == {e: val for e, val in sums.items() if val > 0.0}


@st.composite
def instance_and_served(draw):
    """A generated instance with fractional demands, so that the order of
    the additions shows in the sums, and a served request list in drawn
    order: empty, all requests, or a random subset."""
    n = draw(st.integers(3, 8))
    inst = generate_instance(n=n, seed=draw(st.integers(0, 10_000)),
                             n_requests=draw(st.integers(1, min(n * (n - 1), 12))),
                             n_scenarios=draw(st.integers(1, 6)),
                             theta=draw(st.floats(0.05, 1.0)), rho=draw(st.floats(0.0, 1.0)))
    size = len(inst.requests) * inst.n_scenarios
    scale = iter(draw(st.lists(st.floats(0.01, 10.0), min_size=size, max_size=size)))
    demand = tuple(tuple(v * next(scale) for v in col) for col in inst.demand)
    inst = dataclasses.replace(inst, demand=demand)
    served = draw(st.one_of(st.just([]), st.just(list(inst.requests)),
                            st.lists(st.sampled_from(inst.requests), unique=True)))
    return inst, served


@PROPERTY
@given(instance_and_served(), st.floats(0.0, 1000.0))
def test_chance_constraint_matches_the_per_scenario_sums(drawn, design_cost):
    inst, served = drawn
    got = served_demand(inst, served)
    assert [float(v).hex() for v in got] == \
        [float(v).hex() for v in served_demand_reference(inst, served)]
    assert chance_feasible(inst, served) == subset_is_cover(inst, served)
    visited = inst.compulsory.union(*served)
    assert evaluate_metrics(inst, served, design_cost, visited) == \
        metrics_reference(inst, served, design_cost, visited)
    # the cached totals and the routing weights built on them, bit for bit
    assert [v.hex() for v in inst.scenario_totals] == \
        [scenario_total(inst, s).hex() for s in range(inst.n_scenarios)]
    assert {hk: w.hex() for hk, w in inst.routing_weight.items()} == \
        {hk: routing_weight(inst, hk).hex() for hk in inst.requests}


@PROPERTY
@given(st.integers(0, 10_000), st.data())
def test_covers_grow_feasible_and_shrink_to_minimal(seed, data):
    inst = generate_instance(n=7, seed=seed, n_requests=8, n_scenarios=4, theta=0.7, rho=0.25)
    subset = data.draw(st.lists(st.sampled_from(inst.requests), unique=True))
    extra = data.draw(st.lists(st.sampled_from(inst.requests), unique=True))
    if chance_feasible(inst, subset):
        assert chance_feasible(inst, sorted(set(subset) | set(extra)))
    if chance_feasible(inst, inst.requests):
        cover = minimal_feasibility_cover(inst, inst.requests, rng=random.Random(seed))
        assert is_minimal(inst, cover)


@st.composite
def bounded_lp(draw):
    """A small LP over boxed columns, with rows of mixed senses placed around
    a point of the box, so that it always has an optimum: (q, lb, ub, rows),
    each row (coeffs by column, sense, rhs)."""
    n = draw(st.integers(2, 5))
    coef = st.integers(-4, 4).map(float)
    q = draw(st.lists(coef, min_size=n, max_size=n))
    lb = draw(st.lists(st.integers(-3, 0).map(float), min_size=n, max_size=n))
    ub = [lo + draw(st.integers(1, 5)) for lo in lb]
    point = [draw(st.integers(int(lo), int(hi))) for lo, hi in zip(lb, ub)]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.lists(coef, min_size=n, max_size=n).filter(any))
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        slack = 0 if sense == "==" else draw(st.integers(0, 3))
        at = sum(c * x for c, x in zip(a, point))
        rows.append(({j: c for j, c in enumerate(a) if c}, sense,
                     at + slack if sense == "<=" else at - slack))
    return q, lb, ub, rows


@PROPERTY
@given(bounded_lp())
def test_lp_duals_follow_the_documented_orientation(lp):
    q, lb, ub, rows = lp
    model = LinearModel()
    for obj, lo, hi in zip(q, lb, ub):
        model.add_var(lb=lo, ub=hi, obj=obj)
    for coeffs, sense, rhs in rows:
        model.add_constr(coeffs, sense, rhs)
    out = solve_lp(model)
    assert out.status == OPTIMAL
    tol = 1e-7
    assert abs(out.dual_objective - out.objective) <= tol * max(1.0, abs(out.objective))
    # duals[c] is d(objective)/d(rhs_c): a looser <= row cannot raise the
    # minimum, a looser >= row cannot lower it, and a slack row prices nothing
    for (coeffs, sense, rhs), dual in zip(rows, out.duals):
        if sense == "<=":
            assert dual <= tol
        elif sense == ">=":
            assert dual >= -tol
        activity = sum(c * out.values[j] for j, c in coeffs.items())
        if abs(activity - rhs) > 1e-6:
            assert abs(dual) <= tol
    # a column strictly inside its box has a zero reduced cost
    for j, (obj, lo, hi) in enumerate(zip(q, lb, ub)):
        if lo + 1e-6 < out.values[j] < hi - 1e-6:
            rc = obj - sum(dual * coeffs.get(j, 0.0)
                           for (coeffs, _, _), dual in zip(rows, out.duals))
            assert abs(rc) <= 1e-6


@st.composite
def costs_and_penalties(draw):
    """Symmetric costs on 4-12 nodes from a few small integers, so that ties
    and zero-cost edges abound, and any node penalties."""
    m = draw(st.integers(4, 12))
    half = draw(st.lists(st.integers(0, 6), min_size=m * (m - 1) // 2,
                         max_size=m * (m - 1) // 2))
    cost = [[0.0] * m for _ in range(m)]
    for (a, b), value in zip(itertools.combinations(range(m), 2), half):
        cost[a][b] = cost[b][a] = float(value)
    pi = draw(st.lists(st.floats(-100.0, 100.0), min_size=m, max_size=m))
    return cost, pi


@PROPERTY
@given(costs_and_penalties())
def test_one_tree_never_exceeds_the_optimal_tour(drawn):
    cost, pi = drawn
    value, deg = _one_tree(cost, pi)
    _tour, optimum = _held_karp(list(range(len(cost))), cost)
    assert value <= optimum + 1e-9
    # a 1-tree has m edges, and node 0 meets two of them
    assert sum(deg) == 2 * len(cost) and deg[0] == 2 and min(deg) >= 1
    # the screen never reports more than the best 1-tree it built
    assert _tree_screen(cost, optimum + 1.0) <= optimum + 1e-9
