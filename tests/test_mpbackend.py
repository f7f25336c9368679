from __future__ import annotations

import math
import random

import pytest

from oracles import oracle_tsp
from stspgl.model import INFEASIBLE, OPTIMAL, TIME_LIMIT, UNBOUNDED
from stspgl.mpbackend import (
    LinearModel,
    resolve_with_cuts,
    solve_lp,
    solve_mip,
)


def test_lp_one_dimensional_with_dual():
    m = LinearModel()
    x = m.add_var(lb=0.0, obj=1.0)
    floor = m.add_constr({x: 1.0}, ">=", 3.0)
    out = solve_lp(m)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(3.0)
    assert out.duals[floor] == pytest.approx(1.0)
    assert out.dual_objective == pytest.approx(3.0)


def test_lp_equality_dual_orientation():
    m = LinearModel()
    x = m.add_var(obj=1.0)
    y = m.add_var(obj=2.0)
    bal = m.add_constr({x: 1.0, y: 1.0}, "==", 2.0)
    out = solve_lp(m)
    assert out.objective == pytest.approx(2.0)
    assert out.duals[bal] == pytest.approx(1.0)


def test_lp_infeasible():
    m = LinearModel()
    x = m.add_var(lb=0.0, ub=1.0, obj=1.0)
    m.add_constr({x: 1.0}, ">=", 2.0)
    assert solve_lp(m).status == INFEASIBLE


def test_lp_unbounded():
    m = LinearModel()
    m.add_var(lb=-math.inf, obj=1.0)
    out = solve_lp(m)
    assert out.status in (UNBOUNDED, INFEASIBLE)
    assert out.status == UNBOUNDED


def test_lp_weak_duality_random_models():
    rng = random.Random(7)
    for _ in range(25):
        m = LinearModel()
        nv, nc = rng.randint(2, 6), rng.randint(1, 5)
        obj, ub, rows = {}, {}, {}
        for _j in range(nv):
            bound, cost = rng.uniform(1, 10), rng.uniform(-5, 5)
            col = m.add_var(lb=0.0, ub=bound, obj=cost)
            ub[col], obj[col] = bound, cost
        for _c in range(nc):
            coeffs = {col: rng.uniform(-2, 2) for col in obj}
            sense = rng.choice(["<=", ">=", "=="])
            rows[m.add_constr(coeffs, sense, rng.uniform(-3, 3))] = coeffs
        out = solve_lp(m)
        if out.status != OPTIMAL:
            continue
        slack = 1e-6 * max(1.0, abs(out.objective))
        assert out.dual_objective <= out.objective + slack
        # HiGHS returns an optimal basis, so equality should hold too
        assert out.dual_objective == pytest.approx(out.objective, rel=1e-6, abs=1e-6)
        # the documented orientation makes q_j - sum_c duals[c] * a_cj the
        # reduced cost whatever each row's sense: >= 0 at the lower bound,
        # <= 0 at the upper bound, 0 in between
        tol = 1e-6
        for var, q in obj.items():
            rc = q - sum(out.duals[c] * coeffs[var] for c, coeffs in rows.items())
            x = out.values[var]
            if x <= tol:
                assert rc >= -tol
            elif x >= ub[var] - tol:
                assert rc <= tol
            else:
                assert rc == pytest.approx(0.0, abs=tol)


def test_column_added_into_existing_rows():
    # x + y >= 2 and x - y <= 1, with y entering after both rows exist
    grown = LinearModel()
    x = grown.add_var(obj=1.0)
    cover = grown.add_constr({x: 1.0}, ">=", 2.0)
    gap = grown.add_constr({x: 1.0}, "<=", 1.0)
    y = grown.add_var(ub=5.0, obj=3.0, rows={cover: 1.0, gap: -1.0})
    fresh = LinearModel()
    fresh.add_var(obj=1.0)
    fresh.add_var(ub=5.0, obj=3.0)
    fresh.add_constr({x: 1.0, y: 1.0}, ">=", 2.0)
    fresh.add_constr({x: 1.0, y: -1.0}, "<=", 1.0)
    assert (grown._matrix()[0] != fresh._matrix()[0]).nnz == 0
    out = solve_lp(grown)
    assert out.values == pytest.approx([1.5, 0.5])
    assert out.duals == pytest.approx([2.0, -1.0])
    grown.set_ub(y, 0.0)
    assert solve_lp(grown).status == INFEASIBLE


def test_unknown_handles_rejected():
    m = LinearModel()
    x = m.add_var()
    with pytest.raises(ValueError):
        m.add_constr({x + 1: 1.0}, "<=", 1.0)
    with pytest.raises(ValueError):
        m.add_var(rows={0: 1.0})
    with pytest.raises(ValueError):
        m.add_constr({x: math.nan}, "<=", 1.0)
    assert m.n_constrs() == 0


def test_mip_knapsack():
    m = LinearModel()
    x = m.add_var(lb=0.0, ub=1.0, obj=3.0, integer=True)
    y = m.add_var(lb=0.0, ub=1.0, obj=2.0, integer=True)
    m.add_constr({x: 1.0, y: 1.0}, "<=", 1.0)
    m.maximize = True
    out = solve_mip(m)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(3.0)
    assert out.values[x] == pytest.approx(1.0)


def test_mip_gap_limit_contract():
    rng = random.Random(3)
    m = LinearModel(maximize=True)
    weights, values = [], []
    for j in range(30):
        w, v = rng.randint(3, 30), rng.randint(2, 40)
        weights.append(w)
        values.append(v)
        m.add_var(lb=0.0, ub=1.0, obj=float(v), integer=True)
    m.add_constr({j: float(weights[j]) for j in range(30)}, "<=", 60.0)
    out = solve_mip(m)
    assert out.status == OPTIMAL
    assert out.best_bound is not None
    # maximize: bound >= incumbent
    assert out.best_bound >= out.objective - 1e-9


def test_mip_infeasible():
    m = LinearModel()
    x = m.add_var(lb=0.0, ub=1.0, obj=1.0, integer=True)
    m.add_constr({x: 1.0}, ">=", 2.0)
    assert solve_mip(m).status == INFEASIBLE


def test_mip_time_limit_statuses_are_sane():
    m = LinearModel()
    rng = random.Random(5)
    for j in range(40):
        m.add_var(lb=0.0, ub=1.0, obj=rng.uniform(-3, 3), integer=True)
    for c in range(25):
        coeffs = {j: rng.uniform(-1, 1) for j in range(40)}
        m.add_constr(coeffs, "<=", rng.uniform(0.5, 4.0))
    out = solve_mip(m, time_limit=0.05)
    assert out.status in (OPTIMAL, TIME_LIMIT)
    if out.status == TIME_LIMIT and out.values is not None:
        assert math.isfinite(out.objective)


def _degree_model(nodes, cost):
    m = LinearModel()
    x = {}
    for i in nodes:
        for j in nodes:
            if i < j:
                x[(i, j)] = m.add_var(lb=0.0, ub=1.0, obj=cost[i][j], integer=True)
    for i in nodes:
        coeffs = {}
        for j in nodes:
            if j == i:
                continue
            coeffs[x[(min(i, j), max(i, j))]] = 1.0
        m.add_constr(coeffs, "==", 2.0)
    return m, x


def _component_cuts(nodes, x):
    def cut_source(out):
        chosen = [e for e, col in x.items() if out.values[col] > 0.5]
        adj = {v: set() for v in nodes}
        for i, j in chosen:
            adj[i].add(j)
            adj[j].add(i)
        unvisited = set(nodes)
        comps = []
        while unvisited:
            start = min(unvisited)
            comp, stack = {start}, [start]
            while stack:
                cur = stack.pop()
                for nb in adj[cur]:
                    if nb not in comp:
                        comp.add(nb)
                        stack.append(nb)
            comps.append(comp)
            unvisited -= comp
        if len(comps) <= 1:
            return []
        cuts = []
        for comp in comps:
            coeffs = {
                x[(a, b)]: 1.0
                for a in comp
                for b in comp
                if a < b
            }
            cuts.append((coeffs, "<=", float(len(comp) - 1)))
        return cuts

    return cut_source


def test_resolve_with_cuts_identity_on_empty_source():
    m = LinearModel()
    m.add_var(lb=0.0, ub=2.0, obj=-1.0, integer=True)
    out = resolve_with_cuts(m, lambda _o: [], max_rounds=5)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(-2.0)
    assert out.cut_rounds == 0
    assert out.cuts_complete


def test_resolve_with_cuts_zero_budget_flagged_incomplete():
    m = LinearModel()
    m.add_var(lb=0.0, ub=2.0, obj=-1.0, integer=True)
    out = resolve_with_cuts(m, lambda _o: [], max_rounds=0)
    assert out.status == OPTIMAL
    assert not out.cuts_complete


def test_resolve_with_cuts_solves_small_tsps():
    rng = random.Random(11)
    for n in (4, 5, 6):
        nodes = list(range(n))
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in nodes]
        cost = [
            [math.dist(pts[i], pts[j]) for j in nodes]
            for i in nodes
        ]
        m, x = _degree_model(nodes, cost)
        objectives = []
        source = _component_cuts(nodes, x)

        def logging_source(out, _source=source, _objs=objectives):
            _objs.append(out.objective)
            return _source(out)

        out = resolve_with_cuts(m, logging_source, max_rounds=30)
        assert out.status == OPTIMAL
        assert out.cuts_complete
        _seq, want = oracle_tsp(nodes, cost)
        assert out.objective == pytest.approx(want, rel=1e-9)
        # objective never improves as cuts accumulate
        for earlier, later in zip(objectives, objectives[1:]):
            assert later >= earlier - 1e-9

