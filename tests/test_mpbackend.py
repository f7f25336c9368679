from __future__ import annotations

import math
import random
import time
import warnings
from types import SimpleNamespace

import pytest

from oracles import oracle_tsp, warm_start
from stspgl import mpbackend, orchestrate
from stspgl.colgen import DualPrices, solve_pricing
from stspgl.covers import minimal_feasibility_cover
from stspgl.evalcli import solve_deterministic
from stspgl.model import INFEASIBLE, OPTIMAL, TIME_LIMIT, UNBOUNDED
from stspgl.mpbackend import (
    NO_PRIMAL_HEURISTICS,
    LinearModel,
    resolve_with_cuts,
    solve_lp,
    solve_mip,
)
from stspgl.orchestrate import SearchConfig, run_mip_benchmark
from stspgl.scenarios import deterministic_routing_costs, generate_instance, mean_scenario
from stspgl.tspgl import _tsp_mip, benders_solve_tspgl, make_subinstance


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
    assert grown.set_ub(y, 0.0)
    assert not grown.set_ub(y, 0.0)
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
    # the knapsack's maximum of 3 as the minimum of the negated values
    m = LinearModel()
    x = m.add_var(lb=0.0, ub=1.0, obj=-3.0, integer=True)
    y = m.add_var(lb=0.0, ub=1.0, obj=-2.0, integer=True)
    m.add_constr({x: 1.0, y: 1.0}, "<=", 1.0)
    out = solve_mip(m)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(-3.0)
    assert out.values[x] == pytest.approx(1.0)


def test_mip_gap_limit_contract():
    rng = random.Random(3)
    m = LinearModel()
    weights, values = [], []
    for j in range(30):
        w, v = rng.randint(3, 30), rng.randint(2, 40)
        weights.append(w)
        values.append(v)
        m.add_var(lb=0.0, ub=1.0, obj=-float(v), integer=True)
    m.add_constr({j: float(weights[j]) for j in range(30)}, "<=", 60.0)
    out = solve_mip(m)
    assert out.status == OPTIMAL
    assert out.best_bound is not None
    # minimize: bound <= incumbent
    assert out.best_bound <= out.objective + 1e-9


def test_mip_without_heuristics_is_exact_and_silent():
    # HiGHS warns (OptimizeWarning) on an option name it does not know;
    # solve_mip silences only milp's RuntimeWarning about unlisted names
    rng = random.Random(3)
    m = LinearModel()
    weights = [rng.randint(3, 30) for _ in range(30)]
    for _w in weights:
        m.add_var(lb=0.0, ub=1.0, obj=-float(rng.randint(2, 40)), integer=True)
    m.add_constr({j: float(w) for j, w in enumerate(weights)}, "<=", 60.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = solve_mip(m, tuning=NO_PRIMAL_HEURISTICS)
    assert not caught
    assert out.status == OPTIMAL
    assert out.objective == solve_mip(m).objective


def test_only_pricing_and_benders_masters_skip_heuristics(monkeypatch):
    # each MIP sends its own HiGHS options and no other: the pricing IP and
    # the Benders master skip the primal heuristics, the compact MIP (also
    # under `deterministic`) skips strong branching, the TSP MIP sends none
    no_heuristics = {f"mip_heuristic_run_{name}": False for name in (
        "feasibility_jump", "rins", "rens", "root_reduced_cost", "zi_round", "shifting")}
    pseudo_costs = {"mip_pscost_minreliable": 0}
    calls = []
    real = mpbackend.milp

    def spy(*args, **kwargs):
        calls.append(dict(kwargs["options"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(mpbackend, "milp", spy)
    inst = generate_instance(n=7, seed=301, n_requests=5, n_scenarios=4, theta=0.7, rho=0.25)
    qt = deterministic_routing_costs(inst)
    sub = make_subinstance(inst, minimal_feasibility_cover(inst, inst.requests), qt)
    pool = warm_start(sub)
    duals = DualPrices(iota={i: 0.0 for i in inst.nodes},
                       eps={(hk, i): 0.0 for hk in inst.requests for i in inst.nodes},
                       beta=1.0)
    cfg = SearchConfig(time_limit_total=60.0)
    runs = [
        (no_heuristics, lambda: solve_pricing(inst, duals)),
        (no_heuristics, lambda: benders_solve_tspgl(sub, pool)),
        (pseudo_costs, lambda: run_mip_benchmark(inst, cfg)),
        (pseudo_costs, lambda: solve_deterministic(inst, cfg)),
        ({}, lambda: _tsp_mip(sorted(inst.nodes), inst.design, math.inf)),
    ]
    for tuning, run in runs:
        calls.clear()
        run()
        assert calls
        sent = [{name: val for name, val in opts.items() if name not in ("mip_rel_gap", "time_limit")}
                for opts in calls]
        assert sent == [tuning] * len(calls)


def test_compact_mip_branching_changes_no_result(monkeypatch):
    # pseudo-cost branching only changes the search: the compact MIP proves
    # the same optimum and writes the same result JSON as with HiGHS's
    # default branching, and HiGHS knows the option (an unknown name warns);
    # each of these compact MIPs branches (17-106 nodes)
    cfg = SearchConfig(time_limit_total=60.0, gap_target=1e-6)
    insts = [generate_instance(n=n, seed=seed, n_requests=12, n_scenarios=5, theta=0.8, rho=0.2)
             for n, seed in ((7, 1), (7, 2), (8, 1), (8, 3), (9, 3))]
    insts.append(mean_scenario(insts[-1]))
    real = orchestrate.resolve_with_cuts
    for inst in insts:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run_mip_benchmark(inst, cfg)
        assert not caught
        with monkeypatch.context() as patch:
            patch.setattr(orchestrate, "resolve_with_cuts",
                          lambda *args, **kw: real(*args, **{**kw, "tuning": {}}))
            ref = run_mip_benchmark(inst, cfg)
        assert res.status == ref.status == OPTIMAL
        assert res.upper_bound == pytest.approx(ref.upper_bound, rel=1e-9)
        assert res.to_json(inst) == ref.to_json(inst)


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
    out = solve_mip(m, deadline=time.monotonic() + 0.05)
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


def test_resolve_with_cuts_zero_budget_complete_when_nothing_to_cut(monkeypatch):
    calls = _count_milp(monkeypatch)
    m = LinearModel()
    m.add_var(lb=0.0, ub=2.0, obj=-1.0, integer=True)
    out = resolve_with_cuts(m, lambda _o: [], max_rounds=0)
    assert out.status == OPTIMAL
    assert out.cuts_complete
    assert len(calls) == 1


def test_resolve_with_cuts_zero_budget_flagged_incomplete(monkeypatch):
    calls = _count_milp(monkeypatch)
    m = LinearModel()
    m.add_var(lb=0.0, ub=2.0, obj=-1.0, integer=True)
    out = resolve_with_cuts(m, lambda _o: [({0: 1.0}, "<=", 1.0)], max_rounds=0)
    assert out.status == OPTIMAL
    assert not out.cuts_complete
    assert len(calls) == 1
    assert m.n_constrs() == 1       # the last cuts still enter the model


def _count_milp(monkeypatch) -> list:
    calls = []
    real = mpbackend.milp

    def spy(*args, **kwargs):
        calls.append(kwargs.get("options"))
        return real(*args, **kwargs)

    monkeypatch.setattr(mpbackend, "milp", spy)
    return calls


def test_resolve_with_cuts_spent_clock_makes_no_solve(monkeypatch):
    calls = _count_milp(monkeypatch)
    m = LinearModel()
    m.add_var(lb=0.0, ub=2.0, obj=-1.0, integer=True)
    out = resolve_with_cuts(m, lambda _o: pytest.fail("nothing to separate"),
                            deadline=time.monotonic())
    assert out.status == TIME_LIMIT
    assert not out.cuts_complete
    assert not out.solved
    assert out.cut_rounds == 0
    assert calls == []


def _spy_highs(monkeypatch) -> list:
    """(entry point, options) of every linprog and milp call."""
    calls = []
    for name in ("linprog", "milp"):
        real = getattr(mpbackend, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append((_name, dict(kwargs["options"])))
            return _real(*args, **kwargs)

        monkeypatch.setattr(mpbackend, name, spy)
    return calls


def test_a_passed_deadline_makes_no_highs_call(monkeypatch):
    calls = _spy_highs(monkeypatch)
    m = LinearModel()
    x = m.add_var(lb=0.0, ub=2.0, obj=-1.0, integer=True)
    m.add_constr({x: 1.0}, "<=", 1.5)
    passed = time.monotonic()
    for out in (solve_lp(m, deadline=passed), solve_mip(m, deadline=passed),
                resolve_with_cuts(m, lambda _o: pytest.fail("nothing to separate"),
                                  deadline=passed)):
        assert out.status == TIME_LIMIT
        assert not out.solved
    assert calls == []


def test_deadline_becomes_the_highs_time_limit(monkeypatch):
    calls = _spy_highs(monkeypatch)
    m = LinearModel()
    x = m.add_var(lb=0.0, ub=2.0, obj=-1.0, integer=True)
    m.add_constr({x: 1.0}, "<=", 1.5)
    assert solve_lp(m).status == solve_mip(m).status == OPTIMAL
    assert [("time_limit" in opts) for _name, opts in calls] == [False, False]
    calls.clear()
    # a clock that stands still at 100 s
    monkeypatch.setattr(mpbackend, "time", SimpleNamespace(monotonic=lambda: 100.0))
    for deadline in (130.0, 100.001):
        solve_lp(m, deadline=deadline)
        solve_mip(m, deadline=deadline)
    # the time left, with a 0.01 s floor
    assert [(name, opts["time_limit"]) for name, opts in calls] == \
        [("linprog", 30.0), ("milp", 30.0), ("linprog", 0.01), ("milp", 0.01)]


def test_mip_benchmark_on_a_spent_budget_makes_no_solve(monkeypatch):
    calls = _count_milp(monkeypatch)
    inst = generate_instance(n=7, seed=301, n_requests=5, n_scenarios=4, theta=0.7, rho=0.25)
    res = run_mip_benchmark(inst, SearchConfig(time_limit_total=1e-9))
    assert res.status == TIME_LIMIT
    assert res.incumbent is None
    assert calls == []


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

