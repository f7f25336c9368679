from __future__ import annotations

import hashlib
import math
import random
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize, sparse
from scipy.optimize import Bounds, LinearConstraint

from oracles import oracle_tsp, warm_start
from stspgl import mpbackend, orchestrate
from stspgl.colgen import DualPrices, build_rmp, solve_pricing
from stspgl.covers import make_cover, minimal_feasibility_cover
from stspgl.evalcli import run_method
from stspgl.model import INFEASIBLE, OPTIMAL, TIME_LIMIT, UNBOUNDED
from stspgl.mpbackend import (
    NO_PRIMAL_HEURISTICS,
    LinearModel,
    resolve_with_cuts,
    solve_lp,
    solve_mip,
)
from stspgl.orchestrate import SearchConfig, run_mip_benchmark
from stspgl.scenarios import generate_instance, mean_scenario
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


def test_each_mip_sends_its_own_option_set(monkeypatch):
    # each MIP sends its own HiGHS options and no other: the Benders master
    # skips the primal heuristics, the pricing IP skips them and caps its cut
    # pool, the compact MIP (also under `deterministic`) skips them and
    # strong branching, the TSP MIP sends none
    no_heuristics = {f"mip_heuristic_run_{name}": False for name in (
        "feasibility_jump", "rins", "rens", "root_reduced_cost", "zi_round", "shifting")}
    pricing_ip = {**no_heuristics, "mip_pool_soft_limit": 10}
    compact_mip = {**no_heuristics, "mip_pscost_minreliable": 0}
    calls = []
    real = mpbackend.milp

    def spy(*args, **kwargs):
        calls.append(dict(kwargs["options"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(mpbackend, "milp", spy)
    inst = generate_instance(n=7, seed=301, n_requests=5, n_scenarios=4, theta=0.7, rho=0.25)
    sub = make_subinstance(inst, minimal_feasibility_cover(inst, inst.requests))
    pool = warm_start(sub)
    duals = DualPrices(iota={i: 0.0 for i in inst.nodes},
                       serve={hk: 0.0 for hk in inst.requests},
                       beta=1.0)
    cfg = SearchConfig(time_limit_total=60.0)
    runs = [
        (pricing_ip, lambda: solve_pricing(inst, duals)),
        (no_heuristics, lambda: benders_solve_tspgl(sub, pool)),
        (compact_mip, lambda: run_mip_benchmark(inst, cfg)),
        (compact_mip, lambda: run_method("deterministic", inst, cfg)),
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
    # pseudo-cost branching without primal heuristics only changes the
    # search: the compact MIP proves the same optimum and writes the same
    # result JSON as with HiGHS's defaults, and HiGHS knows every option (an
    # unknown name warns); each of these compact MIPs branches (30-103 nodes)
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


def test_every_rmp_lp_sends_no_presolve_and_its_time_limit(monkeypatch):
    # the RMP is the only LP: each of its solves asks HiGHS for no presolve
    # and the time left, and sends nothing else
    calls = _spy_highs(monkeypatch)
    inst = generate_instance(n=9, seed=1, n_requests=12, n_scenarios=5, theta=0.8, rho=0.2)
    cfg = SearchConfig(time_limit_total=60.0, gap_target=1e-6)
    assert orchestrate.run_bp(inst, cfg).status == OPTIMAL
    lps = [opts for name, opts in calls if name == "linprog"]
    assert len(lps) > 1
    for opts in lps:
        assert sorted(opts) == ["presolve", "time_limit"]
        assert opts["presolve"] is False
        assert 0.0 < opts["time_limit"] <= 60.0


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



class _Sent(Exception):
    """Stops a solve at the HiGHS call it is digested at, before that call
    is solved."""


def _feed(digest, value) -> None:
    """Hash a HiGHS input: every matrix dense, so scipy's sparse index order
    does not count; options without `time_limit`, which the clock sets."""
    if value is None or isinstance(value, str):
        digest.update(repr(value).encode())
    elif isinstance(value, dict):
        digest.update(repr(sorted((k, v) for k, v in value.items() if k != "time_limit")).encode())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _feed(digest, item)
    elif isinstance(value, (LinearConstraint, Bounds)):
        for part in ((value.A,) if isinstance(value, LinearConstraint) else ()) + (value.lb, value.ub):
            _feed(digest, part)
    else:
        dense = np.asarray(value.toarray() if sparse.issparse(value) else value, dtype=float)
        digest.update(repr(dense.shape).encode())
        digest.update(np.ascontiguousarray(dense).tobytes())


def _highs_digest(monkeypatch, solve, call: int = 1) -> str:
    """Digest of the `call`-th HiGHS input of `solve`; the calls before it
    are solved as usual."""
    sent = []
    for name in ("linprog", "milp"):
        def spy(*args, _name=name, _solve=getattr(optimize, name), **kwargs):
            digest = hashlib.sha256(_name.encode())
            _feed(digest, list(args))
            _feed(digest, [(key, kwargs[key]) for key in sorted(kwargs)])
            sent.append(digest.hexdigest())
            if len(sent) == call:
                raise _Sent
            return _solve(*args, **kwargs)

        monkeypatch.setattr(mpbackend, name, spy)
    with pytest.raises(_Sent):
        solve()
    return sent[-1]


# SHA-256 of what HiGHS receives from each model's first solve, on d1 and a
# generated n=6 instance, and from a 16-node TSP MIP's first solve and its
# first cut round, which adds two subtour rows. A refactor of the model
# builders leaves them as they are; a change that means to move them updates
# them.
_HIGHS_INPUTS = {
    ("d1", "root RMP"): "5c2315b95e3254a3a097d7692bba724c588bb4d9c1b068539631d9014f11aadc",
    ("d1", "compact MIP"): "f53bef8c2fde8658dbf1f2f771ec8bb1f12822cc29cba86dc8bf27417dd27a58",
    ("d1", "pricing IP"): "03467510c60d85367891f0b96616f1e7b753d7112b143d6d6daebd3d45b23a21",
    ("d1", "Benders master"): "7065c066a2df951235415ea9a00aa04cc90f45a7ad6181de5754a4ef2e313371",
    ("n6", "root RMP"): "96780d5ae5c2470c9bdaec2448dc164083205e42fcce7b413721706302a5b3c8",
    ("n6", "compact MIP"): "ec80da10e3d4524afafe4ba3420b4f61191f0f63a57d6d9b6126a4296afca2e5",
    ("n6", "pricing IP"): "7b6176c64abd5d3b462bc114943c8d8f3461b20aae5881094c38a215dbbc3e41",
    ("n6", "Benders master"): "b5cd978d587fd46350eb68a54f3af638afaf5c977128360ef65f9940cfcc3e7a",
    ("n16", "TSP MIP"): "3af3d8dd6cac8fbe2233a23bb6638c2db0a250575022d2213b5ec48f24ab81f8",
    ("n16", "TSP MIP cut round"): "09f9a660e7576151da97001e81ddb1c73f36869c409211cdf760945b65d42ef5",
}


def _highs_input_digests(monkeypatch, d1) -> dict:
    n6 = generate_instance(n=6, seed=5, n_requests=5, n_scenarios=3, theta=0.7, rho=0.3)
    cfg = SearchConfig(time_limit_total=60.0)
    got = {}
    for name, inst in (("d1", d1), ("n6", n6)):
        duals = DualPrices(iota={i: 0.0 for i in inst.nodes},
                           serve={hk: 0.0 for hk in inst.requests}, beta=0.0)
        sub = make_subinstance(inst, make_cover(inst, inst.requests))
        runs = {
            "root RMP": lambda: solve_lp(build_rmp(inst, [make_cover(inst, inst.requests)]).model),
            "compact MIP": lambda: run_mip_benchmark(inst, cfg),
            "pricing IP": lambda: solve_pricing(inst, duals),
            "Benders master": lambda: benders_solve_tspgl(sub, warm_start(sub)),
        }
        for model, run in runs.items():
            got[(name, model)] = _highs_digest(monkeypatch, run)
    n16 = generate_instance(n=16, seed=1, n_requests=8, n_scenarios=3)
    for call, model in ((1, "TSP MIP"), (2, "TSP MIP cut round")):
        got[("n16", model)] = _highs_digest(
            monkeypatch, lambda: _tsp_mip(sorted(n16.nodes), n16.design, math.inf), call)
    return got


def test_each_model_sends_highs_the_same_inputs(monkeypatch, d1):
    assert _highs_input_digests(monkeypatch, d1) == _HIGHS_INPUTS


# SHA-256 over every `linprog` input of a whole solve, in call order, with the
# number of calls. On this n=8 instance both dives grow the master, cut it by
# GSEC rows and fix branched columns to zero before they solve it again, so
# the pin sees every way the master changes between solves.
_WHOLE_SOLVE_LP_INPUTS = {
    "bp": (10, "78f63b1185f8038ca9724f94b4d1ef50eaf6322b813635fe76ff11c85d144fa5"),
    "hybrid": (9, "02010680277fcc4ab826747888579380dc622cf9e6a1df2ad045172daf05ce47"),
}


@pytest.mark.parametrize("method", sorted(_WHOLE_SOLVE_LP_INPUTS))
def test_a_whole_dive_sends_highs_the_same_lp_inputs(monkeypatch, method):
    inst = generate_instance(n=8, seed=1, n_requests=10, n_scenarios=4, theta=0.8, rho=0.2)
    digest = hashlib.sha256()
    shapes = []   # (rows, columns, columns with upper bound 0) of each LP

    def spy(*args, _solve=optimize.linprog, **kwargs):
        _feed(digest, list(args))
        _feed(digest, [(key, kwargs[key]) for key in sorted(kwargs)])
        rows = sum(kwargs[a].shape[0] for a in ("A_ub", "A_eq") if kwargs[a] is not None)
        shapes.append((rows, len(args[0]), int((kwargs["bounds"][:, 1] == 0.0).sum())))
        return _solve(*args, **kwargs)

    monkeypatch.setattr(mpbackend, "linprog", spy)
    res = run_method(method, inst, SearchConfig(time_limit_total=60.0, gap_target=1e-6))
    assert res.status == OPTIMAL
    rows, cols, fixed = zip(*shapes)
    assert rows[-1] > rows[0] and cols[-1] > cols[0] and max(fixed) > 0
    assert (len(shapes), digest.hexdigest()) == _WHOLE_SOLVE_LP_INPUTS[method]
