import math
from heapq import heappop, nsmallest

import pytest

from stspgl.covers import make_cover
from stspgl.model import TspGlSolution, build_instance, gap_value
from stspgl import mpbackend, orchestrate
from stspgl.mpbackend import solve_lp, solve_mip
from stspgl.orchestrate import (
    SearchConfig,
    _new_state,
    _score_and_enqueue,
    run_bp,
    run_heuristic,
    run_hybrid,
    run_mip_benchmark,
    update_incumbent,
)
from stspgl.scenarios import chance_feasible, generate_instance
from stspgl.tspgl import symmetric_tsp

from conftest import make_suite
from oracles import structural_violations


def fast_cfg(**kwargs):
    base = dict(time_limit_total=120.0, gap_target=1e-9, seed=7)
    base.update(kwargs)
    return SearchConfig(**base)


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        SearchConfig(time_limit_total=0.0).validate()
    with pytest.raises(ValueError):
        SearchConfig(gap_target=0.0).validate()
    with pytest.raises(ValueError):
        SearchConfig(gap_target=1.0).validate()
    SearchConfig().validate()


def test_scored_queue_orders_by_bounds_then_requests(d1, monkeypatch):
    from stspgl.tspgl import BoundEstimate

    a = make_cover(d1, [(1, 3)])
    b = make_cover(d1, [(2, 4)])
    c = make_cover(d1, [(1, 3), (2, 4)])
    bounds = {a.requests: BoundEstimate(lb=5.0, ub=5.0),
              b.requests: BoundEstimate(lb=4.0, ub=5.0),
              c.requests: BoundEstimate(lb=5.0, ub=5.0)}
    monkeypatch.setattr(orchestrate, "cover_bounds",
                        lambda sub, cutpool, deadline: bounds[sub.requests])
    state = _new_state(d1, fast_cfg())
    for cover in (c, a, b):
        assert _score_and_enqueue(state, cover)
    assert not _score_and_enqueue(state, a)      # one entry per request set
    assert len(state.queue) == 3
    # ub, then lb, then the request tuple: a and c tie on both bounds
    assert [entry[-1] for entry in nsmallest(2, state.queue)] == [b, a]
    assert [heappop(state.queue)[-1] for _ in range(3)] == [b, a, c]
    assert state.queue == []


def test_update_incumbent_requires_strict_improvement(d1):
    state = _new_state(d1, fast_cfg())
    cover = make_cover(d1, [(1, 3)])
    sol = TspGlSolution(tour_edges=frozenset([(0, 1), (1, 3), (0, 3)]),
                        flows={}, objective=5.0, design_cost=6.0,
                        routing_cost=2.0, served=((1, 3),))
    assert update_incumbent(state, cover, sol)
    assert state.ub == 5.0
    same = TspGlSolution(tour_edges=sol.tour_edges, flows={}, objective=5.0,
                         design_cost=6.0, routing_cost=2.0, served=((1, 3),))
    assert not update_incumbent(state, cover, same)
    worse = TspGlSolution(tour_edges=sol.tour_edges, flows={}, objective=5.5,
                          design_cost=6.0, routing_cost=2.0, served=((1, 3),))
    assert not update_incumbent(state, cover, worse)
    assert state.trace.events[-1].event == "incumbent"


def test_benchmark_solves_tiny_example(d1):
    res = run_mip_benchmark(d1, fast_cfg())
    assert res.status == "Optimal"
    assert res.upper_bound == pytest.approx(5.0, abs=1e-6)
    assert res.lower_bound == pytest.approx(5.0, abs=1e-6)
    assert res.cover.requests == ((1, 3),)
    assert res.incumbent.tour_sequence() == [0, 1, 3]
    assert res.metrics is not None and not res.metrics["infeasible"]


def test_bp_solves_tiny_example(d1):
    res = run_bp(d1, fast_cfg())
    assert res.status == "Optimal"
    assert res.upper_bound == pytest.approx(5.0, abs=1e-9)
    assert res.lower_bound == pytest.approx(5.0, abs=1e-9)
    assert res.gap == pytest.approx(0.0, abs=1e-9)
    assert res.cover.requests == ((1, 3),)
    # the one evaluated cover is audited with its bounds around the exact value
    assert res.evaluated
    for requests, lb, ub, exact in res.evaluated:
        assert lb - 1e-9 <= exact <= ub + 1e-9


def test_hybrid_solves_tiny_example(d1):
    res = run_hybrid(d1, fast_cfg())
    assert res.status == "Optimal"
    assert res.upper_bound == pytest.approx(5.0, abs=1e-9)
    assert res.lower_bound == pytest.approx(5.0, abs=1e-9)


def test_heuristic_reports_upper_bound_only(d1):
    res = run_heuristic(d1, fast_cfg())
    assert res.status == "Feasible"
    assert res.upper_bound == pytest.approx(5.0, abs=1e-9)
    assert res.lower_bound is None
    assert res.gap is None
    assert res.cover.requests == ((1, 3),)
    # the dominated cover {(2,4)} shows up as a discard, not an incumbent
    assert any(ev.event == "discard" for ev in res.trace.events)


def test_full_service_reduces_to_plain_tour():
    # theta=1, rho=0 forces every request; alpha=0 leaves pure design cost
    dist = [[abs(i - j) for j in range(6)] for i in range(6)]
    inst = build_instance(
        compulsory=[0, 1, 2, 3, 4, 5],
        requests=[(0, 5), (2, 4)],
        demand=[[3.0], [7.0]],
        theta=1.0, rho=0.0, alpha=0.0, dist=dist,
    )
    _, tsp_value, _ = symmetric_tsp(list(range(6)), dist)
    res = run_bp(inst, fast_cfg())
    assert res.status == "Optimal"
    assert res.upper_bound == pytest.approx(tsp_value, abs=1e-6)
    assert sorted(res.incumbent.visited) == list(range(6))


def test_benchmark_merges_far_apart_clusters():
    # two compulsory clusters: per-cluster cycles are cheaper but not a tour
    coords = [(0, 0), (10, 0), (0, 10), (1000, 0), (1010, 0), (1000, 10)]
    inst = build_instance(
        compulsory=[0, 3],
        requests=[(1, 2), (4, 5)],
        demand=[[5.0], [5.0]],
        theta=1.0, rho=0.0, alpha=0.3, coords=coords,
    )
    mip = run_mip_benchmark(inst, fast_cfg())
    bp = run_bp(inst, fast_cfg())
    assert mip.status == "Optimal" and bp.status == "Optimal"
    assert mip.upper_bound == pytest.approx(bp.upper_bound, rel=1e-6)
    assert len(mip.incumbent.tour_sequence()) == 6
    assert structural_violations(mip.incumbent, inst) == []
    assert structural_violations(bp.incumbent, inst) == []


def test_benchmark_keeps_no_tour_with_subtours(monkeypatch):
    # one request in the first cluster; the uncut MIP closes a second cycle
    # through the other compulsory node, and a walk from node 0 misses it
    coords = [(0, 0), (10, 0), (0, 10), (1000, 0), (1010, 0), (1000, 10)]
    inst = build_instance(compulsory=[0, 3], requests=[(1, 2)], demand=[[5.0]],
                          theta=1.0, rho=0.0, alpha=0.3, coords=coords)

    def no_round_left(model, cut_source, max_rounds, deadline, tuning):
        out = solve_mip(model, tuning=tuning)
        assert cut_source(out), "the uncut solve should hold a subtour"
        out.cuts_complete = False
        return out

    monkeypatch.setattr(orchestrate, "resolve_with_cuts", no_round_left)
    res = run_mip_benchmark(inst, fast_cfg())
    assert res.status == "TimeLimit"
    assert res.incumbent is None


def test_clock_stopped_benchmark_keeps_the_tour_and_bound_it_holds(monkeypatch):
    # the real solve, reported as if the clock had stopped it
    inst = generate_instance(n=7, seed=301, n_requests=5, n_scenarios=4, theta=0.7, rho=0.25)
    real = orchestrate.resolve_with_cuts
    held = []

    def stopped(*args, **kwargs):
        out = real(*args, **kwargs)
        assert out.status == "Optimal" and out.cuts_complete
        out.status, out.cuts_complete = "TimeLimit", False
        held.append(out)
        return out

    monkeypatch.setattr(orchestrate, "resolve_with_cuts", stopped)
    res = run_mip_benchmark(inst, fast_cfg())
    monkeypatch.undo()
    optimum = run_mip_benchmark(inst, fast_cfg())
    assert res.status == "TimeLimit"
    assert res.incumbent is not None
    assert res.upper_bound == optimum.upper_bound
    assert res.lower_bound == min(held[0].best_bound, res.upper_bound)
    assert res.gap == gap_value(res.upper_bound, res.lower_bound)


def test_bp_matches_benchmark_on_generated_suite():
    for inst in make_suite(6, start_seed=40):
        mip = run_mip_benchmark(inst, fast_cfg())
        bp = run_bp(inst, fast_cfg())
        assert mip.status == "Optimal"
        assert bp.status == "Optimal"
        assert bp.upper_bound == pytest.approx(
            mip.upper_bound, rel=1e-6, abs=1e-6)
        assert bp.lower_bound == pytest.approx(
            bp.upper_bound, rel=1e-9, abs=1e-6)
        assert chance_feasible(inst, bp.incumbent.served)
        assert structural_violations(bp.incumbent, inst) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mip_and_bp_write_the_same_result_json(seed):
    # both score their tour with the same evaluator, so no digit may differ
    inst = generate_instance(n=9, seed=seed, n_requests=12, n_scenarios=5,
                             theta=0.8, rho=0.2)
    mip = run_mip_benchmark(inst, fast_cfg())
    bp = run_bp(inst, fast_cfg())
    assert mip.status == "Optimal"
    assert mip.to_json(inst) == bp.to_json(inst)


def test_hybrid_matches_benchmark_on_generated_suite():
    for inst in make_suite(4, start_seed=60):
        mip = run_mip_benchmark(inst, fast_cfg())
        hyb = run_hybrid(inst, fast_cfg())
        assert hyb.status == "Optimal"
        assert hyb.upper_bound == pytest.approx(
            mip.upper_bound, rel=1e-6, abs=1e-6)


def test_heuristic_never_beats_the_optimum():
    for inst in make_suite(5, start_seed=80):
        mip = run_mip_benchmark(inst, fast_cfg())
        heu = run_heuristic(inst, fast_cfg())
        assert heu.upper_bound is not None
        assert heu.upper_bound >= mip.upper_bound - 1e-6
        assert chance_feasible(inst, heu.incumbent.served)
        assert not heu.metrics["infeasible"]


def test_trace_bounds_are_monotone(small_instance):
    res = run_bp(small_instance, fast_cfg())
    prev_ub, prev_lb = math.inf, -math.inf
    for ev in res.trace.events:
        if ev.ub is not None:
            assert ev.ub <= prev_ub + 1e-9
            prev_ub = ev.ub
        if ev.lb is not None:
            assert ev.lb >= prev_lb - 1e-9
            prev_lb = ev.lb
        if ev.ub is not None and ev.lb is not None:
            assert ev.lb <= ev.ub + 1e-9


def test_every_reported_lb_stays_below_final_optimum(small_instance):
    res = run_bp(small_instance, fast_cfg())
    assert res.status == "Optimal"
    for ev in res.trace.events:
        if ev.lb is not None:
            assert ev.lb <= res.upper_bound + 1e-9


def test_gap_target_allows_early_feasible_stop(d1):
    res = run_bp(d1, fast_cfg(gap_target=0.9))
    assert res.status in ("Optimal", "Feasible")
    assert res.gap is not None and res.gap <= 0.9
    assert res.upper_bound == pytest.approx(5.0, abs=1e-9)


def test_bp_results_are_reproducible(small_instance):
    a = run_bp(small_instance, fast_cfg(seed=13))
    b = run_bp(small_instance, fast_cfg(seed=13))
    assert a.to_json() == b.to_json()
    ha = run_hybrid(small_instance, fast_cfg(seed=13))
    hb = run_hybrid(small_instance, fast_cfg(seed=13))
    assert ha.to_json() == hb.to_json()


def test_heuristic_results_are_reproducible(small_instance):
    a = run_heuristic(small_instance, fast_cfg(seed=4))
    b = run_heuristic(small_instance, fast_cfg(seed=4))
    assert a.to_json() == b.to_json()


def test_heuristic_benders_masters_stay_few(monkeypatch):
    # dominant Benders cuts keep this run to 27 master MIPs
    inst = generate_instance(n=9, seed=3, n_requests=12, n_scenarios=5, theta=0.8, rho=0.2)
    masters = []

    def counted(model, **kwargs):
        masters.append(model)
        return solve_mip(model, **kwargs)

    monkeypatch.setattr(mpbackend, "solve_mip", counted)
    res = run_heuristic(inst, fast_cfg(time_limit_total=60.0, seed=0))
    assert res.status == "Feasible"
    assert res.upper_bound == 178.06057047819127
    assert len(masters) <= 30


@pytest.mark.parametrize("hybrid", [False, True])
def test_dive_never_resolves_an_unchanged_master(monkeypatch, hybrid):
    # the master only grows or fixes bounds, so sizes and bounds identify it
    inst = generate_instance(n=9, seed=1, n_requests=12, n_scenarios=5, theta=0.8, rho=0.2)
    solves = []

    def spy(model, **kwargs):
        out = solve_lp(model, **kwargs)
        solves.append(((len(model._obj), len(model._sense), len(model._vals),
                        tuple(model._ub)), out.status))
        return out

    monkeypatch.setattr(orchestrate, "solve_lp", spy)
    res = run_bp(inst, fast_cfg(), hybrid=hybrid)
    assert res.status == "Optimal"
    assert solves
    for (before, status), (after, _) in zip(solves, solves[1:]):
        assert before != after or status != "Optimal"


def test_spent_budget_leaves_large_cover_unscored():
    # covers above 15 nodes take the TSP MIP, which obeys the search clock
    inst = generate_instance(n=24, seed=2, n_requests=20, n_scenarios=3)
    cover = make_cover(inst, inst.requests)
    assert len(cover.visited) > 15
    state = _new_state(inst, fast_cfg())
    state.deadline = state.start      # a spent clock
    assert not orchestrate._score_and_enqueue(state, cover)
    assert cover.bounds is None and not state.scored and not state.queue


def test_tiny_time_budget_reports_time_limit(small_instance):
    res = run_bp(small_instance, fast_cfg(time_limit_total=1e-4))
    assert res.status == "TimeLimit"


def test_cg_log_records_pricing_rounds(d1):
    lines = []
    res = run_bp(d1, fast_cfg(), cg_log=lines)
    assert res.status == "Optimal"
    assert lines
    for idx, line in enumerate(lines, start=1):
        cells = line.split(",")
        assert len(cells) == 6
        assert int(cells[0]) == idx


@pytest.mark.parametrize("method", [run_bp, run_hybrid])
def test_dive_ends_at_the_round_whose_bound_proves_the_incumbent(method):
    inst = generate_instance(n=10, seed=1, n_requests=14, n_scenarios=6,
                             theta=0.8, rho=0.2)
    lines = []
    res = method(inst, fast_cfg(), cg_log=lines)
    assert res.status == "Optimal"
    assert res.upper_bound == 240.6464515211406
    ub = res.upper_bound
    lbs = [line.split(",")[3] for line in lines]
    closed = [idx for idx, lb in enumerate(lbs, start=1)
              if lb and float(lb) >= ub - 1e-9 * max(1.0, ub)]
    # no pricing round runs after the one whose bound met the incumbent
    assert closed and closed[0] == len(lines)


@pytest.mark.parametrize("method", [run_bp, run_hybrid])
def test_dive_bound_is_the_master_value_plus_the_pricing_optimum(method):
    # the Lagrangian bound with convexity multiplier 1, capped at the incumbent
    inst = generate_instance(n=10, seed=1, n_requests=14, n_scenarios=6,
                             theta=0.8, rho=0.2)
    lines = []
    res = method(inst, fast_cfg(), cg_log=lines)
    assert res.status == "Optimal"
    lb = -math.inf
    met = 0
    for line in lines:
        _it, rmp, pricing, logged, _columns, _phi = line.split(",")
        bound = float(rmp) + float(pricing)
        assert float(logged) >= max(lb, min(bound, res.upper_bound))
        if bound <= res.upper_bound:
            assert float(logged) == max(lb, bound)
            met += 1
        lb = float(logged)
    assert met >= 2


def test_result_json_has_expected_fields(d1):
    res = run_bp(d1, fast_cfg())
    doc = res.to_json_dict(d1)
    for key in ("status", "upper_bound", "lower_bound", "gap", "tour",
                "served", "cover", "metrics", "instance"):
        assert key in doc
    assert doc["tour"] == [0, 1, 3]
    assert doc["metrics"]["infeasible"] is False
