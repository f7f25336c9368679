import math

import pytest

from stspgl.covers import make_cover
from stspgl.model import SolveTrace, TspGlSolution, build_instance
from stspgl.orchestrate import (
    ScoredQueue,
    SearchConfig,
    SearchState,
    run_bp,
    run_heuristic,
    run_hybrid,
    run_mip_benchmark,
    update_incumbent,
)
from stspgl.scenarios import chance_feasible, deterministic_routing_costs
from stspgl.tspgl import symmetric_tsp

from conftest import make_suite


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


def test_scored_queue_orders_by_bounds_then_requests(d1, d1_qtilde):
    from stspgl.tspgl import BoundEstimate

    queue = ScoredQueue()
    a = make_cover(d1, [(1, 3)])
    b = make_cover(d1, [(2, 4)])
    a.bounds = BoundEstimate(0, {}, {}, lb=5.0, ub=5.0, tsp_tour=())
    b.bounds = BoundEstimate(0, {}, {}, lb=6.5, ub=6.5, tsp_tour=())
    assert queue.push(b)
    assert queue.push(a)
    assert not queue.push(a)          # one entry per request set
    assert len(queue) == 2
    assert [c.requests for c in queue.smallest(2)] == [a.requests, b.requests]
    assert queue.pop() is a
    queue.remove(b.requests)
    assert queue.pop() is None


def test_update_incumbent_requires_strict_improvement(d1):
    state = SearchState(trace=SolveTrace(), start=0.0, deadline=1.0)
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
    assert mip.incumbent.structural_violations(inst) == []
    assert bp.incumbent.structural_violations(inst) == []


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
        assert bp.incumbent.structural_violations(inst) == []


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


def test_result_json_has_expected_fields(d1):
    res = run_bp(d1, fast_cfg())
    doc = res.to_json_dict(d1)
    for key in ("status", "upper_bound", "lower_bound", "gap", "tour",
                "served", "cover", "metrics", "instance"):
        assert key in doc
    assert doc["tour"] == [0, 1, 3]
    assert doc["metrics"]["infeasible"] is False
