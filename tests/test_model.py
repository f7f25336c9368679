from __future__ import annotations

import json
import math

import pytest

from stspgl.model import (
    StructuralViolation,
    TspGlSolution,
    build_instance,
    cycles,
    edge,
    euc2d,
    gap_value,
    load_instance,
    metric_closure,
    objective,
    save_instance,
    validate_instance,
)
from stspgl.scenarios import generate_instance

from oracles import demand, structural_violations


def test_euc2d_rounds_to_nearest_integer():
    assert euc2d((0, 0), (3, 4)) == 5
    assert euc2d((0, 0), (1, 1)) == 1   # sqrt(2) = 1.414 -> 1
    assert euc2d((0, 0), (2, 2)) == 3   # sqrt(8) = 2.828 -> 3


def test_build_instance_canonicalizes_request_order():
    inst = build_instance(
        compulsory=[0],
        requests=[(2, 4), (1, 3)],
        demand=[[1.0, 2.0], [3.0, 4.0]],
        theta=0.5,
        rho=0.5,
        alpha=0.25,
        dist=[[abs(i - j) for j in range(5)] for i in range(5)],
    )
    assert inst.requests == ((1, 3), (2, 4))
    # demand rows must follow the request reordering
    assert inst.scenarios.demand == ((3.0, 1.0), (4.0, 2.0))
    assert demand(inst, 0, (2, 4)) == 1.0


def test_validate_instance_clean_on_d1(d1):
    assert validate_instance(d1) == []


def test_validate_instance_flags_problems():
    bad = build_instance(
        compulsory=[0],
        requests=[(0, 1), (0, 1)],
        demand=[[0.0, 0.0], [0.0, 0.0]],
        theta=0.5,
        rho=0.5,
        alpha=0.25,
        dist=[[0, 1, 9], [1, 0, 1], [9, 1, 0]],
    )
    report = validate_instance(bad)
    assert any("triangle" in line for line in report)
    assert any("duplicate request" in line for line in report)
    assert any("zero total demand" in line for line in report)


def test_validate_instance_flags_asymmetry_and_range():
    inst = build_instance(
        compulsory=[7],
        requests=[(0, 2)],
        demand=[[1.0]],
        theta=2.0,
        rho=0.5,
        alpha=0.25,
        dist=[[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    )
    report = validate_instance(inst)
    assert any("out of range" in line for line in report)
    assert any("theta outside" in line for line in report)


def test_instance_json_round_trip_dist(tmp_path, d1):
    path = tmp_path / "d1.json"
    save_instance(d1, path)
    again = load_instance(path)
    assert again.requests == d1.requests
    assert again.design == d1.design
    assert again.scenarios.demand == d1.scenarios.demand
    assert (again.theta, again.rho, again.alpha) == (d1.theta, d1.rho, d1.alpha)


def test_instance_json_round_trip_coords(tmp_path):
    inst = build_instance(
        compulsory=[0, 1],
        requests=[(0, 2), (3, 1)],
        demand=[[2.0, 0.0], [1.0, 5.0]],
        theta=0.8,
        rho=0.0,
        alpha=0.25,
        coords=[(0, 0), (10, 0), (10, 10), (0, 10)],
        rounding="euc2d",
    )
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again.coords == inst.coords
    assert again.design == inst.design
    assert again.rounding == "euc2d"


def test_round_trip_preserves_repaired_distances(tmp_path):
    # n=8 seed=3 draws coordinates whose rounded distances violate the
    # triangle inequality, so the matrix only matches if the load path
    # applies the same metric repair as the build path.
    inst = generate_instance(n=8, seed=3, n_requests=7, n_scenarios=4,
                             theta=0.8, rho=0.2)
    assert validate_instance(inst) == []
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert validate_instance(again) == []
    assert again.design == inst.design


def test_metric_closure_repairs_and_reports():
    broken = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    fixed = metric_closure(broken)
    assert fixed is not None
    assert fixed[0][2] == fixed[2][0] == 2.0
    assert metric_closure(fixed) is None
    ok = [[0.0, 1.0], [1.0, 0.0]]
    assert metric_closure(ok) is None


def test_load_instance_rejects_sparse_node_ids(tmp_path):
    doc = {
        "nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 1}, {"id": 3, "x": 2, "y": 0}],
        "compulsory": [0],
        "requests": [{"h": 0, "k": 2, "demand": [1.0]}],
        "theta": 0.5,
        "rho": 0.0,
        "alpha": 0.25,
    }
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="dense"):
        load_instance(path)


def _d1_solution(d1):
    tour = frozenset({edge(0, 1), edge(1, 3), edge(0, 3)})
    flows = {(1, 3): {(1, 3): 1.0}}
    return TspGlSolution(
        tour_edges=tour,
        flows=flows,
        objective=5.0,
        design_cost=6.0,
        routing_cost=2.0,
        served=((1, 3),),
    )


def test_objective_on_d1_cover_13(d1, d1_qtilde):
    sol = _d1_solution(d1)
    total, design, routing = objective(d1, sol, d1_qtilde)
    assert design == 6.0
    assert routing == pytest.approx(2.0)
    assert total == pytest.approx(5.0)


def test_objective_rejects_flow_off_tour(d1, d1_qtilde):
    sol = _d1_solution(d1)
    sol.flows[(1, 3)] = {(1, 2): 1.0, (2, 3): 1.0}
    with pytest.raises(StructuralViolation):
        objective(d1, sol, d1_qtilde)


def test_structural_violations_catches_broken_tours(d1):
    sol = _d1_solution(d1)
    assert structural_violations(sol, d1) == []
    broken = TspGlSolution(
        tour_edges=frozenset({edge(0, 1), edge(1, 3)}),
        flows={},
        objective=0.0,
        design_cost=0.0,
        routing_cost=0.0,
        served=(),
    )
    report = structural_violations(broken, d1)
    assert any("degree" in line for line in report)


def test_tour_sequence_is_canonical(d1):
    sol = _d1_solution(d1)
    assert sol.tour_sequence() == [0, 1, 3]


def test_cycles_splits_and_orders():
    assert cycles([(0, 1), (1, 2), (0, 2)]) == [[0, 1, 2]]
    assert cycles([(5, 9), (3, 9), (3, 4), (4, 5), (0, 1), (1, 2), (0, 2)]) == \
        [[0, 1, 2], [3, 4, 5, 9]]
    assert cycles([(3, 4), (4, 5), (3, 5), (0, 1), (1, 2), (0, 2)]) == [[0, 1, 2], [3, 4, 5]]
    assert cycles([]) == []
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        cycles([(0, 1), (1, 2)])


def test_gap_value():
    assert gap_value(10.0, 8.0) == pytest.approx(0.2)
    assert gap_value(10.0, 10.0) == 0.0
    assert gap_value(None, 8.0) is None
    assert gap_value(10.0, math.inf) is None


def test_trace_csv_header(tmp_path):
    from stspgl.model import SolveTrace

    trace = SolveTrace()
    trace.append(0.0, "start", ub=math.inf)
    trace.append(1.0, "incumbent", ub=5.0, lb=4.0, cover_size=1, nodes_visited=3)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_seconds,event,ub,lb,cover_size,nodes_visited"
    assert lines[2].startswith("1.000,incumbent,5.0,4.0,1,3")
