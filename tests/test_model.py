from __future__ import annotations

import json
import math

import pytest

from stspgl.model import (
    TspGlSolution,
    build_instance,
    cycles,
    edge,
    euc2d,
    gap_value,
    load_instance,
    metric_closure,
    save_instance,
    validate_instance,
)
from stspgl.scenarios import generate_instance
from stspgl.tspgl import SubInstance, solution_from_tour

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
    # demand columns must follow the request reordering
    assert inst.demand == ((3.0, 4.0), (1.0, 2.0))
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
    assert again.demand == d1.demand
    assert (again.theta, again.rho, again.alpha) == (d1.theta, d1.rho, d1.alpha)


def _coords_instance():
    return build_instance(
        compulsory=[0, 1],
        requests=[(0, 2), (3, 1)],
        demand=[[2.0, 0.0], [1.0, 5.0]],
        theta=0.8,
        rho=0.0,
        alpha=0.25,
        coords=[(0, 0), (10, 0), (10, 10), (0, 10)],
        rounding="euc2d",
    )


def test_instance_json_round_trip_coords(tmp_path):
    inst = _coords_instance()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again.coords == inst.coords
    assert again.design == inst.design
    assert again.rounding == "euc2d"


@pytest.mark.parametrize("kind", ["dist", "coords"])
def test_save_load_save_writes_the_same_bytes(tmp_path, d1, kind):
    inst = d1 if kind == "dist" else _coords_instance()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_instance(inst, first)
    save_instance(load_instance(first), second)
    assert second.read_bytes() == first.read_bytes()
    # the file lists each request's demand column, in request order
    doc = json.loads(first.read_text())
    assert [req["demand"] for req in doc["requests"]] == [list(col) for col in inst.demand]


def test_scenario_totals_sum_each_scenario_in_request_order():
    # 1e16 + 1 rounds back to 1e16 in binary floating point, so the
    # scenario-1 total shows the order of the additions: 1e16 in request
    # order, 1e16 + 2 had the small demands been added first
    inst = build_instance(
        compulsory=[0],
        requests=[(0, 1), (1, 2), (2, 0)],
        demand=[[1e16, 3.0], [1.0, 0.5], [1.0, 0.25]],
        theta=0.5,
        rho=0.0,
        alpha=0.25,
        dist=[[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    )
    assert inst.n_scenarios == 2
    assert inst.scenario_totals == (1e16, 3.75)
    for s, total in enumerate(inst.scenario_totals):
        assert total == sum(col[s] for col in inst.demand)
    big = generate_instance(n=9, seed=4, n_requests=12, n_scenarios=5)
    assert big.scenario_totals == tuple(sum(col[s] for col in big.demand) for s in range(5))


def _instance_doc(**overrides):
    doc = {
        "nodes": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 1.0, "y": 1.0},
                  {"id": 2, "x": 2.0, "y": 0.0}],
        "compulsory": [0],
        "requests": [{"h": 0, "k": 1, "demand": [4.0, 2.0]},
                     {"h": 2, "k": 1, "demand": [1.0, 3.0]}],
        "theta": 0.8, "rho": 0.2, "alpha": 0.25, "rounding": "euc2d",
    }
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("first, second", [([4.0, 2.0], [1.0, 3.0, 5.0]),
                                           ([4.0, 2.0, 5.0], [1.0, 3.0])],
                         ids=["shorter_first", "longer_first"])
def test_load_rejects_uneven_demand_lists(tmp_path, first, second):
    # with the shorter list first, the extra scenario was dropped; with the
    # longer one first, a bare IndexError came out
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_instance_doc(requests=[
        {"h": 0, "k": 1, "demand": first}, {"h": 2, "k": 1, "demand": second}])))
    want = rf"request \(2, 1\) lists {len(second)} demand scenarios, " \
           rf"the first request lists {len(first)}"
    with pytest.raises(ValueError, match=want):
        load_instance(path)


@pytest.mark.parametrize("drop", ["compulsory", "requests", "theta", "rho", "alpha", "nodes",
                                  "demand", "x"])
def test_load_names_a_missing_key(tmp_path, drop):
    doc = _instance_doc()
    if drop in ("demand", "x"):
        for rec in doc["requests"] if drop == "demand" else doc["nodes"]:
            del rec[drop]
    else:
        del doc[drop]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    # a file with neither node coordinates nor a matrix lacks the matrix
    key = "dist" if drop == "nodes" else drop
    with pytest.raises(ValueError, match=f"^instance file lacks the key '{key}'$"):
        load_instance(path)


@pytest.mark.parametrize("key, overrides", [
    ("theta", {"theta": None}),
    ("compulsory", {"compulsory": 3}),
    ("compulsory", {"compulsory": [None]}),
    ("requests", {"requests": [[0, 1], [2, 1]]}),
    ("requests", {"requests": [{"h": 0, "k": 1, "demand": [None, 2.0]}]}),
    ("nodes", {"nodes": [{"id": 0, "x": None, "y": 0.0}]}),
    ("nodes", {"nodes": [{"id": None, "x": 0.0, "y": 0.0}, {"id": 0, "x": 1.0, "y": 0.0}]}),
    ("dist", {"dist": [[0.0, None], [1.0, 0.0]]}),
    # a string or a boolean where a number goes, and a fraction as a node id,
    # which used to load as "0.8", 1.0, 1 and the id rounded down
    ("theta", {"theta": "0.8"}),
    ("alpha", {"alpha": True}),
    ("requests", {"requests": [{"h": "0", "k": 1, "demand": [4.0, 2.0]}]}),
    ("requests", {"requests": [{"h": 0, "k": 1, "demand": [True, True]}]}),
    ("compulsory", {"compulsory": [0.7]}),
    ("nodes", {"nodes": [{"id": 0.5, "x": 0.0, "y": 0.0}]}),
    ("nodes", {"nodes": [{"id": 0, "x": "0", "y": 0.0}]}),
    ("dist", {"dist": [[0.0, "1"], [1.0, 0.0]]}),
], ids=["theta-null", "compulsory-number", "compulsory-null-id", "request-pairs",
        "demand-null", "coordinate-null", "node-id-null", "dist-null", "theta-string",
        "alpha-bool", "request-id-string", "demand-bool", "compulsory-fraction",
        "node-id-fraction", "coordinate-string", "dist-string"])
def test_load_names_a_value_of_the_wrong_json_type(tmp_path, key, overrides):
    doc = _instance_doc(**overrides)
    if "dist" in overrides:
        del doc["nodes"]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError,
                       match=f"^instance file's '{key}' has the wrong JSON type$"):
        load_instance(path)


def test_load_takes_whole_numbers_written_with_a_point_as_node_ids(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_instance_doc()))
    want = load_instance(path)
    path.write_text(json.dumps(_instance_doc(
        compulsory=[0.0],
        requests=[{"h": 0.0, "k": 1.0, "demand": [4, 2]}, {"h": 2, "k": 1, "demand": [1, 3]}])))
    again = load_instance(path)
    assert again.compulsory == want.compulsory and again.requests == want.requests
    assert all(type(i) is int for i in again.compulsory)
    assert all(type(i) is int for hk in again.requests for i in hk)


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"inst"', "null"])
def test_load_names_a_file_that_holds_no_json_object(tmp_path, text):
    # a list used to be blamed on its missing 'compulsory' key
    path = tmp_path / "inst.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="^instance file must hold a JSON object$"):
        load_instance(path)


def test_load_defaults_a_missing_rounding_to_exact(tmp_path):
    doc = _instance_doc()
    del doc["rounding"]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(path)
    assert inst.rounding == "exact"
    assert inst.design[0][1] == math.sqrt(2.0)


def test_load_rejects_an_unknown_rounding(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_instance_doc()))
    assert load_instance(path).design[0][1] == 1.0    # euc2d rounds sqrt(2) to 1
    path.write_text(json.dumps(_instance_doc(rounding="EUC_2D")))
    with pytest.raises(ValueError, match="unknown rounding 'EUC_2D'"):
        load_instance(path)


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
    return TspGlSolution(
        tour_edges=tour,
        objective=5.0,
        design_cost=6.0,
        routing_cost=2.0,
        served=((1, 3),),
    )


def test_objective_on_d1_cover_13(d1):
    sub = SubInstance(inst=d1, nodes=(0, 1, 3), requests=((1, 3),))
    sol = solution_from_tour(sub, [0, 1, 3])
    assert sol.tour_edges == _d1_solution(d1).tour_edges
    assert sol.served == ((1, 3),)
    assert structural_violations(sol, d1) == []
    assert sol.design_cost == 6.0
    assert sol.routing_cost == pytest.approx(2.0)
    assert sol.objective == pytest.approx(5.0)


def test_structural_oracle_rejects_an_endpoint_off_the_tour(d1):
    sol = _d1_solution(d1)
    sol.served = ((1, 3), (2, 4))
    assert structural_violations(sol, d1) == ["request (2, 4) has an endpoint off the tour"]


def test_structural_oracle_rejects_a_wrong_routing_cost(d1):
    # (1, 3) routed the long way round, 1 -> 0 -> 3, instead of on the direct arc
    sol = _d1_solution(d1)
    sol.routing_cost = 4.0
    sol.objective = 0.75 * 6.0 + 0.25 * 4.0
    assert structural_violations(sol, d1) == ["routing_cost 4.0 differs from the tour's 2.0",
                                              "objective 5.5 differs from the tour's 5.0"]


def test_structural_violations_catches_broken_tours(d1):
    sol = _d1_solution(d1)
    assert structural_violations(sol, d1) == []
    broken = TspGlSolution(
        tour_edges=frozenset({edge(0, 1), edge(1, 3)}),
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
