from __future__ import annotations

import dataclasses

import pytest

from oracles import satisfied_count, scenario_satisfied
from stspgl.model import (
    Instance,
    ParameterError,
    build_instance,
    required_scenario_count,
    validate_instance,
)
from stspgl.scenarios import (
    chance_feasible,
    evaluate_metrics,
    generate_instance,
    mean_scenario,
)


def test_routing_weights_on_d1(d1):
    # each request carries all demand of one scenario: weight (10/5 + 0)/2 = 1
    assert d1.routing_weight[(1, 3)] == pytest.approx(1.0)
    assert d1.routing_weight[(2, 4)] == pytest.approx(1.0)
    assert d1.design[1][3] * d1.routing_weight[(1, 3)] == pytest.approx(2.0)


def test_routing_weights_scale_inversely_with_theta(d1):
    lax = build_instance(
        compulsory=[0],
        requests=list(d1.requests),
        demand=[list(col) for col in d1.demand],
        theta=0.25,
        rho=d1.rho,
        alpha=d1.alpha,
        dist=[[abs(i - j) for j in range(5)] for i in range(5)],
    )
    assert lax.routing_weight[(1, 3)] == pytest.approx(2.0)


def test_routing_costs_reject_zero_theta(d1):
    zero = build_instance(
        compulsory=[0],
        requests=list(d1.requests),
        demand=[[10.0, 0.0], [0.0, 10.0]],
        theta=0.0,
        rho=0.5,
        alpha=0.25,
        dist=[[abs(i - j) for j in range(5)] for i in range(5)],
    )
    with pytest.raises(ParameterError, match="theta must be positive"):
        zero.routing_weight


def test_routing_weights_belong_to_their_own_instance():
    # the weights are read first, so a copy that inherited the cache would
    # show the old values
    inst = generate_instance(n=7, seed=3, n_requests=6, n_scenarios=4, theta=0.7, rho=0.3)
    weight = dict(inst.routing_weight)
    # theta/2 halves each divisor exactly, so each weight doubles exactly
    half = dataclasses.replace(inst, theta=inst.theta / 2)
    assert half.routing_weight == {hk: 2.0 * w for hk, w in weight.items()}
    det = mean_scenario(inst)
    total = sum(col[0] for col in det.demand)
    own = {hk: col[0] / (det.theta * total) for hk, col in zip(det.requests, det.demand)}
    assert det.routing_weight == own
    assert det.routing_weight != weight
    assert inst.routing_weight == weight


def test_required_scenario_count_basics():
    assert required_scenario_count(20, 0.05) == 19
    assert required_scenario_count(20, 0.0) == 20
    assert required_scenario_count(20, 1.0) == 0
    assert required_scenario_count(2, 0.5) == 1
    assert required_scenario_count(3, 0.5) == 2


def test_required_scenario_count_survives_float_noise():
    # (1 - 0.05) * 20 is 19.000000000000004 in binary floating point
    for n in range(1, 200):
        assert required_scenario_count(n, 0.05) == -((-19 * n) // 20)


def test_scenario_satisfaction_on_d1(d1):
    assert scenario_satisfied(d1, [(1, 3)], 0)
    assert not scenario_satisfied(d1, [(1, 3)], 1)
    assert satisfied_count(d1, [(1, 3)]) == 1
    assert chance_feasible(d1, [(1, 3)])
    assert chance_feasible(d1, [(2, 4)])
    assert not chance_feasible(d1, [])


def test_boundary_satisfaction_uses_tolerance(d1):
    det = mean_scenario(d1)
    # mean demand (5,5): one request serves exactly theta * total = 5.0
    assert det.demand == ((5.0,), (5.0,))
    assert scenario_satisfied(det, [(1, 3)], 0)
    assert chance_feasible(det, [(2, 4)])


def test_mean_scenario_keeps_everything_else(d1):
    det = mean_scenario(d1)
    assert det.n_scenarios == 1
    assert det.design == d1.design
    assert det.requests == d1.requests
    assert (det.theta, det.rho, det.alpha) == (d1.theta, d1.rho, d1.alpha)
    # every other field, on an instance that has coordinates
    inst = generate_instance(n=7, seed=3, n_requests=6, n_scenarios=4, theta=0.7, rho=0.3)
    assert inst.coords is not None
    det = mean_scenario(inst)
    assert det.n_scenarios == 1
    for f in dataclasses.fields(Instance):
        if f.name != "demand":
            assert getattr(det, f.name) == getattr(inst, f.name), f.name


def test_evaluate_metrics_on_d1(d1):
    row = evaluate_metrics(d1, served=[(1, 3)], design_cost=6.0, visited=[0, 1, 3])
    assert row.nodes == 5
    assert row.nbar == 3
    assert row.dbar == pytest.approx(0.5)
    assert row.rhobar == pytest.approx(0.5)
    assert row.infeasible is False
    full = evaluate_metrics(d1, served=list(d1.requests), design_cost=8.0, visited=range(5))
    assert full.dbar == 0.0
    assert full.rhobar == 0.0


def test_generate_instance_deterministic():
    a = generate_instance(n=6, seed=42)
    b = generate_instance(n=6, seed=42)
    assert a.design == b.design
    assert a.requests == b.requests
    assert a.demand == b.demand
    assert a.compulsory == b.compulsory
    assert generate_instance(n=6, seed=43).design != a.design or \
        generate_instance(n=6, seed=43).requests != a.requests


def test_generate_instance_always_valid():
    for seed in range(100):
        inst = generate_instance(n=6, seed=seed, n_requests=5, n_scenarios=3)
        assert validate_instance(inst) == []
        assert len(inst.compulsory) == 2  # ceil(0.2 * 6)
        assert len(inst.requests) == 5
        assert inst.n_scenarios == 3


def test_generate_instance_rejects_bad_sizes():
    with pytest.raises(ParameterError):
        generate_instance(n=2, seed=0)
    with pytest.raises(ParameterError):
        generate_instance(n=5, seed=0, n_requests=0)
    with pytest.raises(ParameterError, match="^need at least 1 scenario$"):
        generate_instance(n=5, seed=0, n_scenarios=0)


@pytest.mark.parametrize("name", ["theta", "rho", "alpha"])
@pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
def test_generate_instance_rejects_a_parameter_out_of_range(monkeypatch, name, value):
    # named in the error, and rejected before anything is drawn
    monkeypatch.setattr("random.Random", None)
    with pytest.raises(ParameterError, match=rf"^{name} must lie in \[0, 1\], not {value!r}$"):
        generate_instance(n=6, seed=0, **{name: value})
