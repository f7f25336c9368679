"""Scenario handling: chance constraint, metrics, mean scenario, generator."""

from __future__ import annotations

import dataclasses
import math
import operator
import random
from typing import Iterable, List, Optional, Tuple

from .model import (Instance, MetricsRow, ParameterError, Request, build_instance,
                    validate_instance)


def served_demand(inst: Instance, served: Iterable[Request]) -> List[float]:
    """Demand served in each scenario, added request by request in the
    order given, as the builtin sum adds a per-scenario generator."""
    columns = [inst.demand_columns[hk] for hk in served]
    if not columns:
        return [0.0] * inst.n_scenarios
    return [sum(col) for col in zip(*columns)]


def _scenarios_met(inst: Instance, got: List[float]) -> int:
    return sum(map(operator.ge, got, inst.service_floors))


def chance_feasible(inst: Instance, served: Iterable[Request]) -> bool:
    return _scenarios_met(inst, served_demand(inst, served)) >= inst.required_scenarios


def mean_scenario(inst: Instance) -> Instance:
    """Collapse the scenario set to its mean, keeping everything else."""
    ns = inst.n_scenarios
    return dataclasses.replace(inst, demand=tuple((sum(col) / ns,) for col in inst.demand))


def evaluate_metrics(inst: Instance, served: Iterable[Request], design_cost: float,
                     visited: Iterable[int]) -> MetricsRow:
    """Score a solution's service quality against the instance scenarios.

    Works for solutions produced on a different scenario set (e.g. the mean
    scenario), which is the point: the scenarios of `inst` are the judge.
    """
    ns = inst.n_scenarios
    got = served_demand(inst, served)
    unmet = 0.0
    for total, served_s in zip(inst.scenario_totals, got):
        unmet += max(0.0, total - served_s) / total
    met = _scenarios_met(inst, got)
    return MetricsRow(
        nodes=inst.n,
        theta=inst.theta,
        rho=inst.rho,
        design_cost=design_cost,
        nbar=len(set(visited)),
        dbar=unmet / ns,
        rhobar=(ns - met) / ns,
        infeasible=met < inst.required_scenarios,
    )


def generate_instance(
    n: int,
    seed: int,
    n_requests: Optional[int] = None,
    n_scenarios: int = 5,
    theta: float = 0.95,
    rho: float = 0.05,
    alpha: float = 0.25,
    demand_presence: float = 0.8,
    demand_max: int = 10,
) -> Instance:
    """Random planar instance, deterministic in the seed.

    Nodes get distinct integer coordinates, distances are nearest-integer
    Euclidean and then repaired to their metric closure (rounding alone can
    break the triangle inequality by one unit).
    """
    if n < 3:
        raise ParameterError("need at least 3 nodes")
    if n_scenarios < 1:
        raise ParameterError("need at least 1 scenario")
    for name, value in (("theta", theta), ("rho", rho), ("alpha", alpha)):
        if not 0.0 <= value <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], not {value!r}")
    rng = random.Random(seed)
    side = max(100, 10 * n)
    coords: List[Tuple[int, int]] = []
    taken = set()
    while len(coords) < n:
        pt = (rng.randint(0, side), rng.randint(0, side))
        if pt in taken:
            continue
        taken.add(pt)
        coords.append(pt)

    max_requests = n * (n - 1)
    if n_requests is None:
        n_requests = min(max_requests, max(2, n))
    if not 1 <= n_requests <= max_requests:
        raise ParameterError("request count out of range")
    pairs = [(h, k) for h in range(n) for k in range(n) if h != k]
    requests = sorted(rng.sample(pairs, n_requests))

    demand = [[0.0] * n_scenarios for _ in range(n_requests)]
    for r in range(n_requests):
        for s in range(n_scenarios):
            if rng.random() < demand_presence:
                demand[r][s] = float(rng.randint(1, demand_max))
    for r in range(n_requests):
        if all(v <= 0 for v in demand[r]):
            demand[r][rng.randrange(n_scenarios)] = float(rng.randint(1, demand_max))
    for s in range(n_scenarios):
        if sum(demand[r][s] for r in range(n_requests)) <= 0:
            demand[rng.randrange(n_requests)][s] = float(rng.randint(1, demand_max))

    n_compulsory = math.ceil(0.2 * n)
    compulsory = sorted(rng.sample(range(n), n_compulsory))

    inst = build_instance(
        compulsory=compulsory,
        requests=requests,
        demand=demand,
        theta=theta,
        rho=rho,
        alpha=alpha,
        coords=coords,
        rounding="euc2d",
    )
    problems = validate_instance(inst)
    if problems:
        raise AssertionError(f"generator produced an invalid instance: {problems}")
    return inst


