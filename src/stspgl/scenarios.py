"""Scenario handling: routing cost table, chance constraint, metrics, generator.

The routing cost of a request folds the scenario distribution into a single
deterministic weight, so every downstream subproblem works on one weighted
matrix instead of per-scenario copies.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .model import Instance, ParameterError, Request, ScenarioSet, build_instance, validate_instance


@dataclass(frozen=True)
class RoutingCostTable:
    """Deterministic per-arc routing costs, factorized as c_ij * weight[hk]."""

    travel: Tuple[Tuple[float, ...], ...]
    weight: Dict[Request, float]

    def cost(self, hk: Request, i: int, j: int) -> float:
        return self.travel[i][j] * self.weight[hk]


def deterministic_routing_costs(inst: Instance) -> RoutingCostTable:
    """Fold scenario demand into one routing weight per request.

    The weight of request (h,k) is the mean over scenarios of its demand
    share relative to the service-level fraction of total demand.
    """
    if inst.theta <= 0.0:
        raise ParameterError("theta must be positive to define routing costs")
    ns = inst.scenarios.size
    weight: Dict[Request, float] = {}
    for r, hk in enumerate(inst.requests):
        acc = 0.0
        for s in range(ns):
            total = inst.scenarios.total(s)
            if total <= 0.0:
                raise ParameterError(f"scenario {s} has zero total demand")
            acc += inst.scenarios.demand[s][r] / (inst.theta * total)
        weight[hk] = acc / ns
    return RoutingCostTable(travel=inst.design, weight=weight)


def served_demand(inst: Instance, served: Iterable[Request]) -> List[float]:
    """Demand served in each scenario, added request by request in the
    order given, as the builtin sum adds a per-scenario generator."""
    columns = [inst.demand_columns[hk] for hk in served]
    if not columns:
        return [0.0] * inst.scenarios.size
    return [sum(col) for col in zip(*columns)]


def _scenarios_met(inst: Instance, got: List[float]) -> int:
    return sum(map(operator.ge, got, inst.service_floors))


def chance_feasible(inst: Instance, served: Iterable[Request]) -> bool:
    return _scenarios_met(inst, served_demand(inst, served)) >= inst.required_scenarios


def mean_scenario(inst: Instance) -> Instance:
    """Collapse the scenario set to its mean, keeping everything else."""
    ns = inst.scenarios.size
    mean_row = tuple(
        sum(inst.scenarios.demand[s][r] for s in range(ns)) / ns
        for r in range(len(inst.requests))
    )
    return Instance(
        n=inst.n,
        design=inst.design,
        compulsory=inst.compulsory,
        requests=inst.requests,
        scenarios=ScenarioSet(demand=(mean_row,)),
        alpha=inst.alpha,
        theta=inst.theta,
        rho=inst.rho,
        rounding=inst.rounding,
        coords=inst.coords,
    )


@dataclass
class MetricsRow:
    nodes: int            # instance size
    theta: float
    rho: float
    design_cost: float
    nbar: int             # nodes visited by the tour
    dbar: float           # mean unserved demand fraction over scenarios
    rhobar: float         # fraction of scenarios missing the service level
    infeasible: bool      # chance constraint violated on these scenarios


def evaluate_metrics(inst: Instance, served: Iterable[Request], design_cost: float,
                     visited: Iterable[int]) -> MetricsRow:
    """Score a solution's service quality against the instance scenarios.

    Works for solutions produced on a different scenario set (e.g. the mean
    scenario), which is the point: the scenarios of `inst` are the judge.
    """
    ns = inst.scenarios.size
    got = served_demand(inst, served)
    unmet = 0.0
    for s in range(ns):
        total = inst.scenarios.total(s)
        unmet += max(0.0, total - got[s]) / total
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


