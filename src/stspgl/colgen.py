"""Column generation over feasibility covers.

The restricted master is the LP relaxation of the cover reformulation: a
convex combination of cover columns chooses which requests to serve, while
edge and flow variables price the tour design and routing that the chosen
covers imply. Pricing searches for a cover with negative reduced cost by
solving a small IP over request/node/scenario indicators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .covers import FeasibilityCover, make_cover, minimal_feasibility_cover
from .model import OPTIMAL, TIME_LIMIT, Instance, Request
from .mpbackend import RC_EPS, LinearModel, SolveOutcome, solve_mip
from .scenarios import RoutingCostTable, required_scenario_count
from .tspgl import (
    add_edge_vars,
    add_flow_vars,
    add_linking_rows,
    degree_coeffs,
    flow_coeffs,
    supply,
)


@dataclass
class DualPrices:
    """Duals of one optimal RMP solve, keyed the way pricing consumes them."""

    iota: Dict[int, float]                      # degree-link rows, per node
    eps: Dict[Tuple[Request, int], float]       # flow rows, per request and node
    beta: float                                 # convexity row

    def eps_origin(self, hk: Request) -> float:
        return self.eps[(hk, hk[0])]

    def eps_dest(self, hk: Request) -> float:
        return self.eps[(hk, hk[1])]


@dataclass
class ColumnPool:
    """Cover columns plus the set Phi of covers branched to zero."""

    columns: List[FeasibilityCover] = field(default_factory=list)
    branched: Set[Tuple[Request, ...]] = field(default_factory=set)
    _keys: Set[Tuple[Request, ...]] = field(default_factory=set)

    def add(self, cover: FeasibilityCover) -> bool:
        if cover.requests in self._keys:
            return False
        self._keys.add(cover.requests)
        self.columns.append(cover)
        return True

    def has(self, requests: Tuple[Request, ...]) -> bool:
        return tuple(requests) in self._keys


@dataclass
class RmpIndex:
    chi: Dict[Tuple[Request, ...], str]     # cover key -> chi variable name
    convex_row: str
    link_rows: Dict[int, str]
    flow_rows: Dict[Tuple[Request, int], str]


def build_rmp(inst: Instance, pool: ColumnPool, qtilde: RoutingCostTable
              ) -> Tuple[LinearModel, RmpIndex]:
    """Continuous restricted master over the current column pool.

    chi variables carry no objective; cost lives on the edge and flow
    variables they unlock. Branched covers keep their column with an upper
    bound of zero so the dual space stays unchanged.
    """
    if not pool.columns:
        raise ValueError("column pool must contain at least one cover")
    model = LinearModel("rmp")
    x = add_edge_vars(model, inst.nodes, inst.design, scale=1.0 - inst.alpha)
    flows = {hk: add_flow_vars(model, hk, inst.nodes, qtilde, inst.alpha)
             for hk in inst.requests}
    chi: Dict[Tuple[Request, ...], str] = {}
    for idx, cover in enumerate(pool.columns):
        ub = 0.0 if cover.requests in pool.branched else math.inf
        chi[cover.requests] = model.add_var(f"chi_{idx}", lb=0.0, ub=ub)

    convex_row = model.add_constr(
        {name: 1.0 for name in chi.values()}, "==", 1.0, name="convex"
    )
    link_rows: Dict[int, str] = {}
    for i in inst.nodes:
        coeffs = degree_coeffs(x, i, inst.nodes)
        for cover in pool.columns:
            li = cover.node_incidence[i]
            if li:
                coeffs[chi[cover.requests]] = -2.0 * li
        link_rows[i] = model.add_constr(coeffs, "==", 0.0, name=f"link_{i}")
    flow_rows: Dict[Tuple[Request, int], str] = {}
    for hk, f in flows.items():
        h, k = hk
        for i in inst.nodes:
            coeffs = flow_coeffs(f, i, inst.nodes)
            sign = supply(hk, i)
            if sign:
                for cover in pool.columns:
                    if cover.request_incidence[hk]:
                        coeffs[chi[cover.requests]] = -sign
            flow_rows[(hk, i)] = model.add_constr(
                coeffs, "==", 0.0, name=f"flow_{h}_{k}_{i}"
            )
    for f in flows.values():
        add_linking_rows(model, x, f)
    return model, RmpIndex(chi=chi, convex_row=convex_row, link_rows=link_rows,
                           flow_rows=flow_rows)


def extract_duals(inst: Instance, index: RmpIndex, outcome: SolveOutcome) -> DualPrices:
    if outcome.duals is None:
        raise ValueError("dual prices require an optimal LP outcome")
    iota = {i: outcome.duals[row] for i, row in index.link_rows.items()}
    eps = {key: outcome.duals[row] for key, row in index.flow_rows.items()}
    return DualPrices(iota=iota, eps=eps, beta=outcome.duals[index.convex_row])


def reduced_cost(cover: FeasibilityCover, duals: DualPrices) -> float:
    value = -duals.beta
    for i, li in cover.node_incidence.items():
        if li:
            value += 2.0 * duals.iota[i]
    for hk, r in cover.request_incidence.items():
        if r:
            value += duals.eps_origin(hk) - duals.eps_dest(hk)
    return value


@dataclass
class PricingResult:
    cover: Optional[FeasibilityCover]      # minimalized; None when nothing prices out
    objective: float                       # raw IP optimum (the true min reduced cost)
    raw_requests: Optional[Tuple[Request, ...]] = None
    status: str = OPTIMAL


def solve_pricing(
    inst: Instance,
    duals: DualPrices,
    phi: Iterable[Tuple[Request, ...]] = (),
    time_limit: Optional[float] = None,
    psi: Iterable[Tuple[Request, ...]] = (),
    minimalize: bool = True,
) -> PricingResult:
    """Minimum-reduced-cost cover as a small IP.

    `phi` carries branching exclusions, `psi` optional minimality exclusions
    (off by default; post-processing with the minimalization routine does the
    same job without them). Time limit yields (None, -inf) which disables the
    Lagrangian bound for the round; an infeasible IP (everything excluded)
    yields (None, +inf).
    """
    model = LinearModel("pricing")
    model.obj_offset = -duals.beta
    for i in inst.nodes:
        lb = 1.0 if i in inst.compulsory else 0.0
        model.add_var(f"l_{i}", lb=lb, ub=1.0, obj=2.0 * duals.iota[i], integer=True)
    for hk in inst.requests:
        h, k = hk
        model.add_var(f"r_{h}_{k}", lb=0.0, ub=1.0,
                      obj=duals.eps_origin(hk) - duals.eps_dest(hk), integer=True)
    for s in range(inst.scenarios.size):
        model.add_var(f"g_{s}", lb=0.0, ub=1.0, obj=0.0, integer=True)

    for hk in inst.requests:
        h, k = hk
        model.add_constr({f"r_{h}_{k}": 1.0, f"l_{h}": -1.0}, "<=", 0.0)
        model.add_constr({f"r_{h}_{k}": 1.0, f"l_{k}": -1.0}, "<=", 0.0)
    # an optional stop is only open when some chosen request needs it, so the
    # objective equals the reduced cost of the chosen request set exactly
    incident: Dict[int, List[Request]] = {i: [] for i in inst.nodes}
    for hk in inst.requests:
        incident[hk[0]].append(hk)
        incident[hk[1]].append(hk)
    for i in inst.nodes:
        if i in inst.compulsory:
            continue
        coeffs = {f"l_{i}": 1.0}
        for hk in incident[i]:
            coeffs[f"r_{hk[0]}_{hk[1]}"] = coeffs.get(f"r_{hk[0]}_{hk[1]}", 0.0) - 1.0
        model.add_constr(coeffs, "<=", 0.0)
    for s in range(inst.scenarios.size):
        total = inst.scenarios.total(s)
        coeffs = {
            f"r_{h}_{k}": inst.scenarios.demand[s][r]
            for r, (h, k) in enumerate(inst.requests)
            if inst.scenarios.demand[s][r]
        }
        coeffs[f"g_{s}"] = -inst.theta * total
        model.add_constr(coeffs, ">=", 0.0)
    need = required_scenario_count(inst.scenarios.size, inst.rho)
    model.add_constr(
        {f"g_{s}": 1.0 for s in range(inst.scenarios.size)}, ">=", float(need)
    )
    for excluded in list(phi) + list(psi):
        if not excluded:
            continue
        coeffs = {f"r_{h}_{k}": 1.0 for h, k in excluded}
        model.add_constr(coeffs, "<=", float(len(excluded) - 1))

    out = solve_mip(model, time_limit=time_limit)
    if out.status == TIME_LIMIT and not out.solved:
        return PricingResult(None, -math.inf, status=TIME_LIMIT)
    if out.status == TIME_LIMIT:
        # an incumbent without proof of optimality cannot back a Lagrangian bound
        return PricingResult(None, -math.inf, status=TIME_LIMIT)
    if out.status != OPTIMAL:
        return PricingResult(None, math.inf, status=out.status)
    objective = out.objective
    if objective >= -RC_EPS:
        return PricingResult(None, objective)
    raw = tuple(
        sorted(hk for hk in inst.requests if out.values[f"r_{hk[0]}_{hk[1]}"] > 0.5)
    )
    cover_requests = raw
    if minimalize:
        cover_requests = minimal_feasibility_cover(inst, raw).requests
    return PricingResult(
        cover=make_cover(inst, cover_requests),
        objective=objective,
        raw_requests=raw,
    )


def lagrangian_lower_bound(rmp_obj: float, pricing_obj: float) -> float:
    """Master value plus the minimum reduced cost (convexity multiplier 1)."""
    return rmp_obj + pricing_obj


def add_branching_cut(pool: ColumnPool, requests: Tuple[Request, ...]) -> None:
    """Fix the cover's column to zero and exclude it from future pricing."""
    pool.branched.add(tuple(requests))


def cg_log_line(iteration: int, rmp_obj, pricing_obj, lb, columns: int, phi: int) -> str:
    def fmt(v):
        if v is None or (isinstance(v, float) and not math.isfinite(v)):
            return ""
        return repr(float(v))

    return f"{iteration},{fmt(rmp_obj)},{fmt(pricing_obj)},{fmt(lb)},{columns},{phi}"


CG_LOG_HEADER = "iter,rmp_obj,pricing_obj,lb,columns,phi"
