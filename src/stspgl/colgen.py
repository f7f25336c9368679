"""Column generation over feasibility covers.

The restricted master is the LP relaxation of the cover reformulation: a
convex combination of cover columns chooses which requests to serve, while
edge and flow variables price the tour design and routing that the chosen
covers imply. Generalized subtour elimination rows on the edge variables
tighten the master without touching pricing. Pricing searches for a cover
with negative reduced cost by solving a small IP over request/node/scenario
indicators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .covers import FeasibilityCover, minimal_feasibility_cover
from .model import OPTIMAL, TIME_LIMIT, Edge, Instance, Request, csv_cell
from .mpbackend import NO_PRIMAL_HEURISTICS, RC_EPS, LinearModel, SolveOutcome, solve_mip
from .scenarios import RoutingCostTable
from .tspgl import (
    add_edge_vars,
    add_flow_vars,
    add_linking_rows,
    add_service_rows,
    degree_coeffs,
    flow_coeffs,
    gsec_row,
    separate_gsecs,
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


@dataclass
class RmpIndex:
    chi: Dict[Tuple[Request, ...], int]     # cover key -> chi column, in pool order
    convex_row: int
    link_rows: Dict[int, int]
    flow_rows: Dict[Tuple[Request, int], int]
    x: Dict[Edge, int]                      # edge -> design column
    gsecs: Set[Tuple[FrozenSet[int], int]] = field(default_factory=set)   # (S, i) rows added


def build_rmp(inst: Instance, pool: ColumnPool, qtilde: RoutingCostTable
              ) -> Tuple[LinearModel, RmpIndex]:
    """Continuous restricted master over the current column pool.

    chi variables carry no objective; cost lives on the edge and flow
    variables they unlock. The rows are laid down first and the pool's
    covers then enter through `extend_rmp`, the same step that later grows
    the master in place.
    """
    if not pool.columns:
        raise ValueError("column pool must contain at least one cover")
    model = LinearModel()
    x = add_edge_vars(model, inst.nodes, inst.design, scale=1.0 - inst.alpha)
    flows = {hk: add_flow_vars(model, hk, inst.nodes, qtilde, inst.alpha)
             for hk in inst.requests}
    index = RmpIndex(chi={}, convex_row=model.add_constr({}, "==", 1.0),
                     link_rows={}, flow_rows={}, x=x)
    for i in inst.nodes:
        index.link_rows[i] = model.add_constr(degree_coeffs(x, i, inst.nodes), "==", 0.0)
    for hk, f in flows.items():
        for i in inst.nodes:
            index.flow_rows[(hk, i)] = model.add_constr(flow_coeffs(f, i, inst.nodes),
                                                        "==", 0.0)
    for f in flows.values():
        add_linking_rows(model, x, f)
    extend_rmp(model, index, pool)
    return model, index


def extend_rmp(model: LinearModel, index: RmpIndex, pool: ColumnPool) -> bool:
    """Bring the master up to date with the pool; True when that added a
    column or changed a bound.

    Appends a chi column for every cover pooled since the last call and
    fixes the column of every branched cover to zero, so the master equals a
    fresh `build_rmp` over the same pool. Branched covers keep their column
    so the dual space stays unchanged.
    """
    new = pool.columns[len(index.chi):]
    for cover in new:
        rows = {index.convex_row: 1.0}
        for i in sorted(cover.visited):
            rows[index.link_rows[i]] = -2.0
        for hk in cover.requests:
            rows[index.flow_rows[(hk, hk[0])]] = -1.0
            rows[index.flow_rows[(hk, hk[1])]] = 1.0
        index.chi[cover.requests] = model.add_var(lb=0.0, rows=rows)
    changed = bool(new)
    for requests in pool.branched:
        if requests in index.chi and model.set_ub(index.chi[requests], 0.0):
            changed = True
    return changed


def add_gsec_rows(inst: Instance, model: LinearModel, index: RmpIndex,
                  values: List[float]) -> bool:
    """Separate GSECs at the master's edge values and add the new violated
    ones as rows; False when there is none.

    The rows hold only edge variables, so chi columns have no entry in them
    and pricing, reduced costs and the Lagrangian bound are unchanged.
    """
    xval = {e: values[col] for e, col in index.x.items()}
    cuts = [cut for cut in separate_gsecs(inst.nodes, xval, min(inst.compulsory))
            if cut not in index.gsecs]
    for side, i in cuts:
        model.add_constr(*gsec_row(index.x, inst.nodes, side, i))
        index.gsecs.add((side, i))
    return bool(cuts)


def extract_duals(index: RmpIndex, outcome: SolveOutcome) -> DualPrices:
    if outcome.duals is None:
        raise ValueError("dual prices require an optimal LP outcome")
    iota = {i: outcome.duals[row] for i, row in index.link_rows.items()}
    eps = {key: outcome.duals[row] for key, row in index.flow_rows.items()}
    return DualPrices(iota=iota, eps=eps, beta=outcome.duals[index.convex_row])


def reduced_cost(cover: FeasibilityCover, duals: DualPrices) -> float:
    value = -duals.beta
    for i in sorted(cover.visited):
        value += 2.0 * duals.iota[i]
    for hk in cover.requests:
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
    deadline: float = math.inf,
) -> PricingResult:
    """Minimum-reduced-cost cover as a small IP.

    `phi` carries branching exclusions. The raw optimum is minimalized
    afterwards. Reaching the `deadline` (a `time.monotonic()` instant)
    yields (None, -inf), which disables the Lagrangian bound for the round;
    an infeasible IP (everything excluded) yields (None, +inf).
    """
    model = LinearModel()
    model.obj_offset = -duals.beta
    stop = {i: model.add_var(lb=1.0 if i in inst.compulsory else 0.0, ub=1.0,
                             obj=2.0 * duals.iota[i], integer=True)
            for i in inst.nodes}
    serve = {hk: model.add_var(lb=0.0, ub=1.0,
                               obj=duals.eps_origin(hk) - duals.eps_dest(hk), integer=True)
             for hk in inst.requests}

    for hk in inst.requests:
        h, k = hk
        model.add_constr({serve[hk]: 1.0, stop[h]: -1.0}, "<=", 0.0)
        model.add_constr({serve[hk]: 1.0, stop[k]: -1.0}, "<=", 0.0)
    # an optional stop is only open when some chosen request needs it, so the
    # objective equals the reduced cost of the chosen request set exactly
    incident: Dict[int, List[Request]] = {i: [] for i in inst.nodes}
    for hk in inst.requests:
        incident[hk[0]].append(hk)
        incident[hk[1]].append(hk)
    for i in inst.nodes:
        if i in inst.compulsory:
            continue
        coeffs = {stop[i]: 1.0}
        for hk in incident[i]:
            coeffs[serve[hk]] = -1.0
        model.add_constr(coeffs, "<=", 0.0)
    add_service_rows(model, inst, serve)
    for excluded in phi:
        if not excluded:
            continue
        model.add_constr({serve[hk]: 1.0 for hk in excluded}, "<=", float(len(excluded) - 1))

    out = solve_mip(model, deadline=deadline, tuning=NO_PRIMAL_HEURISTICS)
    if out.status == TIME_LIMIT:
        # an incumbent without proof of optimality cannot back a Lagrangian bound
        return PricingResult(None, -math.inf, status=TIME_LIMIT)
    if out.status != OPTIMAL:
        return PricingResult(None, math.inf, status=out.status)
    objective = out.objective
    if objective >= -RC_EPS:
        return PricingResult(None, objective)
    raw = tuple(sorted(hk for hk in inst.requests if out.values[serve[hk]] > 0.5))
    return PricingResult(
        cover=minimal_feasibility_cover(inst, raw),
        objective=objective,
        raw_requests=raw,
    )


def cg_log_line(iteration: int, rmp_obj, pricing_obj, lb, columns: int, phi: int) -> str:
    return f"{iteration},{csv_cell(rmp_obj)},{csv_cell(pricing_obj)},{csv_cell(lb)},{columns},{phi}"


CG_LOG_HEADER = "iter,rmp_obj,pricing_obj,lb,columns,phi"
