"""Column generation over feasibility covers.

The restricted master is the LP relaxation of the cover reformulation: a
convex combination of cover columns chooses which requests to serve, while
edge and flow variables price the tour design and routing that the chosen
covers imply. Generalized subtour elimination rows on the edge variables
tighten the master without touching pricing. Pricing searches for a cover
with negative reduced cost by solving a small IP over request/node/scenario
indicators.

One `Master` owns the restricted master: its model, its chi columns and the
set Phi of covers branched to zero. Each change goes into the model at
once, a new column with `add` and a branched cover's zero bound with
`branch`, so the master is always the one a fresh `build_rmp` over the same
covers and Phi would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .covers import FeasibilityCover, minimal_feasibility_cover
from .model import OPTIMAL, TIME_LIMIT, Edge, Instance, Request
from .mpbackend import PRICING_IP, RC_EPS, LinearModel, SolveOutcome, solve_lp, solve_mip
from .tspgl import (
    add_degree_rows,
    add_edge_vars,
    add_routing,
    add_service_rows,
    gsec_row,
    separate_gsecs,
)


@dataclass
class DualPrices:
    """Duals of one optimal RMP solve, keyed the way pricing consumes them."""

    iota: Dict[int, float]        # degree-link rows, per node
    serve: Dict[Request, float]   # per request: flow row dual at h minus at k
    beta: float                   # convexity row


@dataclass
class Master:
    """The restricted master's model and row handles, one chi column per
    cover in the order they came, and the set Phi of branched covers, whose
    columns stay with upper bound 0 so the dual space is unchanged.
    `changed` says whether a column was added or a bound moved since the
    last `solve`."""

    model: LinearModel
    x: Dict[Edge, int]                          # edge -> design column
    convex_row: int
    link_rows: Dict[int, int]
    flow_rows: Dict[Request, Tuple[int, int]]   # request -> its flow rows at h and at k
    columns: List[FeasibilityCover] = field(default_factory=list)
    chi: Dict[Tuple[Request, ...], int] = field(default_factory=dict)   # cover key -> chi column
    branched: Set[Tuple[Request, ...]] = field(default_factory=set)
    gsecs: Set[Tuple[FrozenSet[int], int]] = field(default_factory=set)   # (S, i) rows added
    changed: bool = False

    def add(self, cover: FeasibilityCover) -> bool:
        """Append the cover's chi column, fixed to zero if the cover is in
        Phi; False when the master holds it already."""
        if cover.requests in self.chi:
            return False
        rows = {self.convex_row: 1.0}
        for i in sorted(cover.visited):
            rows[self.link_rows[i]] = -2.0
        for hk in cover.requests:
            row_h, row_k = self.flow_rows[hk]
            rows[row_h] = -1.0
            rows[row_k] = 1.0
        ub = 0.0 if cover.requests in self.branched else math.inf
        self.chi[cover.requests] = self.model.add_var(lb=0.0, ub=ub, rows=rows)
        self.columns.append(cover)
        self.changed = True
        return True

    def branch(self, requests: Tuple[Request, ...]) -> None:
        """Put a cover in Phi and fix its column, if there is one, to zero."""
        self.branched.add(requests)
        if requests in self.chi and self.model.set_ub(self.chi[requests], 0.0):
            self.changed = True

    def solve(self, deadline: float = math.inf) -> SolveOutcome:
        self.changed = False
        return solve_lp(self.model, deadline=deadline)


def build_rmp(inst: Instance, covers: List[FeasibilityCover]) -> Master:
    """Continuous restricted master over `covers`.

    chi variables carry no objective; cost lives on the edge and flow
    variables they unlock. The rows are laid down first and the covers then
    enter through `Master.add`, the same step that later grows the master.
    """
    if not covers:
        raise ValueError("the master needs at least one cover")
    model = LinearModel()
    x = add_edge_vars(model, inst.nodes, inst.design, scale=1.0 - inst.alpha)
    convex_row = model.add_constr({}, "==", 1.0)
    link_rows = add_degree_rows(model, x, inst.nodes, 0.0)
    flow_rows = {hk: add_routing(model, inst, x, hk) for hk in inst.requests}
    master = Master(model=model, x=x, convex_row=convex_row, link_rows=link_rows,
                    flow_rows=flow_rows)
    for cover in covers:
        master.add(cover)
    return master


def add_gsec_rows(inst: Instance, master: Master, values: List[float]) -> bool:
    """Separate GSECs at the master's edge values and add the new violated
    ones as rows; False when there is none.

    The rows hold only edge variables, so chi columns have no entry in them
    and pricing, reduced costs and the Lagrangian bound are unchanged.
    """
    xval = {e: values[col] for e, col in master.x.items()}
    cuts = [cut for cut in separate_gsecs(inst.nodes, xval, min(inst.compulsory))
            if cut not in master.gsecs]
    for side, i in cuts:
        master.model.add_constr(*gsec_row(master.x, inst.nodes, side, i))
        master.gsecs.add((side, i))
    return bool(cuts)


def extract_duals(master: Master, outcome: SolveOutcome) -> DualPrices:
    if outcome.duals is None:
        raise ValueError("dual prices require an optimal LP outcome")
    duals = outcome.duals
    iota = {i: duals[row] for i, row in master.link_rows.items()}
    serve = {hk: duals[row_h] - duals[row_k] for hk, (row_h, row_k) in master.flow_rows.items()}
    return DualPrices(iota=iota, serve=serve, beta=duals[master.convex_row])


def reduced_cost(cover: FeasibilityCover, duals: DualPrices) -> float:
    value = -duals.beta
    for i in sorted(cover.visited):
        value += 2.0 * duals.iota[i]
    for hk in cover.requests:
        value += duals.serve[hk]
    return value


@dataclass
class PricingResult:
    cover: Optional[FeasibilityCover]      # minimalized; None when nothing prices out
    objective: float                       # IP optimum minus beta (the true min reduced cost)
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
    stop = {i: model.add_var(lb=1.0 if i in inst.compulsory else 0.0, ub=1.0,
                             obj=2.0 * duals.iota[i], integer=True)
            for i in inst.nodes}
    serve = {hk: model.add_var(lb=0.0, ub=1.0, obj=duals.serve[hk], integer=True)
             for hk in inst.requests}

    for hk in inst.requests:
        h, k = hk
        model.add_constr({serve[hk]: 1.0, stop[h]: -1.0}, "<=", 0.0)
        model.add_constr({serve[hk]: 1.0, stop[k]: -1.0}, "<=", 0.0)
    # an optional stop is only open when some chosen request needs it, so the
    # objective minus beta equals the reduced cost of the chosen request set exactly
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

    out = solve_mip(model, deadline=deadline, tuning=PRICING_IP)
    if out.status == TIME_LIMIT:
        # an incumbent without proof of optimality cannot back a Lagrangian bound
        return PricingResult(None, -math.inf, status=TIME_LIMIT)
    if out.status != OPTIMAL:
        return PricingResult(None, math.inf, status=out.status)
    objective = out.objective - duals.beta
    if objective >= -RC_EPS:
        return PricingResult(None, objective)
    raw = tuple(sorted(hk for hk in inst.requests if out.values[serve[hk]] > 0.5))
    return PricingResult(
        cover=minimal_feasibility_cover(inst, raw),
        objective=objective,
        raw_requests=raw,
    )


CG_LOG_HEADER = "iter,rmp_obj,pricing_obj,lb,columns,phi"
