"""Thin LP/MIP layer over scipy's HiGHS bindings.

Models address columns and rows by integer handles (their positions), store
their coefficients as (row, col, val) triplets, solve in one shot, and report
values and duals as plain lists indexed by those handles. Duals have a fixed
orientation convention: duals[c] is the derivative of the optimal objective
with respect to the right-hand side of constraint c as originally written.
With that convention the reduced cost of a column with objective coefficient
q and constraint coefficients a_c is q - sum_c duals[c] * a_c, independent of
each constraint's sense.

Lazy constraints are realized as one resolve loop, `resolve_with_cuts`
(solve, separate, add, solve again); no engine callbacks are required, so
anything with a plain solve entry point can back this module. It serves the
three cut-driven MIPs: the compact MIP and the TSP MIP, cut by subtour rows,
and the Benders master, cut by subtour rows and optimality cuts.

Every MIP solve proves optimality (`mip_rel_gap` 0). No setting below
changes the optimum that a solve proves; on ties, any of them may pick
another optimal solution, or for an LP another optimal vertex and so other
duals, which moves the column-generation path but not the optimum.

`solve_lp`, whose only caller is the restricted master, sends `presolve`
False. HiGHS's presolve takes ~300 of the ~2 100 rows and ~520 of the
~3 700 columns off a bp-n14 master, but every cold solve then pays for the
reduction and for the postsolve back to the full LP. Without it the 15
master LPs of a bp-n14 solve take 8 232 simplex iterations instead of
8 941, in 20–25 % less time.

`solve_mip` takes one HiGHS option set per kind of MIP:

- `NO_PRIMAL_HEURISTICS` switches off feasibility jump, RINS, RENS, root
  reduced-cost fixing, ZI rounding and shifting. They only search for good
  incumbents, so small IPs with a weak incumbent, such as the pricing IP and
  the Benders master, solve faster without them. The Benders master
  passes this set.
- `PRICING_IP`, the pricing IP's set, is `NO_PRIMAL_HEURISTICS` plus
  `mip_pool_soft_limit` 10 (HiGHS's default is 10 000): once the MIP's cut
  pool holds more than 10 rows, HiGHS ages its cuts out faster. On the 11
  pricing IPs of a bp-n14 solve the LP iterations fell from 7 427 to
  5 465 (5 134 to 3 791 in strong branching, 936 to 605 in separation) and
  the nodes from 73 to 57, in about 40 % less time. A cap of 1 was as
  fast, and one of 30 slower.
- `PSEUDO_COSTS_NO_HEURISTICS` is `NO_PRIMAL_HEURISTICS` plus pseudo-cost
  branching from the first node, with no strong-branching probes to make
  the costs reliable (`mip_pscost_minreliable` 0); the compact MIP passes
  it. On the mip-n14 benchmark instance with HiGHS's defaults, 13 978 of
  the 24 345 LP iterations were strong-branching probes, each a
  dual-simplex solve of a ~2 100 x 3 700 LP, for a tree of 5 nodes.
  Without the probes the solve took 11 076 iterations over 23 nodes,
  5 214 of them in the heuristics. Without the heuristics as well it takes
  5 466 over 26 nodes, about half the time: the tree closes the gap on its
  own.
- The TSP MIP passes no set.
"""

from __future__ import annotations

import math
import time
import warnings
from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .model import FEASIBLE, INFEASIBLE, OPTIMAL, TIME_LIMIT, UNBOUNDED

RC_EPS = 1e-6     # reduced-cost negativity threshold

# HiGHS option sets for `solve_mip(..., tuning=...)` (see the module docstring)
NO_PRIMAL_HEURISTICS = MappingProxyType({f"mip_heuristic_run_{name}": False for name in (
    "feasibility_jump", "rins", "rens", "root_reduced_cost", "zi_round", "shifting")})
PRICING_IP = MappingProxyType({**NO_PRIMAL_HEURISTICS, "mip_pool_soft_limit": 10})
PSEUDO_COSTS_NO_HEURISTICS = MappingProxyType({**NO_PRIMAL_HEURISTICS, "mip_pscost_minreliable": 0})


class LinearModel:
    """Mutable LP/MIP model; columns and rows are integer handles.

    Columns can be added after rows, with their entries in existing rows, so
    a column-generation master grows in place.
    """

    def __init__(self):
        self._obj: List[float] = []
        self._lb: List[float] = []
        self._ub: List[float] = []
        self._int: List[bool] = []
        # row bounds, lo <= row <= hi, as packed doubles: no float object per row
        self._lo = array("d")
        self._hi = array("d")
        self._rows: List[int] = []
        self._cols: List[int] = []
        self._vals: List[float] = []

    def add_var(self, lb: float = 0.0, ub: float = math.inf, obj: float = 0.0,
                integer: bool = False, rows: Optional[Dict[int, float]] = None) -> int:
        """New column with entries `rows` ({row: coeff}) in existing rows."""
        col = len(self._obj)
        if not (math.isfinite(obj) and (math.isfinite(lb) or lb == -math.inf)
                and (math.isfinite(ub) or ub == math.inf)):
            raise ValueError(f"non-finite data for column {col}")
        if rows:
            self._check(rows, len(self._lo), "row")
            self._rows.extend(rows)
            self._cols.extend([col] * len(rows))
            self._vals.extend(rows.values())
        self._obj.append(float(obj))
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._int.append(integer)
        return col

    def add_constr(self, coeffs: Dict[int, float], sense: str, rhs: float) -> int:
        """New row sum_col coeffs[col] * x[col] (sense) rhs."""
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        if not math.isfinite(rhs):
            raise ValueError("non-finite constraint data")
        self._check(coeffs, len(self._obj), "column")
        row = len(self._lo)
        self._lo.append(-math.inf if sense == "<=" else rhs)
        self._hi.append(math.inf if sense == ">=" else rhs)
        self._rows.extend([row] * len(coeffs))
        self._cols.extend(coeffs)
        self._vals.extend(coeffs.values())
        return row

    def set_ub(self, col: int, ub: float) -> bool:
        """Set a column's upper bound; True when that changed it."""
        changed = self._ub[col] != ub
        self._ub[col] = float(ub)
        return changed

    @staticmethod
    def _check(entries: Dict[int, float], count: int, kind: str) -> None:
        for handle, val in entries.items():
            if not 0 <= handle < count:
                raise ValueError(f"unknown {kind} {handle!r}")
            if not math.isfinite(val):
                raise ValueError("non-finite constraint data")

    def n_constrs(self) -> int:
        return len(self._lo)

    # --- matrix assembly -------------------------------------------------

    def _arrays(self):
        return (np.array(self._obj), np.array(self._lb), np.array(self._ub),
                np.array(self._int, dtype=float))

    def _matrix(self) -> Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """Single constraint matrix with row bounds (lo, hi).

        A stable sort groups the triplets by row, so each row lists its
        entries in the order they were added.
        """
        n_rows = len(self._lo)
        rows = np.array(self._rows, dtype=np.intp)
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        mat = sparse.csr_matrix((np.array(self._vals, dtype=float)[order],
                                 np.array(self._cols, dtype=np.intp)[order], indptr),
                                shape=(n_rows, len(self._obj)))
        return mat, np.array(self._lo), np.array(self._hi)


@dataclass
class SolveOutcome:
    status: str
    objective: Optional[float]
    values: Optional[List[float]]                  # indexed by column handle
    duals: Optional[List[float]] = None            # LP only, by row handle, original orientation
    dual_objective: Optional[float] = None         # LP only
    best_bound: Optional[float] = None             # MIP only
    cut_rounds: int = 0
    cuts_complete: bool = True

    @property
    def solved(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE) and self.values is not None


_HIGHS_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


def solve_lp(model: LinearModel, deadline: float = math.inf) -> SolveOutcome:
    """Solve the continuous relaxation; integer markings are ignored.

    Equality rows go to `A_eq`; `<=` rows and negated `>=` rows go to `A_ub`,
    each group in the model's row order. HiGHS gets the time left before
    `deadline`, a `time.monotonic()` instant, with a 0.01 s floor; once the
    deadline has passed, no LP is solved and the outcome is `TimeLimit`.
    """
    c, lb, ub, _ = model._arrays()
    mat, lo, hi = model._matrix()
    rhs = np.where(np.isfinite(hi), hi, lo)
    eq = lo == hi
    ineq = np.flatnonzero(~eq)
    ub_sign = np.where(np.isfinite(hi[ineq]), 1.0, -1.0)   # -1 marks a negated >= row
    a_ub = sparse.diags(ub_sign) @ mat[ineq]
    b_ub = ub_sign * rhs[ineq]
    a_eq = mat[eq] if eq.any() else None
    options = {"presolve": False}
    left = deadline - time.monotonic()
    if left <= 0:
        return SolveOutcome(status=TIME_LIMIT, objective=None, values=None)
    if left < math.inf:
        options["time_limit"] = max(0.01, left)
    res = linprog(
        c,
        A_ub=a_ub if ineq.size else None,
        b_ub=b_ub if ineq.size else None,
        A_eq=a_eq,
        b_eq=lo[eq] if eq.any() else None,
        bounds=np.column_stack((lb, ub)),
        method="highs",
        options=options,
    )
    status = _HIGHS_STATUS.get(res.status, INFEASIBLE)
    if status != OPTIMAL or res.x is None:
        return SolveOutcome(status=status, objective=None, values=None)
    marg = np.empty(len(lo))
    marg[eq] = res.eqlin.marginals
    marg[ineq] = res.ineqlin.marginals * ub_sign
    has_lb, has_ub = np.isfinite(lb), np.isfinite(ub)
    dual_obj = float(marg @ rhs) \
        + float(res.lower.marginals[has_lb] @ lb[has_lb]) \
        + float(res.upper.marginals[has_ub] @ ub[has_ub])
    return SolveOutcome(
        status=OPTIMAL,
        objective=float(res.fun),
        values=res.x.tolist(),
        duals=marg.tolist(),
        dual_objective=dual_obj,
    )


def solve_mip(model: LinearModel, deadline: float = math.inf,
              tuning: Mapping[str, object] = MappingProxyType({})) -> SolveOutcome:
    """Solve to proven optimality with the HiGHS options `tuning` added (one
    of the option sets above). A passed `deadline` solves nothing, as in
    `solve_lp`."""
    c, lb, ub, integrality = model._arrays()
    constraints = []
    if model.n_constrs():
        mat, lo, hi = model._matrix()
        constraints = [LinearConstraint(mat, lo, hi)]
    options: Dict[str, object] = {
        # engine default leaves a 1e-4 gap; force exactness
        "mip_rel_gap": 0.0,
        **tuning,
    }
    left = deadline - time.monotonic()
    if left <= 0:
        return SolveOutcome(status=TIME_LIMIT, objective=None, values=None)
    if left < math.inf:
        options["time_limit"] = max(0.01, left)
    with warnings.catch_warnings():
        # milp warns on options it does not list but still hands them to
        # HiGHS, which warns (OptimizeWarning) on a name it does not know
        warnings.filterwarnings("ignore", message="Unrecognized options",
                                category=RuntimeWarning)
        res = milp(
            c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lb, ub),
            options=options,
        )
    status = _HIGHS_STATUS.get(res.status, INFEASIBLE)
    if res.x is None:
        if status == OPTIMAL:
            status = INFEASIBLE
        return SolveOutcome(status=status, objective=None, values=None)
    bound = None
    if res.mip_dual_bound is not None and math.isfinite(res.mip_dual_bound):
        bound = float(res.mip_dual_bound)
    return SolveOutcome(
        status=status,
        objective=float(res.fun),
        values=res.x.tolist(),
        best_bound=bound,
    )


CutSource = Callable[[SolveOutcome], Iterable[Tuple[Dict[int, float], str, float]]]


def resolve_with_cuts(model: LinearModel, cut_source: CutSource, max_rounds: int = 50,
                      deadline: float = math.inf,
                      tuning: Mapping[str, object] = MappingProxyType({})) -> SolveOutcome:
    """Solve, separate violated cuts, add them, and solve again.

    `max_rounds` caps the re-solves, so at most `max_rounds + 1` MIPs run,
    each with `deadline` and `tuning` passed to `solve_mip`. Every
    solution is separated, the last one included. Cuts stay in the model
    across rounds (and after return, for reuse by the caller). When the
    round budget or the clock runs out before a separation round comes back
    empty, the outcome is flagged `cuts_complete=False`; a spent clock also
    sets `TimeLimit`, and before the first solve it makes no solve at all.
    """
    out = SolveOutcome(status=TIME_LIMIT, objective=None, values=None, cuts_complete=False)
    for round_no in range(max_rounds + 1):
        if time.monotonic() >= deadline:
            out.status = TIME_LIMIT
            out.cuts_complete = False
            return out
        out = solve_mip(model, deadline=deadline, tuning=tuning)
        out.cut_rounds = round_no
        if out.status == TIME_LIMIT:
            out.cuts_complete = False
        if not out.solved:
            return out
        cuts = list(cut_source(out))
        if not cuts:
            return out
        for coeffs, sense, rhs in cuts:
            model.add_constr(coeffs, sense, rhs)
    out.cuts_complete = False
    return out
