"""Thin LP/MIP layer over scipy's HiGHS bindings.

Models address columns and rows by integer handles (their positions), store
their coefficients as (row, col, val) triplets, solve in one shot, and report
values and duals as plain lists indexed by those handles. Duals have a fixed
orientation convention: duals[c] is the derivative of the optimal objective
with respect to the right-hand side of constraint c as originally written.
With that convention the reduced cost of a column with objective coefficient
q and constraint coefficients a_c is q - sum_c duals[c] * a_c, independent of
each constraint's sense.

Lazy constraints are realized as a resolve loop (solve, separate, add, solve
again); no engine callbacks are required, so anything with a plain solve
entry point can back this module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .model import FEASIBLE, INFEASIBLE, OPTIMAL, TIME_LIMIT, UNBOUNDED

RC_EPS = 1e-6     # reduced-cost negativity threshold


class LinearModel:
    """Mutable LP/MIP model; columns and rows are integer handles.

    Columns can be added after rows, with their entries in existing rows, so
    a column-generation master grows in place.
    """

    def __init__(self, maximize: bool = False):
        self.maximize = maximize
        self.obj_offset = 0.0
        self._obj: List[float] = []
        self._lb: List[float] = []
        self._ub: List[float] = []
        self._int: List[bool] = []
        self._sense: List[str] = []
        self._rhs: List[float] = []
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
            self._check(rows, len(self._sense), "row")
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
        row = len(self._sense)
        self._sense.append(sense)
        self._rhs.append(float(rhs))
        self._rows.extend([row] * len(coeffs))
        self._cols.extend(coeffs)
        self._vals.extend(coeffs.values())
        return row

    def set_ub(self, col: int, ub: float) -> None:
        self._ub[col] = float(ub)

    @staticmethod
    def _check(entries: Dict[int, float], count: int, kind: str) -> None:
        for handle, val in entries.items():
            if not 0 <= handle < count:
                raise ValueError(f"unknown {kind} {handle!r}")
            if not math.isfinite(val):
                raise ValueError("non-finite constraint data")

    def n_constrs(self) -> int:
        return len(self._sense)

    # --- matrix assembly -------------------------------------------------

    def _arrays(self):
        c = np.array(self._obj)
        if self.maximize:
            c = -c
        return c, np.array(self._lb), np.array(self._ub), np.array(self._int, dtype=float)

    def _matrix(self) -> Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """Single constraint matrix with row bounds (lo, hi).

        A stable sort groups the triplets by row, so each row lists its
        entries in the order they were added.
        """
        n_rows = len(self._sense)
        rows = np.array(self._rows, dtype=np.intp)
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        mat = sparse.csr_matrix((np.array(self._vals, dtype=float)[order],
                                 np.array(self._cols, dtype=np.intp)[order], indptr),
                                shape=(n_rows, len(self._obj)))
        sense = np.array(self._sense, dtype="U2")
        rhs = np.array(self._rhs, dtype=float)
        lo = np.where(sense == "<=", -np.inf, rhs)
        hi = np.where(sense == ">=", np.inf, rhs)
        return mat, lo, hi


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


_LP_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


def solve_lp(model: LinearModel, time_limit: Optional[float] = None) -> SolveOutcome:
    """Solve the continuous relaxation; integer markings are ignored.

    Equality rows go to `A_eq`; `<=` rows and negated `>=` rows go to `A_ub`,
    each group in the model's row order.
    """
    c, lb, ub, _ = model._arrays()
    mat, lo, hi = model._matrix()
    rhs = np.where(np.isfinite(hi), hi, lo)
    eq = lo == hi
    ineq = np.flatnonzero(~eq)
    ub_sign = np.where(np.isfinite(hi[ineq]), 1.0, -1.0)   # -1 marks a negated >= row
    a_ub = sparse.diags(ub_sign) @ mat[ineq]
    b_ub = ub_sign * rhs[ineq]
    options = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = max(0.01, float(time_limit))
    res = linprog(
        c,
        A_ub=a_ub if ineq.size else None,
        b_ub=b_ub if ineq.size else None,
        A_eq=mat[eq] if eq.any() else None,
        b_eq=lo[eq] if eq.any() else None,
        bounds=list(zip(lb, ub)),
        method="highs",
        options=options,
    )
    status = _LP_STATUS.get(res.status, INFEASIBLE)
    if status != OPTIMAL or res.x is None:
        return SolveOutcome(status=status, objective=None, values=None)
    sign = -1.0 if model.maximize else 1.0
    duals: Optional[List[float]] = None
    dual_obj: Optional[float] = None
    if not model.maximize:
        marg = np.empty(len(lo))
        marg[eq] = res.eqlin.marginals
        marg[ineq] = res.ineqlin.marginals * ub_sign
        duals = marg.tolist()
        has_lb, has_ub = np.isfinite(lb), np.isfinite(ub)
        dual_obj = float(marg @ rhs) \
            + float(res.lower.marginals[has_lb] @ lb[has_lb]) \
            + float(res.upper.marginals[has_ub] @ ub[has_ub]) \
            + model.obj_offset
    return SolveOutcome(
        status=OPTIMAL,
        objective=sign * float(res.fun) + model.obj_offset,
        values=res.x.tolist(),
        duals=duals,
        dual_objective=dual_obj,
    )


_MIP_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


def solve_mip(model: LinearModel, time_limit: Optional[float] = None) -> SolveOutcome:
    c, lb, ub, integrality = model._arrays()
    constraints = []
    if model.n_constrs():
        mat, lo, hi = model._matrix()
        constraints = [LinearConstraint(mat, lo, hi)]
    options: Dict[str, object] = {
        # engine default leaves a 1e-4 gap; force exactness
        "mip_rel_gap": 0.0,
    }
    if time_limit is not None:
        options["time_limit"] = max(0.01, float(time_limit))
    res = milp(
        c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options=options,
    )
    status = _MIP_STATUS.get(res.status, INFEASIBLE)
    sign = -1.0 if model.maximize else 1.0
    if res.x is None:
        if status == OPTIMAL:
            status = INFEASIBLE
        return SolveOutcome(status=status, objective=None, values=None)
    bound = None
    if res.mip_dual_bound is not None and math.isfinite(res.mip_dual_bound):
        bound = sign * float(res.mip_dual_bound) + model.obj_offset
    return SolveOutcome(
        status=OPTIMAL if status == OPTIMAL else status,
        objective=sign * float(res.fun) + model.obj_offset,
        values=res.x.tolist(),
        best_bound=bound,
    )


CutSource = Callable[[SolveOutcome], Iterable[Tuple[Dict[int, float], str, float]]]


def resolve_with_cuts(model: LinearModel, cut_source: CutSource, max_rounds: int = 50,
                      time_limit: Optional[float] = None) -> SolveOutcome:
    """Solve, separate violated cuts, add them, and solve again.

    Cuts stay in the model across rounds (and after return, for reuse by the
    caller). When the round budget runs out before a separation round comes
    back empty, the outcome is flagged `cuts_complete=False`.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit

    def remaining() -> Optional[float]:
        if deadline is None:
            return None
        return deadline - time.monotonic()

    out = solve_mip(model, time_limit=remaining())
    for round_no in range(max_rounds):
        if not out.solved:
            return out
        if out.status == TIME_LIMIT:
            out.cuts_complete = False
            return out
        cuts = list(cut_source(out))
        if not cuts:
            return out
        for coeffs, sense, rhs in cuts:
            model.add_constr(coeffs, sense, rhs)
        left = remaining()
        if left is not None and left <= 0:
            out.status = TIME_LIMIT
            out.cuts_complete = False
            return out
        out = solve_mip(model, time_limit=left)
        out.cut_rounds = round_no + 1
    out.cuts_complete = False
    return out
