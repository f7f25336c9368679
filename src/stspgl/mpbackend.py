"""Thin LP/MIP layer over scipy's HiGHS bindings.

Models are built by name, solved in one shot, and report duals with a fixed
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
    """Mutable LP/MIP model with named variables and constraints.

    Constraints are stored as they are added: column indices and values in
    one flat list each, with `_indptr` marking where each row starts.
    """

    def __init__(self, name: str = "model", maximize: bool = False):
        self.name = name
        self.maximize = maximize
        self.obj_offset = 0.0
        self._col: Dict[str, int] = {}
        self._obj: List[float] = []
        self._lb: List[float] = []
        self._ub: List[float] = []
        self._int: List[bool] = []
        self._row: Dict[str, int] = {}
        self._sense: List[str] = []
        self._rhs: List[float] = []
        self._indptr: List[int] = [0]
        self._cols: List[int] = []
        self._vals: List[float] = []

    def add_var(self, name: str, lb: float = 0.0, ub: float = math.inf,
                obj: float = 0.0, integer: bool = False) -> str:
        if name in self._col:
            raise ValueError(f"duplicate variable {name!r}")
        if not (math.isfinite(obj) and (math.isfinite(lb) or lb == -math.inf)
                and (math.isfinite(ub) or ub == math.inf)):
            raise ValueError(f"non-finite data for variable {name!r}")
        self._col[name] = len(self._obj)
        self._obj.append(float(obj))
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._int.append(integer)
        return name

    def add_constr(self, coeffs: Dict[str, float], sense: str, rhs: float,
                   name: Optional[str] = None) -> str:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        cols = []
        for var in coeffs:
            if var not in self._col:
                raise ValueError(f"constraint references unknown variable {var!r}")
            cols.append(self._col[var])
        if not all(math.isfinite(v) for v in coeffs.values()) or not math.isfinite(rhs):
            raise ValueError("non-finite constraint data")
        if name is None:
            name = f"c{len(self._sense)}"
        if name in self._row:
            raise ValueError(f"duplicate constraint {name!r}")
        self._row[name] = len(self._sense)
        self._sense.append(sense)
        self._rhs.append(float(rhs))
        self._cols.extend(cols)
        self._vals.extend(coeffs.values())
        self._indptr.append(len(self._cols))
        return name

    def n_constrs(self) -> int:
        return len(self._sense)

    # --- matrix assembly -------------------------------------------------

    def _arrays(self):
        c = np.array(self._obj)
        if self.maximize:
            c = -c
        return c, np.array(self._lb), np.array(self._ub), np.array(self._int, dtype=float)

    def _matrix(self) -> Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """Single constraint matrix with row bounds (lo, hi)."""
        mat = sparse.csr_matrix((self._vals, self._cols, self._indptr),
                                shape=(len(self._sense), len(self._obj)))
        sense = np.array(self._sense, dtype="U2")
        rhs = np.array(self._rhs, dtype=float)
        lo = np.where(sense == "<=", -np.inf, rhs)
        hi = np.where(sense == ">=", np.inf, rhs)
        return mat, lo, hi

    def write_lp(self, path) -> None:
        """CPLEX-LP style dump for debugging."""
        def term(coef, var):
            sign = "+" if coef >= 0 else "-"
            return f"{sign} {abs(coef):.12g} {var}"

        names = list(self._col)
        with open(path, "w") as fh:
            fh.write("Maximize\n" if self.maximize else "Minimize\n")
            parts = [term(obj, name) for name, obj in zip(names, self._obj) if obj != 0.0]
            fh.write(" obj: " + (" ".join(parts) if parts else "0 " + next(iter(names), "x")) + "\n")
            fh.write("Subject To\n")
            for r, cname in enumerate(self._row):
                span = range(self._indptr[r], self._indptr[r + 1])
                lhs = " ".join(term(self._vals[t], names[self._cols[t]]) for t in span)
                op = {"<=": "<=", ">=": ">=", "==": "="}[self._sense[r]]
                fh.write(f" {cname}: {lhs} {op} {self._rhs[r]:.12g}\n")
            fh.write("Bounds\n")
            for name, lb, ub in zip(names, self._lb, self._ub):
                lo = "-inf" if lb == -math.inf else f"{lb:.12g}"
                hi = "+inf" if ub == math.inf else f"{ub:.12g}"
                fh.write(f" {lo} <= {name} <= {hi}\n")
            ints = [name for name, integer in zip(names, self._int) if integer]
            if ints:
                fh.write("General\n " + " ".join(ints) + "\n")
            fh.write("End\n")

    def _values(self, x: np.ndarray) -> Dict[str, float]:
        return dict(zip(self._col, x.tolist()))


@dataclass
class SolveOutcome:
    status: str
    objective: Optional[float]
    values: Optional[Dict[str, float]]
    duals: Optional[Dict[str, float]] = None       # LP only, original orientation
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
    duals: Optional[Dict[str, float]] = None
    dual_obj: Optional[float] = None
    if not model.maximize:
        marg = np.empty(len(lo))
        marg[eq] = res.eqlin.marginals
        marg[ineq] = res.ineqlin.marginals * ub_sign
        duals = dict(zip(model._row, marg.tolist()))
        has_lb, has_ub = np.isfinite(lb), np.isfinite(ub)
        dual_obj = float(marg @ rhs) \
            + float(res.lower.marginals[has_lb] @ lb[has_lb]) \
            + float(res.upper.marginals[has_ub] @ ub[has_ub]) \
            + model.obj_offset
    return SolveOutcome(
        status=OPTIMAL,
        objective=sign * float(res.fun) + model.obj_offset,
        values=model._values(res.x),
        duals=duals,
        dual_objective=dual_obj,
    )


_MIP_STATUS = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


def solve_mip(model: LinearModel, time_limit: Optional[float] = None,
              gap_limit: Optional[float] = None) -> SolveOutcome:
    c, lb, ub, integrality = model._arrays()
    constraints = []
    if model.n_constrs():
        mat, lo, hi = model._matrix()
        constraints = [LinearConstraint(mat, lo, hi)]
    options: Dict[str, object] = {
        # engine default leaves a 1e-4 gap; force exactness unless asked otherwise
        "mip_rel_gap": float(gap_limit) if gap_limit is not None else 0.0,
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
        values=model._values(res.x),
        best_bound=bound,
    )


CutSource = Callable[[SolveOutcome], Iterable[Tuple[Dict[str, float], str, float]]]


def resolve_with_cuts(model: LinearModel, cut_source: CutSource, max_rounds: int = 50,
                      time_limit: Optional[float] = None,
                      gap_limit: Optional[float] = None) -> SolveOutcome:
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

    out = solve_mip(model, time_limit=remaining(), gap_limit=gap_limit)
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
        out = solve_mip(model, time_limit=left, gap_limit=gap_limit)
        out.cut_rounds = round_no + 1
    out.cuts_complete = False
    return out
