"""Core data model for the stochastic TSP with generalized latency.

An instance couples a complete metric graph with a set of origin-destination
requests whose demand is scenario based. A solution is a Hamiltonian cycle on
a node subset together with the requests it serves, each routed along the
tour the cheaper way round. The objective mixes tour design cost and
demand-weighted routing cost through a tradeoff weight alpha.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Node = int
Edge = Tuple[int, int]      # unordered pair, stored as (min(i,j), max(i,j))
Arc = Tuple[int, int]       # ordered pair (i, j), i != j
Request = Tuple[int, int]   # (origin h, destination k)

TRIANGLE_EPS = 1e-9   # tolerance for metric violations on rounded distances
SAT_EPS = 1e-9        # absolute tolerance on the service-level inequality

# result / outcome status labels shared across the solvers
OPTIMAL = "Optimal"
FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
TIME_LIMIT = "TimeLimit"
UNBOUNDED = "Unbounded"


class ParameterError(ValueError):
    """A model parameter is outside its meaningful range."""


def edge(i: Node, j: Node) -> Edge:
    return (i, j) if i < j else (j, i)


def cycles(edges: Iterable[Edge]) -> List[List[Node]]:
    """Every cycle of a degree-2 edge set, ordered by (size, sorted nodes).

    Each cycle is walked from its smallest node toward that node's smaller
    neighbour. Raises ValueError when some node's degree is not 2.
    """
    adj: Dict[Node, List[Node]] = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    bad = sorted(v for v, nbrs in adj.items() if len(nbrs) != 2)
    if bad:
        raise ValueError(f"nodes {bad} do not have degree 2")
    found: List[List[Node]] = []
    left = set(adj)
    while left:
        start = min(left)
        seq = [start, min(adj[start])]
        while True:
            a, b = adj[seq[-1]]
            nxt = b if a == seq[-2] else a
            if nxt == start:
                break
            seq.append(nxt)
        found.append(seq)
        left.difference_update(seq)
    return sorted(found, key=lambda c: (len(c), sorted(c)))


def euc2d(a: Sequence[float], b: Sequence[float]) -> int:
    """Nearest-integer Euclidean distance (TSPLIB EUC_2D rounding)."""
    return int(math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) + 0.5)


def metric_closure(dist) -> Optional[List[List[float]]]:
    """All-pairs shortest paths if any triangle is violated, else None."""
    n = len(dist)
    mat = [list(row) for row in dist]
    changed = False
    for k in range(n):
        row_k = mat[k]
        for i in range(n):
            if i == k:
                continue
            dik = mat[i][k]
            row_i = mat[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
                    changed = True
    return mat if changed else None


@dataclass(frozen=True)
class Instance:
    n: int                                        # nodes are 0 .. n-1
    design: Tuple[Tuple[float, ...], ...]         # symmetric, > 0 off-diagonal; edge
                                                  # design cost and arc travel time
    compulsory: frozenset                         # nonempty subset of nodes
    requests: Tuple[Request, ...]                 # canonical lexicographic order
    demand: Tuple[Tuple[float, ...], ...]         # demand[r][s]: request r's demand in
                                                  # scenario s; equally likely scenarios
    alpha: float                                  # design/routing tradeoff in [0, 1]
    theta: float                                  # service level in [0, 1]
    rho: float                                    # infeasibility tolerance in [0, 1]
    rounding: str = "exact"                       # "euc2d" | "exact"
    coords: Optional[Tuple[Tuple[float, float], ...]] = None

    @property
    def nodes(self) -> range:
        return range(self.n)

    @property
    def n_scenarios(self) -> int:
        return len(self.demand[0]) if self.demand else 0

    # The chance constraint's data and the routing weights, computed once per
    # instance on first use, so that an instance with parameters out of range
    # still builds and `validate_instance` can report them.
    @functools.cached_property
    def demand_columns(self) -> Dict[Request, Tuple[float, ...]]:
        """Each request's demand, scenario by scenario."""
        return dict(zip(self.requests, self.demand))

    @functools.cached_property
    def scenario_totals(self) -> Tuple[float, ...]:
        """Each scenario's total demand, summed in request order."""
        return tuple(sum(col[s] for col in self.demand) for s in range(self.n_scenarios))

    @functools.cached_property
    def routing_weight(self) -> Dict[Request, float]:
        """Each request's routing weight: the mean over scenarios of its
        demand over theta times the scenario's total demand. Arc (i, j)
        costs the request design[i][j] times its weight."""
        if self.theta <= 0.0:
            raise ParameterError("theta must be positive to define routing costs")
        weight: Dict[Request, float] = {}
        for hk, col in zip(self.requests, self.demand):
            acc = 0.0
            for s, total in enumerate(self.scenario_totals):
                if total <= 0.0:
                    raise ParameterError(f"scenario {s} has zero total demand")
                acc += col[s] / (self.theta * total)
            weight[hk] = acc / self.n_scenarios
        return weight

    @functools.cached_property
    def service_floors(self) -> Tuple[float, ...]:
        """Per scenario, the served demand that meets the service level."""
        return tuple(self.theta * total - SAT_EPS for total in self.scenario_totals)

    @functools.cached_property
    def required_scenarios(self) -> int:
        return required_scenario_count(self.n_scenarios, self.rho)


def required_scenario_count(n_scenarios: int, rho: float) -> int:
    """Number of scenarios that must meet the service level.

    ceil((1-rho)*|S|) with a guard against float noise pushing an exact
    integer product up by one.
    """
    if n_scenarios < 0:
        raise ParameterError("negative scenario count")
    if not 0.0 <= rho <= 1.0:
        raise ParameterError("rho outside [0, 1]")
    return max(0, math.ceil((1.0 - rho) * n_scenarios - SAT_EPS))


def canonical_requests(requests: Iterable[Request]) -> Tuple[Request, ...]:
    return tuple(sorted((int(h), int(k)) for h, k in requests))


def build_instance(
    compulsory,
    requests,
    demand,
    theta: float,
    rho: float,
    alpha: float,
    coords=None,
    dist=None,
    rounding: str = "exact",
) -> Instance:
    """Assemble an Instance from coordinates or an explicit matrix.

    `demand` is given per request in the order of `requests` and is reordered
    to the canonical request order together with the request list.
    """
    if (coords is None) == (dist is None):
        raise ValueError("exactly one of coords/dist must be given")
    if rounding not in ("euc2d", "exact"):
        raise ValueError(f"unknown rounding {rounding!r}: use 'euc2d' or 'exact'")
    for idx, row in enumerate(demand):
        if len(row) != len(demand[0]):
            raise ValueError(f"request {tuple(requests[idx])} lists {len(row)} demand "
                             f"scenarios, the first request lists {len(demand[0])}")
    if coords is not None:
        n = len(coords)
        if rounding == "euc2d":
            # Nearest-integer rounding can break the triangle inequality by
            # one unit; the repair keeps the matrix metric and makes the
            # coords-only file roundtrip rebuild this exact matrix.
            mat = [[float(euc2d(coords[i], coords[j])) for j in range(n)] for i in range(n)]
            mat = metric_closure(mat) or mat
        else:
            mat = [
                [math.dist(coords[i], coords[j]) for j in range(n)]
                for i in range(n)
            ]
    else:
        n = len(dist)
        mat = [[float(v) for v in row] for row in dist]
    order = sorted(range(len(requests)), key=lambda idx: tuple(requests[idx]))
    return Instance(
        n=n,
        design=tuple(tuple(row) for row in mat),
        compulsory=frozenset(int(v) for v in compulsory),
        requests=canonical_requests(requests),
        demand=tuple(tuple(float(v) for v in demand[idx]) for idx in order),
        alpha=float(alpha),
        theta=float(theta),
        rho=float(rho),
        rounding=rounding,
        coords=tuple((float(x), float(y)) for x, y in coords) if coords is not None else None,
    )


def save_instance(inst: Instance, path) -> None:
    doc: Dict = {
        "compulsory": sorted(inst.compulsory),
        "requests": [
            {"h": h, "k": k, "demand": list(col)} for (h, k), col in zip(inst.requests, inst.demand)
        ],
        "theta": inst.theta,
        "rho": inst.rho,
        "alpha": inst.alpha,
        "rounding": inst.rounding,
    }
    if inst.coords is not None:
        doc["nodes"] = [{"id": i, "x": x, "y": y} for i, (x, y) in enumerate(inst.coords)]
    else:
        doc["dist"] = [list(row) for row in inst.design]
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _number(value) -> float:
    """A JSON number as a float; TypeError for a string, a boolean or null."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)


def _node_id(value) -> int:
    """A JSON number that is a whole node id; TypeError otherwise, 1.7 too."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(value)
    return value


def load_instance(path) -> Instance:
    """Read an instance file; a missing or mistyped key is a ValueError naming it."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("instance file must hold a JSON object")

    def read(key: str, convert):
        try:
            return convert(doc[key])
        except TypeError:
            raise ValueError(f"instance file's {key!r} has the wrong JSON type") from None

    try:
        kwargs = dict(
            compulsory=read("compulsory", lambda ids: [_node_id(v) for v in ids]),
            requests=read("requests", lambda reqs: [(_node_id(req["h"]), _node_id(req["k"]))
                                                    for req in reqs]),
            demand=read("requests", lambda reqs: [[_number(v) for v in req["demand"]]
                                                  for req in reqs]),
            theta=read("theta", _number),
            rho=read("rho", _number),
            alpha=read("alpha", _number),
            rounding=doc.get("rounding", "exact"),
        )
        if "nodes" in doc:
            nodes = read("nodes", lambda recs: sorted(
                (_node_id(rec["id"]), _number(rec["x"]), _number(rec["y"])) for rec in recs))
            if [i for i, _x, _y in nodes] != list(range(len(nodes))):
                raise ValueError("node ids must be dense integers 0..n-1")
            kwargs["coords"] = [(x, y) for _i, x, y in nodes]
        else:
            kwargs["dist"] = read("dist", lambda rows: [[_number(v) for v in row] for row in rows])
    except KeyError as exc:
        raise ValueError(f"instance file lacks the key {exc.args[0]!r}") from None
    return build_instance(**kwargs)


def validate_instance(inst: Instance) -> List[str]:
    """Report-style validation; an empty list means the instance is usable."""
    report: List[str] = []
    n = inst.n
    if n < 3:
        report.append("fewer than 3 nodes")
    if not inst.compulsory:
        report.append("empty compulsory set")
    for v in inst.compulsory:
        if not 0 <= v < n:
            report.append(f"compulsory node {v} out of range")
    if len(inst.design) != n or any(len(row) != n for row in inst.design):
        report.append("design matrix shape mismatch")
        return report
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if inst.design[i][j] != inst.design[j][i]:
                report.append(f"design cost asymmetric at [{i},{j}]")
            if inst.design[i][j] <= 0:
                report.append(f"nonpositive design cost at [{i},{j}]")
    # triangle inequality on the design metric, needed for subgraph restriction
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                if inst.design[i][j] > inst.design[i][k] + inst.design[k][j] + TRIANGLE_EPS:
                    report.append(
                        f"triangle inequality violated: d[{i},{j}] > d[{i},{k}] + d[{k},{j}]"
                    )
    seen = set()
    for h, k in inst.requests:
        if h == k:
            report.append(f"request ({h},{k}) has equal endpoints")
        if not (0 <= h < n and 0 <= k < n):
            report.append(f"request ({h},{k}) out of range")
        if (h, k) in seen:
            report.append(f"duplicate request ({h},{k})")
        seen.add((h, k))
    ns = inst.n_scenarios
    if ns == 0:
        report.append("no scenarios")
    if len(inst.demand) != len(inst.requests) or any(len(col) != ns for col in inst.demand):
        report.append("demand shape mismatch")
        return report
    for s, total in enumerate(inst.scenario_totals):
        if any(col[s] < 0 for col in inst.demand):
            report.append(f"negative demand in scenario {s}")
        if total <= 0:
            report.append(f"scenario {s} has zero total demand")
    for hk, col in zip(inst.requests, inst.demand):
        if all(v <= 0 for v in col):
            report.append(f"request {hk} has no positive demand in any scenario")
    for name, value in (("alpha", inst.alpha), ("theta", inst.theta), ("rho", inst.rho)):
        if not 0.0 <= value <= 1.0:
            report.append(f"{name} outside [0, 1]")
    return report


def check_instance(inst: Instance, routing: bool = True) -> None:
    """Raise a ValueError listing what `validate_instance` reports; then,
    with `routing`, read the routing weights, which raise a ParameterError
    when theta is 0, even for a search that reads no weight."""
    problems = validate_instance(inst)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    if routing:
        inst.routing_weight


@dataclass
class TspGlSolution:
    """A tour over a node subset plus the requests it serves, each routed
    along the tour the cheaper way round."""

    tour_edges: frozenset                      # of Edge
    objective: float
    design_cost: float
    routing_cost: float
    served: Tuple[Request, ...]

    @property
    def visited(self) -> frozenset:
        return frozenset(v for e in self.tour_edges for v in e)

    def tour_sequence(self) -> List[Node]:
        """Cycle as a node list in canonical rotation and direction."""
        tours = cycles(self.tour_edges)
        if len(tours) > 1:
            raise ValueError(f"tour edges split into {len(tours)} cycles")
        return tours[0]


@dataclass
class TraceEvent:
    t_seconds: float
    event: str
    ub: Optional[float]
    lb: Optional[float]
    cover_size: Optional[int]
    nodes_visited: Optional[int]


@dataclass
class SolveTrace:
    events: List[TraceEvent] = field(default_factory=list)

    def append(self, t_seconds, event, ub=None, lb=None, cover_size=None, nodes_visited=None):
        self.events.append(TraceEvent(t_seconds, event, ub, lb, cover_size, nodes_visited))

    def write_csv(self, path) -> None:
        write_lines(path, ["t_seconds,event,ub,lb,cover_size,nodes_visited"] + [
            csv_line([f"{ev.t_seconds:.3f}", ev.event, ev.ub, ev.lb, ev.cover_size,
                      ev.nodes_visited]) for ev in self.events])


def gap_value(ub: Optional[float], lb: Optional[float]) -> Optional[float]:
    """Relative optimality gap (UB - LB) / UB, defined for finite UB > 0."""
    if ub is None or lb is None:
        return None
    if not (math.isfinite(ub) and math.isfinite(lb)) or ub <= 0:
        return None
    return max(0.0, (ub - lb) / ub)


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


@dataclass
class StspGlResult:
    status: str
    upper_bound: Optional[float]
    lower_bound: Optional[float]
    gap: Optional[float]
    incumbent: Optional[TspGlSolution]
    trace: SolveTrace = field(default_factory=SolveTrace)
    evaluated: List = field(default_factory=list)  # (cover, bounds, exact) audit rows
    rounds: List = field(default_factory=list)     # (rmp_obj, pricing_obj, lb, columns, phi)
    metrics: Optional[MetricsRow] = None           # the incumbent judged on the caller's instance

    def to_json_dict(self, inst: Optional[Instance] = None) -> Dict:
        doc: Dict = {
            "status": self.status,
            "upper_bound": self.upper_bound if _finite(self.upper_bound) else None,
            "lower_bound": self.lower_bound if _finite(self.lower_bound) else None,
            "gap": self.gap if _finite(self.gap) else None,
        }
        if self.incumbent is not None:
            doc["tour"] = self.incumbent.tour_sequence()
            doc["served"] = [list(hk) for hk in self.incumbent.served]
            doc["design_cost"] = self.incumbent.design_cost
            doc["routing_cost"] = self.incumbent.routing_cost
            doc["objective"] = self.incumbent.objective
        else:
            doc["tour"] = None
            doc["served"] = None
        # the incumbent is scored on its own cover, which it serves whole
        doc["cover"] = doc["served"]
        if self.metrics is not None:
            doc["metrics"] = asdict(self.metrics)
        if inst is not None:
            doc["instance"] = {
                "n": inst.n,
                "requests": len(inst.requests),
                "scenarios": inst.n_scenarios,
                "theta": inst.theta,
                "rho": inst.rho,
                "alpha": inst.alpha,
            }
        return doc

    def to_json(self, inst: Optional[Instance] = None) -> str:
        return json.dumps(self.to_json_dict(inst), sort_keys=True, indent=2) + "\n"


def _finite(value: Optional[float]) -> bool:
    return value is not None and math.isfinite(value)


def csv_cell(value) -> str:
    """A number's CSV cell: empty when None or non-finite, else its repr."""
    return repr(value) if _finite(value) else ""


def csv_line(cells) -> str:
    """One CSV line: a string cell as it is, any other through `csv_cell`."""
    return ",".join(cell if isinstance(cell, str) else csv_cell(cell) for cell in cells)


def write_lines(path, lines) -> None:
    """Write each line to `path`, newline-terminated."""
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)
