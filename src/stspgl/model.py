"""Core data model for the stochastic TSP with generalized latency.

An instance couples a complete metric graph with a set of origin-destination
requests whose demand is scenario based. A solution is a Hamiltonian cycle on
a node subset together with one unit of flow per served request, routed on
the arcs induced by the tour edges. The objective mixes tour design cost and
demand-weighted routing cost through a tradeoff weight alpha.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Node = int
Edge = Tuple[int, int]      # unordered pair, stored as (min(i,j), max(i,j))
Arc = Tuple[int, int]       # ordered pair (i, j), i != j
Request = Tuple[int, int]   # (origin h, destination k)

TRIANGLE_EPS = 1e-9   # tolerance for metric violations on rounded distances
FLOW_EPS = 1e-6       # flow below this is treated as structurally zero

# result / outcome status labels shared across the solvers
OPTIMAL = "Optimal"
FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
TIME_LIMIT = "TimeLimit"
UNBOUNDED = "Unbounded"


class StructuralViolation(ValueError):
    """A solution breaks a structural contract (e.g. flow off the tour)."""


def edge(i: Node, j: Node) -> Edge:
    return (i, j) if i < j else (j, i)


def tour_sequence(edges: Iterable[Edge]) -> List[Node]:
    """Walk the cycle formed by `edges`, from its smallest node toward that
    node's smaller neighbour."""
    adj: Dict[Node, List[Node]] = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    start = min(adj)
    seq = [start, min(adj[start])]
    while True:
        prev, cur = seq[-2], seq[-1]
        nxt = [v for v in adj[cur] if v != prev]
        if not nxt or nxt[0] == start:
            return seq
        seq.append(nxt[0])


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
class ScenarioSet:
    """Equally likely demand scenarios, aligned with the instance requests.

    demand[s][r] is the demand of request index r in scenario s.
    """

    demand: Tuple[Tuple[float, ...], ...]

    @property
    def size(self) -> int:
        return len(self.demand)

    @property
    def probability(self) -> float:
        return 1.0 / len(self.demand)

    def total(self, s: int) -> float:
        return sum(self.demand[s])


@dataclass(frozen=True)
class Instance:
    n: int                                        # nodes are 0 .. n-1
    design: Tuple[Tuple[float, ...], ...]         # symmetric edge cost, > 0 off-diagonal
    travel: Tuple[Tuple[float, ...], ...]         # arc travel time
    compulsory: frozenset                         # nonempty subset of nodes
    requests: Tuple[Request, ...]                 # canonical lexicographic order
    scenarios: ScenarioSet
    alpha: float                                  # design/routing tradeoff in [0, 1]
    theta: float                                  # service level in [0, 1]
    rho: float                                    # infeasibility tolerance in [0, 1]
    rounding: str = "exact"                       # "euc2d" | "exact"
    coords: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "_ridx", {r: i for i, r in enumerate(self.requests)})

    @property
    def nodes(self) -> range:
        return range(self.n)

    def cbar(self, i: Node, j: Node) -> float:
        return self.design[i][j]

    def c(self, i: Node, j: Node) -> float:
        return self.travel[i][j]

    def request_index(self, hk: Request) -> int:
        return self._ridx[hk]

    def demand(self, s: int, hk: Request) -> float:
        return self.scenarios.demand[s][self._ridx[hk]]


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
    reqs = canonical_requests(requests)
    rows = tuple(
        tuple(float(demand[idx][s]) for idx in order)
        for s in range(len(demand[0]) if demand else 0)
    )
    frozen = tuple(tuple(row) for row in mat)
    return Instance(
        n=n,
        design=frozen,
        travel=frozen,
        compulsory=frozenset(int(v) for v in compulsory),
        requests=reqs,
        scenarios=ScenarioSet(demand=rows),
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
            {"h": h, "k": k, "demand": [inst.scenarios.demand[s][r] for s in range(inst.scenarios.size)]}
            for r, (h, k) in enumerate(inst.requests)
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


def load_instance(path) -> Instance:
    with open(path) as fh:
        doc = json.load(fh)
    requests = [(req["h"], req["k"]) for req in doc["requests"]]
    demand = [req["demand"] for req in doc["requests"]]
    kwargs = dict(
        compulsory=doc["compulsory"],
        requests=requests,
        demand=demand,
        theta=doc["theta"],
        rho=doc["rho"],
        alpha=doc["alpha"],
        rounding=doc.get("rounding", "exact"),
    )
    if "nodes" in doc:
        nodes = sorted(doc["nodes"], key=lambda rec: rec["id"])
        if [rec["id"] for rec in nodes] != list(range(len(nodes))):
            raise ValueError("node ids must be dense integers 0..n-1")
        return build_instance(coords=[(rec["x"], rec["y"]) for rec in nodes], **kwargs)
    return build_instance(dist=doc["dist"], **kwargs)


def read_tsplib(path) -> List[Tuple[float, float]]:
    """Read node coordinates from a TSPLIB file (EUC_2D only)."""
    coords: Dict[int, Tuple[float, float]] = {}
    in_section = False
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            upper = line.upper()
            if upper.startswith("EDGE_WEIGHT_TYPE"):
                if "EUC_2D" not in upper:
                    raise ValueError("only EUC_2D TSPLIB files are supported")
            if upper.startswith("NODE_COORD_SECTION"):
                in_section = True
                continue
            if upper.startswith("EOF"):
                break
            if in_section:
                parts = line.split()
                if len(parts) < 3:
                    continue
                coords[int(parts[0])] = (float(parts[1]), float(parts[2]))
    if not coords:
        raise ValueError("no NODE_COORD_SECTION found")
    ordered = [coords[key] for key in sorted(coords)]
    return ordered


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
    ns = inst.scenarios.size
    if ns == 0:
        report.append("no scenarios")
    for s in range(ns):
        if len(inst.scenarios.demand[s]) != len(inst.requests):
            report.append(f"scenario {s} demand length mismatch")
            return report
        if any(v < 0 for v in inst.scenarios.demand[s]):
            report.append(f"negative demand in scenario {s}")
        if inst.scenarios.total(s) <= 0:
            report.append(f"scenario {s} has zero total demand")
    for r, hk in enumerate(inst.requests):
        if all(inst.scenarios.demand[s][r] <= 0 for s in range(ns)):
            report.append(f"request {hk} has no positive demand in any scenario")
    for name, value in (("alpha", inst.alpha), ("theta", inst.theta), ("rho", inst.rho)):
        if not 0.0 <= value <= 1.0:
            report.append(f"{name} outside [0, 1]")
    return report


@dataclass
class TspGlSolution:
    """A tour over a node subset plus unit flows for the served requests."""

    tour_edges: frozenset                      # of Edge
    flows: Dict[Request, Dict[Arc, float]]     # per served request
    objective: float
    design_cost: float
    routing_cost: float
    served: Tuple[Request, ...]

    @property
    def visited(self) -> frozenset:
        return frozenset(v for e in self.tour_edges for v in e)

    def tour_sequence(self) -> List[Node]:
        """Cycle as a node list in canonical rotation and direction."""
        return tour_sequence(self.tour_edges)

    def structural_violations(self, inst: Instance) -> List[str]:
        report: List[str] = []
        degree: Dict[Node, int] = {}
        for i, j in self.tour_edges:
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        for v, d in degree.items():
            if d != 2:
                report.append(f"node {v} has tour degree {d}")
        for v in inst.compulsory:
            if v not in degree:
                report.append(f"compulsory node {v} not visited")
        # single connected cycle over the visited nodes
        if self.tour_edges:
            seen = {min(degree)}
            stack = [min(degree)]
            adj: Dict[Node, List[Node]] = {}
            for i, j in self.tour_edges:
                adj.setdefault(i, []).append(j)
                adj.setdefault(j, []).append(i)
            while stack:
                cur = stack.pop()
                for nb in adj[cur]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            if seen != set(degree):
                report.append("tour is not a single connected cycle")
        for hk, flow in self.flows.items():
            out_minus_in: Dict[Node, float] = {}
            for (i, j), val in flow.items():
                if val < -FLOW_EPS:
                    report.append(f"negative flow on arc ({i},{j}) for request {hk}")
                if val > FLOW_EPS and edge(i, j) not in self.tour_edges:
                    report.append(f"flow off the tour on arc ({i},{j}) for request {hk}")
                out_minus_in[i] = out_minus_in.get(i, 0.0) + val
                out_minus_in[j] = out_minus_in.get(j, 0.0) - val
            h, k = hk
            for v, bal in out_minus_in.items():
                want = 1.0 if v == h else (-1.0 if v == k else 0.0)
                if abs(bal - want) > 1e-6:
                    report.append(f"flow conservation broken at node {v} for request {hk}")
        return report


def objective(inst: Instance, sol: TspGlSolution, qtilde) -> Tuple[float, float, float]:
    """Evaluate (total, design, routing) for a solution.

    Raises StructuralViolation when positive flow uses an arc whose edge is
    not part of the tour.
    """
    design = sum(inst.cbar(i, j) for i, j in sol.tour_edges)
    routing = 0.0
    for hk, flow in sol.flows.items():
        for (i, j), val in flow.items():
            if val <= 0.0:
                continue
            if val > FLOW_EPS and edge(i, j) not in sol.tour_edges:
                raise StructuralViolation(f"flow on non-tour edge [{i},{j}] for request {hk}")
            routing += qtilde.cost(hk, i, j) * val
    total = (1.0 - inst.alpha) * design + inst.alpha * routing
    return total, design, routing


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
        with open(path, "w") as fh:
            fh.write("t_seconds,event,ub,lb,cover_size,nodes_visited\n")
            for ev in self.events:
                cells = [
                    f"{ev.t_seconds:.3f}",
                    ev.event,
                    "" if ev.ub is None or not math.isfinite(ev.ub) else repr(ev.ub),
                    "" if ev.lb is None or not math.isfinite(ev.lb) else repr(ev.lb),
                    "" if ev.cover_size is None else str(ev.cover_size),
                    "" if ev.nodes_visited is None else str(ev.nodes_visited),
                ]
                fh.write(",".join(cells) + "\n")


def gap_value(ub: Optional[float], lb: Optional[float]) -> Optional[float]:
    """Relative optimality gap (UB - LB) / UB, defined for finite UB > 0."""
    if ub is None or lb is None:
        return None
    if not (math.isfinite(ub) and math.isfinite(lb)) or ub <= 0:
        return None
    return max(0.0, (ub - lb) / ub)


@dataclass
class StspGlResult:
    status: str
    upper_bound: Optional[float]
    lower_bound: Optional[float]
    gap: Optional[float]
    incumbent: Optional[TspGlSolution]
    cover: Optional[object]                      # FeasibilityCover of the incumbent
    trace: SolveTrace = field(default_factory=SolveTrace)
    evaluated: List = field(default_factory=list)  # (cover, bounds, exact) audit rows
    metrics: Optional[Dict] = None               # service metrics of the incumbent

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
        if self.cover is not None:
            doc["cover"] = [list(hk) for hk in self.cover.requests]
        else:
            doc["cover"] = None
        if self.metrics is not None:
            doc["metrics"] = dict(self.metrics)
        if inst is not None:
            doc["instance"] = {
                "n": inst.n,
                "requests": len(inst.requests),
                "scenarios": inst.scenarios.size,
                "theta": inst.theta,
                "rho": inst.rho,
                "alpha": inst.alpha,
            }
        return doc

    def to_json(self, inst: Optional[Instance] = None) -> str:
        return json.dumps(self.to_json_dict(inst), sort_keys=True, indent=2) + "\n"


def _finite(value: Optional[float]) -> bool:
    return value is not None and math.isfinite(value)
