"""Feasibility-cover algebra: minimality, node covers, exploration, local search.

A feasibility cover is a request subset whose service keeps the chance
constraint satisfied. Covers drive everything downstream: each one induces a
node set to tour and a restricted routing problem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .model import Instance, Request
from .scenarios import chance_feasible


class CoverError(ValueError):
    """Contract violation in cover construction (input is not a cover)."""


@dataclass(eq=False)
class FeasibilityCover:
    requests: Tuple[Request, ...]                 # canonical lexicographic order
    node_incidence: Dict[int, int]                # l_Q(i) over all nodes
    request_incidence: Dict[Request, int]         # r_Q^hk over all requests
    bounds: Optional[object] = None               # BoundEstimate once scored
    evaluated: bool = False                       # exact TSP-GL value known

    def __eq__(self, other):
        return isinstance(other, FeasibilityCover) and self.requests == other.requests

    def __hash__(self):
        return hash(self.requests)

    @property
    def visited(self) -> frozenset:
        return frozenset(i for i, li in self.node_incidence.items() if li == 1)

    @property
    def size(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class NodeCover:
    nodes: frozenset


def _as_requests(obj) -> Tuple[Request, ...]:
    if isinstance(obj, FeasibilityCover):
        return obj.requests
    return tuple(sorted((int(h), int(k)) for h, k in obj))


def make_cover(inst: Instance, requests, check: bool = True) -> FeasibilityCover:
    """Build a cover with its node/request incidence vectors.

    Visited nodes are the compulsory set plus all endpoints of the cover.
    """
    reqs = _as_requests(requests)
    if check and not chance_feasible(inst, reqs):
        raise CoverError(f"request set {reqs} is not a feasibility cover")
    endpoints = set(inst.compulsory)
    for h, k in reqs:
        endpoints.add(h)
        endpoints.add(k)
    node_incidence = {i: (1 if i in endpoints else 0) for i in inst.nodes}
    in_cover = set(reqs)
    request_incidence = {hk: (1 if hk in in_cover else 0) for hk in inst.requests}
    return FeasibilityCover(
        requests=reqs,
        node_incidence=node_incidence,
        request_incidence=request_incidence,
    )


def minimal_feasibility_cover(inst: Instance, cover, rng: Optional[random.Random] = None) -> FeasibilityCover:
    """Shrink a cover until no single removal leaves it feasible.

    Removal candidates are tried in canonical lexicographic order, restarting
    after each successful removal; pass `rng` to randomize the order instead.
    """
    reqs = list(_as_requests(cover))
    if not chance_feasible(inst, reqs):
        raise CoverError("input to minimalization is not a feasibility cover")
    while True:
        order = list(reqs)
        if rng is not None:
            rng.shuffle(order)
        for r in order:
            trial = [x for x in reqs if x != r]
            if chance_feasible(inst, trial):
                reqs = trial
                break
        else:
            return make_cover(inst, reqs)


def is_minimal(inst: Instance, cover) -> bool:
    reqs = _as_requests(cover)
    if not chance_feasible(inst, reqs):
        return False
    for r in reqs:
        if chance_feasible(inst, [x for x in reqs if x != r]):
            return False
    return True


def induced_requests(inst: Instance, nodes: Iterable[int]) -> Tuple[Request, ...]:
    """Requests whose both endpoints lie inside the node set."""
    node_set = set(nodes)
    return tuple(hk for hk in inst.requests if hk[0] in node_set and hk[1] in node_set)


def random_minimal_node_cover(
    inst: Instance,
    n: int,
    seed: int,
    seen: Set[frozenset],
    attempts: int = 200,
) -> Optional[NodeCover]:
    """Sample a size-n node set containing the compulsory nodes, then shrink.

    A draw is accepted when its induced request set is a feasibility cover
    and the drawn set was not seen before; the drawn (pre-shrink) set is what
    gets registered in `seen`. Non-compulsory nodes are then removed in random
    order while the remainder still induces a cover. Returns None once the
    attempt budget is spent.
    """
    rng = random.Random(seed)
    comp = sorted(inst.compulsory)
    if n < len(comp) or n > inst.n:
        raise CoverError("node cover size out of range")
    free = sorted(set(inst.nodes) - inst.compulsory)
    for _ in range(attempts):
        extra = rng.sample(free, n - len(comp)) if n > len(comp) else []
        drawn = frozenset(comp) | frozenset(extra)
        if drawn in seen:
            continue
        if not chance_feasible(inst, induced_requests(inst, drawn)):
            continue
        seen.add(drawn)
        nodes = set(drawn)
        order = sorted(nodes - inst.compulsory)
        rng.shuffle(order)
        # removability only shrinks as nodes leave, so one pass reaches a fixpoint
        for v in order:
            if chance_feasible(inst, induced_requests(inst, nodes - {v})):
                nodes.discard(v)
        return NodeCover(nodes=frozenset(nodes))
    return None


def explore(
    inst: Instance,
    n: int,
    seed: int,
    seen: Set[frozenset],
    attempts: int = 200,
) -> Optional[FeasibilityCover]:
    """Random minimal node cover, then a minimal cover of its induced requests."""
    nc = random_minimal_node_cover(inst, n, seed, seen, attempts=attempts)
    if nc is None:
        return None
    rng = random.Random(seed + 1)
    induced = induced_requests(inst, nc.nodes)
    return minimal_feasibility_cover(inst, induced, rng=rng)


def local_search(inst: Instance, cover, seed: int) -> Optional[FeasibilityCover]:
    """Swap move: drop random requests, rebuild feasibility from the outside.

    Pops random elements until the remainder is infeasible, adds random
    requests never popped until feasible again, and falls back to re-adding
    popped ones when the outside pool runs dry. The repaired set is then
    minimalized. Returns None only if feasibility cannot be restored.
    """
    rng = random.Random(seed)
    q = list(_as_requests(cover))
    removed: List[Request] = []
    while q and chance_feasible(inst, q):
        idx = rng.randrange(len(q))
        removed.append(q.pop(idx))
    outside = sorted(set(inst.requests) - set(removed) - set(q))
    rng.shuffle(outside)
    while outside and not chance_feasible(inst, q):
        q.append(outside.pop())
    if not chance_feasible(inst, q):
        back = list(removed)
        rng.shuffle(back)
        while back and not chance_feasible(inst, q):
            q.append(back.pop())
    if not chance_feasible(inst, q):
        return None
    return minimal_feasibility_cover(inst, q, rng=rng)
