"""Pinned workloads of the solver benchmark.

Every workload runs to its natural end (proven optimality, or exhaustion for
the heuristic) under a time limit far above its solve time, so the work per
solve is fixed and only its speed varies. The instances are the ones the
roadmap pins, all generated with theta=0.8 and rho=0.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

# Far above every pinned solve (5-20 s), yet low enough that a run whose solve
# hits it still exits well inside the three-minute limit of one run.
TIME_LIMIT_S = 100.0
GAP = 1e-6
SOLVER_SEED = 0
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    method: str              # a method of stspgl.evalcli.run_method
    n: int
    instance_seed: int
    n_requests: int
    n_scenarios: int
    status: str              # the status every solve must end with
    reference: float         # pinned objective of the default instance seed
    why: str

    def generator_args(self, instance_seed: Optional[int] = None) -> Dict:
        return dict(n=self.n,
                    seed=self.instance_seed if instance_seed is None else instance_seed,
                    n_requests=self.n_requests, n_scenarios=self.n_scenarios,
                    theta=0.8, rho=0.2)


N14_OPTIMUM = 384.76949957319954

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("bp-n14", "bp", 14, 3, 20, 8, "Optimal", N14_OPTIMUM,
             "branch-and-price to proven optimum; most time in the dense RMP LP, "
             "then pricing and Benders"),
    Workload("mip-n14", "mip", 14, 3, 20, 8, "Optimal", N14_OPTIMUM,
             "compact MIP on the bp-n14 instance: one large milp, no LP; the "
             "bp-vs-mip denominator"),
    Workload("heuristic-n18", "heuristic", 18, 5, 24, 6, "Feasible", 495.67748982005344,
             "heuristic to exhaustion: Held-Karp, cover algebra and Benders, "
             "no LP; bypasses the RMP layer"),
)}
