"""Layer tracing of stspgl from outside the package.

The tracer swaps each layer's public function for a timing wrapper in every
stspgl module namespace that binds it (the defining module and each
`from .x import y` copy), so no solver source carries a hook. Every wrapped
call is a span with a parent: the innermost wrapped call open when it
started. A span's self time is its duration minus the time of its direct
child spans. Spans are aggregated per layer while they close; the package is
restored when tracing ends.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple


@dataclass
class Span:
    """One open wrapped call."""
    layer: str
    child_s: float = 0.0                                # time in direct child spans
    children: Set[str] = field(default_factory=set)     # layers of direct child spans
    seconds: float = 0.0                                # duration, set on close


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    extra: Counter = field(default_factory=Counter)     # per-layer counters
    parents: Counter = field(default_factory=Counter)   # calls per parent span

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _lp_exit(stat, span, args, kwargs, res):
    rows = 0
    for key, pos in (("A_ub", 1), ("A_eq", 3)):
        mat = _arg(args, kwargs, pos, key)
        if mat is not None:
            rows += mat.shape[0]
    stat.extra["rows"] += rows
    stat.extra["cols"] += len(_arg(args, kwargs, 0, "c"))
    stat.extra["iterations"] += int(res.nit or 0)


def _mip_exit(stat, span, args, kwargs, res):
    stat.extra["nodes"] += int(res.mip_node_count or 0)


def _cuts_exit(stat, span, args, kwargs, out):
    stat.extra["rounds"] += out.cut_rounds


def _tsp_exit(stat, span, args, kwargs, out):
    # The MIP path runs the subtour resolve loop; Held-Karp and the closed
    # forms for up to three nodes do not.
    path = "mip" if "mpbackend.resolve_with_cuts" in span.children else "hk"
    stat.extra[path + "_calls"] += 1
    stat.extra[path + "_s"] += span.seconds


def _benders_exit(stat, span, args, kwargs, out):
    stat.extra["iterations"] += out.iterations
    stat.extra["aborted"] += out.status == "Aborted"


def _explore_exit(stat, span, args, kwargs, cover):
    stat.extra["misses"] += cover is None


# (layer, defining module, function, hook run on a normal return)
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("highs.lp", "scipy.optimize", "linprog", _lp_exit),
    ("highs.mip", "scipy.optimize", "milp", _mip_exit),
    ("mpbackend.solve_lp", "stspgl.mpbackend", "solve_lp", None),
    ("mpbackend.solve_mip", "stspgl.mpbackend", "solve_mip", None),
    ("mpbackend.resolve_with_cuts", "stspgl.mpbackend", "resolve_with_cuts", _cuts_exit),
    ("colgen.build_rmp", "stspgl.colgen", "build_rmp", None),
    ("colgen.solve_pricing", "stspgl.colgen", "solve_pricing", None),
    ("tspgl.cover_bounds", "stspgl.tspgl", "cover_bounds", None),
    ("tspgl.symmetric_tsp", "stspgl.tspgl", "symmetric_tsp", _tsp_exit),
    ("tspgl.benders_solve_tspgl", "stspgl.tspgl", "benders_solve_tspgl", _benders_exit),
    ("tspgl.dual_subproblem", "stspgl.tspgl", "dual_subproblem", None),
    ("tspgl.primal_subproblem", "stspgl.tspgl", "primal_subproblem", None),
    ("covers.explore", "stspgl.covers", "explore", _explore_exit),
    ("covers.local_search", "stspgl.covers", "local_search", None),
    ("covers.minimal_feasibility_cover", "stspgl.covers", "minimal_feasibility_cover", None),
    ("scenarios.chance_feasible", "stspgl.scenarios", "chance_feasible", None),
)
ROOT = "orchestrate"


class Tracer:
    def __init__(self):
        self.stats: Dict[str, LayerStat] = {}
        self._stack: List[Span] = []      # open spans, innermost last
        self._installed: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}

    def _open(self, layer: str) -> Span:
        parent = self._stack[-1].layer if self._stack else None
        self.stat(layer).parents[parent] += 1
        span = Span(layer)
        self._stack.append(span)
        return span

    def _close(self, span: Span, dt: float) -> LayerStat:
        self._stack.pop()
        span.seconds = dt
        if self._stack:
            self._stack[-1].child_s += dt
            self._stack[-1].children.add(span.layer)
        stat = self.stat(span.layer)
        stat.calls += 1
        stat.total_s += dt
        stat.child_s += span.child_s
        return stat

    def stat(self, layer: str) -> LayerStat:
        if layer not in self.stats:
            self.stats[layer] = LayerStat()
        return self.stats[layer]

    def _wrap(self, layer: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = self._close(span, time.perf_counter() - t0)
            if hook is not None:
                hook(stat, span, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every layer in every loaded stspgl module that binds it.

        Raises LookupError when a layer's function is gone or no stspgl
        module binds it, so a refactor cannot silently drop a layer.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "stspgl" or name.startswith("stspgl.")]
        try:
            for layer, home, attr, hook in LAYERS:
                original = getattr(importlib.import_module(home), attr, None)
                if original is None:
                    raise LookupError(f"layer {layer}: {home}.{attr} does not exist")
                wrapper = self._wrap(layer, original, hook)
                bound = 0
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)
                            self._installed.append((mod, name, original))
                            bound += 1
                if not bound:
                    raise LookupError(f"layer {layer}: no stspgl module binds {attr}")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed = []


@contextmanager
def traced(tracer: Tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


# --- per-layer metrics --------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, result, cpu_s: float, minflt: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced solve, as name -> (value, unit).

    `result` is the solve's StspGlResult; its trace events give the search
    counts. Units "count" mark values that must repeat exactly across runs.
    """
    st = tracer.stat
    events = Counter(ev.event for ev in result.trace.events)
    incumbents = [ev.t_seconds for ev in result.trace.events if ev.event == "incumbent"]
    lp, mip = st("highs.lp"), st("highs.mip")
    cuts, rmp, pricing = st("mpbackend.resolve_with_cuts"), st("colgen.build_rmp"), st("colgen.solve_pricing")
    bounds, tsp, benders = st("tspgl.cover_bounds"), st("tspgl.symmetric_tsp"), st("tspgl.benders_solve_tspgl")
    dual, primal = st("tspgl.dual_subproblem"), st("tspgl.primal_subproblem")
    explore, local, minimal = st("covers.explore"), st("covers.local_search"), st("covers.minimal_feasibility_cover")
    chance = st("scenarios.chance_feasible")
    count, sec, ratio = "count", "s", "ratio"
    return {
        "highs.lp.calls": (lp.calls, count),
        "highs.lp.s": (lp.total_s, sec),
        "highs.lp.iterations": (lp.extra["iterations"], count),
        "highs.lp.rows": (lp.extra["rows"], count),
        "highs.lp.cols": (lp.extra["cols"], count),
        "highs.mip.calls": (mip.calls, count),
        "highs.mip.s": (mip.total_s, sec),
        "highs.mip.nodes": (mip.extra["nodes"], count),
        "mpbackend.solve_lp.self_s": (st("mpbackend.solve_lp").self_s, sec),
        "mpbackend.solve_mip.self_s": (st("mpbackend.solve_mip").self_s, sec),
        "mpbackend.resolve_with_cuts.calls": (cuts.calls, count),
        "mpbackend.resolve_with_cuts.rounds": (cuts.extra["rounds"], count),
        "colgen.build_rmp.calls": (rmp.calls, count),
        "colgen.build_rmp.s": (rmp.total_s, sec),
        "colgen.solve_pricing.calls": (pricing.calls, count),
        "colgen.solve_pricing.self_s": (pricing.self_s, sec),
        "tspgl.cover_bounds.calls": (bounds.calls, count),
        "tspgl.cover_bounds.self_s": (bounds.self_s, sec),
        "tspgl.tsp_cache.hit_ratio": (
            1.0 - _ratio(tsp.parents["tspgl.cover_bounds"], bounds.calls) if bounds.calls else 0.0,
            ratio),
        "tspgl.symmetric_tsp.hk_calls": (tsp.extra["hk_calls"], count),
        "tspgl.symmetric_tsp.hk_s": (tsp.extra["hk_s"], sec),
        "tspgl.symmetric_tsp.mip_calls": (tsp.extra["mip_calls"], count),
        "tspgl.symmetric_tsp.mip_s": (tsp.extra["mip_s"], sec),
        "tspgl.benders_solve_tspgl.calls": (benders.calls, count),
        "tspgl.benders_solve_tspgl.self_s": (benders.self_s, sec),
        "tspgl.benders_solve_tspgl.iterations": (benders.extra["iterations"], count),
        "tspgl.benders_solve_tspgl.abort_ratio": (_ratio(benders.extra["aborted"], benders.calls), ratio),
        "tspgl.dual_subproblem.calls": (dual.calls, count),
        "tspgl.dual_subproblem.s": (dual.total_s, sec),
        "tspgl.primal_subproblem.calls": (primal.calls, count),
        "tspgl.primal_subproblem.s": (primal.total_s, sec),
        "covers.explore.calls": (explore.calls, count),
        "covers.explore.s": (explore.total_s, sec),
        "covers.explore.miss_ratio": (_ratio(explore.extra["misses"], explore.calls), ratio),
        "covers.local_search.calls": (local.calls, count),
        "covers.local_search.s": (local.total_s, sec),
        "covers.minimal_feasibility_cover.calls": (minimal.calls, count),
        "covers.minimal_feasibility_cover.s": (minimal.total_s, sec),
        "scenarios.chance_feasible.calls": (chance.calls, count),
        "scenarios.chance_feasible.s": (chance.total_s, sec),
        "orchestrate.scored": (events["score"], count),
        "orchestrate.evaluated": (events["evaluate"], count),
        "orchestrate.aborted": (events["abort"], count),
        "orchestrate.discarded": (events["discard"], count),
        "orchestrate.eval_yield": (_ratio(events["evaluate"], events["evaluate"] + events["abort"]), ratio),
        "orchestrate.incumbent_s": (incumbents[-1] if incumbents else 0.0, sec),
        "orchestrate.self_s": (st(ROOT).self_s, sec),
        "process.cpu_s": (cpu_s, sec),
        "process.minflt": (minflt, "faults"),
        "traced.solve_s": (st(ROOT).total_s, sec),
    }


def traced_solve(tracer: Tracer, solve: Callable):
    """Run `solve()` as the root span; return its result and layer metrics."""
    tracer.reset()
    before = resource.getrusage(resource.RUSAGE_SELF)
    result = tracer._wrap(ROOT, solve, None)()
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return result, layer_metrics(tracer, result, cpu_s, after.ru_minflt - before.ru_minflt)
