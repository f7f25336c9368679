from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import stspgl

from oracles import enumerate_minimal_covers
from stspgl.colgen import (
    CG_LOG_HEADER,
    ColumnPool,
    DualPrices,
    add_branching_cut,
    build_rmp,
    cg_log_line,
    extract_duals,
    lagrangian_lower_bound,
    reduced_cost,
    solve_pricing,
)
from stspgl.covers import make_cover
from stspgl.model import OPTIMAL, build_instance
from stspgl.mpbackend import solve_lp
from stspgl.scenarios import chance_feasible, deterministic_routing_costs, generate_instance


def _zero_duals(inst, beta=0.0):
    return DualPrices(
        iota={i: 0.0 for i in inst.nodes},
        eps={(hk, i): 0.0 for hk in inst.requests for i in inst.nodes},
        beta=beta,
    )


def _pool_with(inst, *request_sets):
    pool = ColumnPool()
    for reqs in request_sets:
        pool.add(make_cover(inst, reqs))
    return pool


def test_pool_rejects_duplicates(d1):
    pool = _pool_with(d1, d1.requests)
    assert not pool.add(make_cover(d1, d1.requests))
    assert len(pool.columns) == 1
    assert pool.has(tuple(d1.requests))


def test_rmp_feasible_with_single_column(d1, d1_qtilde):
    pool = _pool_with(d1, d1.requests)
    model, index = build_rmp(d1, pool, d1_qtilde)
    out = solve_lp(model)
    assert out.status == OPTIMAL
    assert out.values[index.chi[tuple(d1.requests)]] == pytest.approx(1.0)


def test_rmp_objective_never_increases_with_columns(d1, d1_qtilde):
    pool = _pool_with(d1, d1.requests)
    base = solve_lp(build_rmp(d1, pool, d1_qtilde)[0]).objective
    pool.add(make_cover(d1, [(1, 3)]))
    richer = solve_lp(build_rmp(d1, pool, d1_qtilde)[0]).objective
    assert richer <= base + 1e-9
    pool.add(make_cover(d1, [(2, 4)]))
    richest = solve_lp(build_rmp(d1, pool, d1_qtilde)[0]).objective
    assert richest <= richer + 1e-9


def test_rmp_with_all_minimal_covers_bounds_d1_optimum(d1, d1_qtilde):
    pool = _pool_with(d1, d1.requests, [(1, 3)], [(2, 4)])
    out = solve_lp(build_rmp(d1, pool, d1_qtilde)[0])
    assert out.status == OPTIMAL
    assert out.objective <= 5.0 + 1e-9


def test_reduced_cost_formula_values(d1):
    cov = make_cover(d1, [(1, 3)])
    duals = _zero_duals(d1)
    assert reduced_cost(cov, duals) == 0.0
    duals.beta = 1.5
    assert reduced_cost(cov, duals) == -1.5
    duals.beta = 0.0
    duals.iota[1] = 1.0
    assert reduced_cost(cov, duals) == 2.0  # l_Q(1) = 1
    duals.iota[1] = 0.0
    duals.eps[((1, 3), 1)] = 0.75
    duals.eps[((1, 3), 3)] = 0.25
    assert reduced_cost(cov, duals) == pytest.approx(0.5)


def test_reduced_cost_matches_engine_columns(d1, d1_qtilde):
    pool = _pool_with(d1, d1.requests, [(1, 3)])
    model, index = build_rmp(d1, pool, d1_qtilde)
    out = solve_lp(model)
    duals = extract_duals(d1, index, out)
    probe = make_cover(d1, [(2, 4)])
    # rebuild the probe's column coefficients row by row and price it by hand
    engine_rc = -out.duals[index.convex_row]
    for i in d1.nodes:
        li = probe.node_incidence[i]
        if li:
            engine_rc -= out.duals[index.link_rows[i]] * (-2.0 * li)
    for hk in d1.requests:
        if probe.request_incidence[hk]:
            h, k = hk
            engine_rc -= out.duals[index.flow_rows[(hk, h)]] * (-1.0)
            engine_rc -= out.duals[index.flow_rows[(hk, k)]] * (1.0)
    # engine_rc started from -beta because the chi objective coefficient is 0
    assert reduced_cost(probe, duals) == pytest.approx(engine_rc, abs=1e-9)


def test_pooled_columns_price_nonnegative_at_optimum():
    for seed in range(6):
        inst = generate_instance(n=6, seed=400 + seed, n_requests=5, n_scenarios=3,
                                 theta=0.7, rho=0.3)
        qt = deterministic_routing_costs(inst)
        pool = _pool_with(inst, inst.requests)
        for cov in enumerate_minimal_covers(inst)[:3]:
            pool.add(make_cover(inst, cov))
        model, index = build_rmp(inst, pool, qt)
        out = solve_lp(model)
        assert out.status == OPTIMAL
        duals = extract_duals(inst, index, out)
        for cover in pool.columns:
            assert reduced_cost(cover, duals) >= -1e-6


def test_pricing_constant_negative_beta(d1):
    duals = _zero_duals(d1, beta=1.0)
    res = solve_pricing(d1, duals)
    assert res.cover is not None
    assert res.objective == pytest.approx(-1.0)
    assert chance_feasible(d1, res.cover.requests)


def test_pricing_zero_duals_prices_nothing(d1):
    res = solve_pricing(d1, _zero_duals(d1))
    assert res.cover is None
    assert res.objective == pytest.approx(0.0)


def test_pricing_with_all_minimal_covers_excluded(d1):
    phi = {((1, 3),), ((2, 4),)}
    res = solve_pricing(d1, _zero_duals(d1, beta=5.0), phi=phi)
    # every cover contains one of the excluded minimal covers
    assert res.cover is None
    assert res.objective == math.inf


def test_pricing_objective_equals_raw_reduced_cost():
    rng = random.Random(9)
    for seed in range(6):
        inst = generate_instance(n=6, seed=500 + seed, n_requests=5, n_scenarios=3,
                                 theta=0.6, rho=0.3)
        duals = DualPrices(
            iota={i: rng.uniform(-1.0, 1.0) for i in inst.nodes},
            eps={
                (hk, i): rng.uniform(-1.0, 1.0)
                for hk in inst.requests
                for i in inst.nodes
            },
            beta=rng.uniform(0.0, 3.0),
        )
        res = solve_pricing(inst, duals)
        if res.cover is None:
            assert res.objective >= -1e-6
            continue
        raw = make_cover(inst, res.raw_requests)
        assert reduced_cost(raw, duals) == pytest.approx(res.objective, abs=1e-6)
        assert chance_feasible(inst, res.raw_requests)
        assert chance_feasible(inst, res.cover.requests)


def test_pricing_never_returns_branched_cover(d1):
    duals = _zero_duals(d1, beta=10.0)
    first = solve_pricing(d1, duals)
    assert first.cover is not None
    pool = ColumnPool()
    add_branching_cut(pool, first.cover.requests)
    add_branching_cut(pool, first.cover.requests)  # duplicate is a no-op
    second = solve_pricing(d1, duals, phi=pool.branched)
    if second.cover is not None:
        assert second.cover.requests != first.cover.requests


def test_branched_column_fixed_to_zero(d1, d1_qtilde):
    pool = _pool_with(d1, d1.requests, [(1, 3)])
    base = solve_lp(build_rmp(d1, pool, d1_qtilde)[0]).objective
    add_branching_cut(pool, ((1, 3),))
    model, index = build_rmp(d1, pool, d1_qtilde)
    out = solve_lp(model)
    assert out.values[index.chi[((1, 3),)]] == pytest.approx(0.0, abs=1e-9)
    assert out.objective >= base - 1e-9


def test_lagrangian_lower_bound():
    assert lagrangian_lower_bound(10.0, -2.0) == 8.0
    assert lagrangian_lower_bound(10.0, 0.0) == 10.0


def test_cg_log_line_format():
    assert CG_LOG_HEADER == "iter,rmp_obj,pricing_obj,lb,columns,phi"
    line = cg_log_line(3, 10.0, -2.0, 8.0, 4, 1)
    assert line == "3,10.0,-2.0,8.0,4,1"
    assert cg_log_line(1, None, -math.inf, None, 1, 0) == "1,,,,1,0"


_RMP_MEMORY_PROBE = """
import json, resource
from stspgl.colgen import ColumnPool, build_rmp
from stspgl.covers import make_cover
from stspgl.mpbackend import solve_lp
from stspgl.scenarios import deterministic_routing_costs, generate_instance

inst = generate_instance(n=16, seed=1, n_requests=24, n_scenarios=4, theta=0.8, rho=0.2)
pool = ColumnPool()
pool.add(make_cover(inst, inst.requests))
model, _index = build_rmp(inst, pool, deterministic_routing_costs(inst))
out = solve_lp(model)
print(json.dumps({"objective": out.objective,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def test_rmp_lp_memory_stays_bounded():
    """One n=16 RMP solve in a fresh interpreter. Its constraint matrix has
    6161 rows, 5881 columns and 23k nonzeros; assembled densely, it pushes
    the peak RSS of the solve to about 1.2 GB."""
    env = dict(os.environ, PYTHONPATH=str(Path(stspgl.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _RMP_MEMORY_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["objective"] == pytest.approx(498.27207077886237, rel=1e-9)
    assert report["maxrss_mb"] < 300.0
