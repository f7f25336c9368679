from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stspgl

from oracles import add_split_linking_rows, enumerate_minimal_covers, oracle_stspgl
from stspgl import colgen
from stspgl.colgen import (
    CG_LOG_HEADER,
    ColumnPool,
    DualPrices,
    add_gsec_rows,
    build_rmp,
    cg_log_line,
    extend_rmp,
    extract_duals,
    reduced_cost,
    solve_pricing,
)
from stspgl.covers import make_cover
from stspgl.model import OPTIMAL
from stspgl.mpbackend import RC_EPS, solve_lp, solve_mip
from stspgl.scenarios import chance_feasible, deterministic_routing_costs, generate_instance
from stspgl.tspgl import gsec_row


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
    assert [c.requests for c in pool.columns] == [tuple(d1.requests)]


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
    duals = extract_duals(index, out)
    probe = make_cover(d1, [(2, 4)])
    # rebuild the probe's column coefficients row by row and price it by hand
    engine_rc = -out.duals[index.convex_row]
    for i in d1.nodes:
        if i in probe.visited:
            engine_rc -= out.duals[index.link_rows[i]] * (-2.0)
    for hk in d1.requests:
        if hk in probe.requests:
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
        duals = extract_duals(index, out)
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


def test_pricing_optimum_does_not_need_primal_heuristics(monkeypatch):
    # solve_pricing skips HiGHS's primal heuristics; they never change the optimum
    rng = random.Random(17)
    with_heuristics = []
    for seed in range(8):
        inst = generate_instance(n=9, seed=700 + seed, n_requests=12, n_scenarios=5,
                                 theta=0.7, rho=0.25)
        for _ in range(3):
            duals = DualPrices(
                iota={i: rng.uniform(-1.0, 1.0) for i in inst.nodes},
                eps={(hk, i): rng.uniform(-2.0, 2.0)
                     for hk in inst.requests for i in inst.nodes},
                beta=rng.uniform(0.0, 3.0),
            )
            with monkeypatch.context() as patch:
                patch.setattr(colgen, "solve_mip",
                              lambda model, **kw: solve_mip(model, **{**kw, "tuning": {}}))
                with_heuristics.append(solve_pricing(inst, duals).objective)
            assert solve_pricing(inst, duals).objective == pytest.approx(
                with_heuristics[-1], rel=1e-9)
    assert min(with_heuristics) < -RC_EPS


def test_pricing_never_returns_branched_cover(d1):
    duals = _zero_duals(d1, beta=10.0)
    first = solve_pricing(d1, duals)
    assert first.cover is not None
    pool = ColumnPool()
    pool.branched.add(first.cover.requests)
    pool.branched.add(first.cover.requests)  # duplicate is a no-op
    second = solve_pricing(d1, duals, phi=pool.branched)
    if second.cover is not None:
        assert second.cover.requests != first.cover.requests


def test_branched_column_fixed_to_zero(d1, d1_qtilde):
    pool = _pool_with(d1, d1.requests, [(1, 3)])
    base = solve_lp(build_rmp(d1, pool, d1_qtilde)[0]).objective
    pool.branched.add(((1, 3),))
    model, index = build_rmp(d1, pool, d1_qtilde)
    out = solve_lp(model)
    assert out.values[index.chi[((1, 3),)]] == pytest.approx(0.0, abs=1e-9)
    assert out.objective >= base - 1e-9


def _assert_same_master(grown, grown_index, fresh, fresh_index):
    assert grown_index == fresh_index
    mat, lo, hi = grown._matrix()
    want, want_lo, want_hi = fresh._matrix()
    assert mat.shape == want.shape
    for got, ref in ((mat.indptr, want.indptr), (mat.indices, want.indices),
                     (mat.data, want.data), (lo, want_lo), (hi, want_hi)):
        assert np.array_equal(got, ref)
    for got, ref in zip(grown._arrays(), fresh._arrays()):
        assert np.array_equal(got, ref)


def test_rmp_grown_in_place_equals_fresh_build():
    inst = generate_instance(n=6, seed=404, n_requests=6, n_scenarios=3, theta=0.6, rho=0.3)
    qt = deterministic_routing_costs(inst)
    covers = [make_cover(inst, c) for c in enumerate_minimal_covers(inst)]
    assert len(covers) >= 4
    pool = _pool_with(inst, inst.requests)
    model, index = build_rmp(inst, pool, qt)
    steps = [   # (change to the pool, whether the master changes)
        (lambda: pool.add(covers[0]), True),
        (lambda: (pool.add(covers[1]), pool.add(covers[2])), True),
        (lambda: pool.branched.add(covers[0].requests), True),    # already pooled
        (lambda: pool.branched.add(covers[3].requests), False),   # not pooled yet
        (lambda: pool.add(covers[3]), True),                            # enters branched
        (lambda: None, False),                                          # nothing changed
    ]
    for step, changed in steps:
        step()
        assert extend_rmp(model, index, pool) is changed
        fresh, fresh_index = build_rmp(inst, pool, qt)
        _assert_same_master(model, index, fresh, fresh_index)
    assert model._ub[index.chi[covers[0].requests]] == 0.0
    assert model._ub[index.chi[covers[3].requests]] == 0.0
    grown_out, fresh_out = solve_lp(model), solve_lp(fresh)
    assert grown_out.status == OPTIMAL
    assert grown_out.values == fresh_out.values
    assert grown_out.duals == fresh_out.duals


@pytest.mark.parametrize("n, seed, n_requests, n_scenarios",
                         [(7, 11, 6, 4), (8, 1, 7, 4), (8, 7, 8, 5)])
def test_gsec_rows_lift_the_master_and_leave_pricing_alone(n, seed, n_requests,
                                                            n_scenarios):
    inst = generate_instance(n=n, seed=seed, n_requests=n_requests,
                             n_scenarios=n_scenarios, theta=0.7, rho=0.25)
    qt = deterministic_routing_costs(inst)
    pool = ColumnPool()
    for cov in enumerate_minimal_covers(inst):
        pool.add(make_cover(inst, cov))
    model, index = build_rmp(inst, pool, qt)
    uncut_rows = model.n_constrs()
    out = solve_lp(model)
    bounds = [out.objective]
    while add_gsec_rows(inst, model, index, out.values):
        out = solve_lp(model)
        assert out.status == OPTIMAL
        bounds.append(out.objective)
    assert index.gsecs and model.n_constrs() == uncut_rows + len(index.gsecs)
    # the rows are written in edge variables alone
    mat = model._matrix()[0].tocsc()
    chi_cols = sorted(index.chi.values())
    assert mat[uncut_rows:, chi_cols].nnz == 0
    edge_cols = set(index.x.values())
    assert set(mat[uncut_rows:].indices) <= edge_cols
    # every pooled cover's integer point satisfies them, so the bound stays valid
    optimum, _cover = oracle_stspgl(inst, qt)
    assert bounds == sorted(bounds) and bounds[-1] > bounds[0]
    assert bounds[-1] <= optimum * (1 + 1e-9)
    duals = extract_duals(index, out)
    for cover in pool.columns:
        assert reduced_cost(cover, duals) >= -1e-6


@pytest.mark.parametrize("n, seed, n_requests, n_scenarios",
                         [(7, 11, 6, 4), (8, 1, 7, 4), (8, 7, 8, 5)])
def test_paired_linking_rows_keep_the_master_value(monkeypatch, n, seed, n_requests,
                                                   n_scenarios):
    inst = generate_instance(n=n, seed=seed, n_requests=n_requests,
                             n_scenarios=n_scenarios, theta=0.7, rho=0.25)
    qt = deterministic_routing_costs(inst)
    pool = ColumnPool()
    for cov in enumerate_minimal_covers(inst):
        pool.add(make_cover(inst, cov))
    model, index = build_rmp(inst, pool, qt)
    out = solve_lp(model)
    while add_gsec_rows(inst, model, index, out.values):
        out = solve_lp(model)
    assert out.status == OPTIMAL and index.gsecs
    # the same master with two rows per edge and request, and the same GSEC rows
    monkeypatch.setattr(colgen, "add_linking_rows", add_split_linking_rows)
    split, split_index = build_rmp(inst, pool, qt)
    for side, i in sorted(index.gsecs, key=lambda cut: (sorted(cut[0]), cut[1])):
        split.add_constr(*gsec_row(split_index.x, inst.nodes, side, i))
    split_out = solve_lp(split)
    assert split_out.status == OPTIMAL
    assert split.n_constrs() - model.n_constrs() == len(index.x) * len(inst.requests)
    assert out.objective == pytest.approx(split_out.objective, rel=1e-9)


def test_cg_log_line_format():
    assert CG_LOG_HEADER == "iter,rmp_obj,pricing_obj,lb,columns,phi"
    line = cg_log_line(3, 10.0, -2.0, 8.0, 4, 1)
    assert line == "3,10.0,-2.0,8.0,4,1"
    assert cg_log_line(1, None, -math.inf, None, 1, 0) == "1,,,,1,0"


_RMP_MEMORY_PROBE = """
import json
from stspgl.colgen import ColumnPool, build_rmp
from stspgl.covers import make_cover
from stspgl.mpbackend import solve_lp
from stspgl.scenarios import deterministic_routing_costs, generate_instance

inst = generate_instance(n=16, seed=1, n_requests=24, n_scenarios=4, theta=0.8, rho=0.2)
pool = ColumnPool()
pool.add(make_cover(inst, inst.requests))
model, _index = build_rmp(inst, pool, deterministic_routing_costs(inst))
out = solve_lp(model)
with open("/proc/self/status") as fh:
    peak_mb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0
print(json.dumps({"objective": out.objective, "peak_mb": peak_mb}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc/self/status")
def test_rmp_lp_memory_stays_bounded():
    """One n=16 RMP solve in a fresh interpreter. Its constraint matrix has
    3281 rows, 5881 columns and 20k nonzeros; assembled densely, the matrix
    alone would take 154 MB of float64. The peak is the child's VmHWM:
    on Linux its ru_maxrss would start from the RSS of this test process."""
    env = dict(os.environ, PYTHONPATH=str(Path(stspgl.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _RMP_MEMORY_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["objective"] == pytest.approx(498.27207077886237, rel=1e-9)
    assert report["peak_mb"] < 300.0
