from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stspgl

from oracles import (
    add_split_routing,
    enumerate_minimal_covers,
    oracle_stspgl,
    presolved_lp_objective,
)
from stspgl import colgen, orchestrate
from stspgl.colgen import (
    CG_LOG_HEADER,
    DualPrices,
    add_gsec_rows,
    build_rmp,
    extract_duals,
    reduced_cost,
    solve_pricing,
)
from stspgl.covers import make_cover
from stspgl.model import OPTIMAL, csv_line
from stspgl.mpbackend import RC_EPS, solve_lp, solve_mip
from stspgl.orchestrate import SearchConfig
from stspgl.scenarios import chance_feasible, generate_instance
from stspgl.tspgl import gsec_row


def _zero_duals(inst, beta=0.0):
    return DualPrices(iota={i: 0.0 for i in inst.nodes},
                      serve={hk: 0.0 for hk in inst.requests}, beta=beta)


def _random_duals(inst, rng, spread):
    """Draws per node, then per (request, node) flow row, then beta; a
    request's `serve` is its origin row's draw minus its destination row's."""
    iota = {i: rng.uniform(-1.0, 1.0) for i in inst.nodes}
    eps = {(hk, i): rng.uniform(-spread, spread) for hk in inst.requests for i in inst.nodes}
    serve = {hk: eps[(hk, hk[0])] - eps[(hk, hk[1])] for hk in inst.requests}
    return DualPrices(iota=iota, serve=serve, beta=rng.uniform(0.0, 3.0))


def _covers(inst, *request_sets):
    return [make_cover(inst, reqs) for reqs in request_sets]


def test_master_rejects_duplicates(d1):
    master = build_rmp(d1, _covers(d1, d1.requests, d1.requests))
    assert not master.add(make_cover(d1, d1.requests))
    assert len(master.columns) == 1
    assert [c.requests for c in master.columns] == [tuple(d1.requests)]
    assert list(master.chi) == [tuple(d1.requests)]


def test_rmp_feasible_with_single_column(d1):
    master = build_rmp(d1, _covers(d1, d1.requests))
    out = master.solve()
    assert out.status == OPTIMAL
    assert out.values[master.chi[tuple(d1.requests)]] == pytest.approx(1.0)


def test_rmp_objective_never_increases_with_columns(d1):
    covers = _covers(d1, d1.requests)
    base = build_rmp(d1, covers).solve().objective
    covers.append(make_cover(d1, [(1, 3)]))
    richer = build_rmp(d1, covers).solve().objective
    assert richer <= base + 1e-9
    covers.append(make_cover(d1, [(2, 4)]))
    richest = build_rmp(d1, covers).solve().objective
    assert richest <= richer + 1e-9


def test_rmp_with_all_minimal_covers_bounds_d1_optimum(d1):
    out = build_rmp(d1, _covers(d1, d1.requests, [(1, 3)], [(2, 4)])).solve()
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
    duals.serve[(1, 3)] = 0.75 - 0.25     # flow duals at h = 1 and k = 3
    assert reduced_cost(cov, duals) == 0.5


def test_reduced_cost_matches_engine_columns(d1):
    master = build_rmp(d1, _covers(d1, d1.requests, [(1, 3)]))
    out = master.solve()
    duals = extract_duals(master, out)
    probe = make_cover(d1, [(2, 4)])
    # rebuild the probe's column coefficients row by row and price it by hand
    engine_rc = -out.duals[master.convex_row]
    for i in d1.nodes:
        if i in probe.visited:
            engine_rc -= out.duals[master.link_rows[i]] * (-2.0)
    for hk in d1.requests:
        if hk in probe.requests:
            row_h, row_k = master.flow_rows[hk]
            engine_rc -= out.duals[row_h] * (-1.0)
            engine_rc -= out.duals[row_k] * (1.0)
    # engine_rc started from -beta because the chi objective coefficient is 0
    assert reduced_cost(probe, duals) == pytest.approx(engine_rc, abs=1e-9)


def test_pooled_columns_price_nonnegative_at_optimum():
    for seed in range(6):
        inst = generate_instance(n=6, seed=400 + seed, n_requests=5, n_scenarios=3,
                                 theta=0.7, rho=0.3)
        master = build_rmp(inst, _covers(inst, inst.requests,
                                         *enumerate_minimal_covers(inst)[:3]))
        out = master.solve()
        assert out.status == OPTIMAL
        duals = extract_duals(master, out)
        for cover in master.columns:
            assert reduced_cost(cover, duals) >= -1e-6


def test_extract_duals_serve_is_the_flow_dual_difference():
    inst = generate_instance(n=7, seed=401, n_requests=6, n_scenarios=3, theta=0.7, rho=0.3)
    master = build_rmp(inst, _covers(inst, inst.requests, *enumerate_minimal_covers(inst)[:3]))
    out = master.solve()
    duals = extract_duals(master, out)
    assert list(duals.serve) == list(inst.requests)
    for hk in inst.requests:
        row_h, row_k = master.flow_rows[hk]
        assert duals.serve[hk] == out.duals[row_h] - out.duals[row_k]
    assert duals.iota == {i: out.duals[row] for i, row in master.link_rows.items()}
    assert duals.beta == out.duals[master.convex_row]


def test_pricing_objective_is_the_ip_optimum_minus_beta(d1, monkeypatch):
    rng = random.Random(23)
    cases = [(d1, _zero_duals(d1, beta=0.5)), (d1, _zero_duals(d1))]   # prices out, and not
    for seed in range(3):
        inst = generate_instance(n=6, seed=520 + seed, n_requests=5, n_scenarios=3,
                                 theta=0.6, rho=0.3)
        cases.append((inst, _random_duals(inst, rng, 1.0)))
    seen = []

    def spy(model, **kw):
        out = solve_mip(model, **kw)
        seen.append(out.objective)
        return out

    monkeypatch.setattr(colgen, "solve_mip", spy)
    covers = []
    for inst, duals in cases:
        res = solve_pricing(inst, duals)
        assert res.objective == seen[-1] - duals.beta
        covers.append(res.cover)
    assert covers[0] is not None and covers[1] is None


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
        duals = _random_duals(inst, rng, 1.0)
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
            duals = _random_duals(inst, rng, 2.0)
            with monkeypatch.context() as patch:
                patch.setattr(colgen, "solve_mip",
                              lambda model, **kw: solve_mip(model, **{**kw, "tuning": {}}))
                with_heuristics.append(solve_pricing(inst, duals).objective)
            assert solve_pricing(inst, duals).objective == pytest.approx(
                with_heuristics[-1], rel=1e-9)
    assert min(with_heuristics) < -RC_EPS


def test_pricing_option_set_keeps_the_optimum_and_warns_nothing(monkeypatch):
    # the pricing IP's option set (no primal heuristics, a capped cut pool)
    # proves the optimum HiGHS's defaults prove, also under branching
    # exclusions, and HiGHS knows every name in it (an unknown one warns)
    rng = random.Random(29)
    objectives = []
    for seed in range(4):
        inst = generate_instance(n=12, seed=900 + seed, n_requests=16, n_scenarios=5,
                                 theta=0.8, rho=0.2)
        phi = []
        for _ in range(3):
            duals = _random_duals(inst, rng, 2.0)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = solve_pricing(inst, duals, phi=phi)
            assert not caught
            with monkeypatch.context() as patch:
                patch.setattr(colgen, "PRICING_IP", {})
                ref = solve_pricing(inst, duals, phi=phi)
            assert res.objective == pytest.approx(ref.objective, rel=1e-9)
            objectives.append(res.objective)
            if res.raw_requests:
                phi.append(res.raw_requests)
    assert min(objectives) < -RC_EPS


@pytest.mark.parametrize("n, seed, n_requests", [(7, 2, 9), (8, 3, 10), (9, 1, 12)])
def test_every_rmp_lp_matches_a_presolved_oracle(monkeypatch, n, seed, n_requests):
    # solve_lp runs without presolve; on each master the dive grows, the
    # optimum equals a plain presolved linprog's
    inst = generate_instance(n=n, seed=seed, n_requests=n_requests, n_scenarios=5,
                             theta=0.8, rho=0.2)
    checked = []

    def checked_lp(model, **kw):
        out = solve_lp(model, **kw)
        want = presolved_lp_objective(model)
        assert (out.status == OPTIMAL) == (want is not None)
        if want is not None:
            assert out.objective == pytest.approx(want, rel=1e-9)
            checked.append((model.n_constrs(), len(model._obj)))
        return out

    monkeypatch.setattr(colgen, "solve_lp", checked_lp)
    cfg = SearchConfig(time_limit_total=60.0, gap_target=1e-6)
    assert orchestrate.run_bp(inst, cfg).status == OPTIMAL
    assert len(set(checked)) > 2      # the master grew between solves


def test_pricing_never_returns_branched_cover(d1):
    duals = _zero_duals(d1, beta=10.0)
    first = solve_pricing(d1, duals)
    assert first.cover is not None
    master = build_rmp(d1, _covers(d1, d1.requests))
    master.branch(first.cover.requests)
    master.branch(first.cover.requests)  # duplicate is a no-op
    assert master.branched == {first.cover.requests}
    second = solve_pricing(d1, duals, phi=master.branched)
    if second.cover is not None:
        assert second.cover.requests != first.cover.requests


def test_branched_column_fixed_to_zero(d1):
    master = build_rmp(d1, _covers(d1, d1.requests, [(1, 3)]))
    base = master.solve().objective
    master.branch(((1, 3),))
    out = master.solve()
    assert out.values[master.chi[((1, 3),)]] == pytest.approx(0.0, abs=1e-9)
    assert out.objective >= base - 1e-9


def _assert_same_master(grown, fresh):
    for name in ("x", "convex_row", "link_rows", "flow_rows", "columns", "chi", "branched",
                 "gsecs"):
        assert getattr(grown, name) == getattr(fresh, name)
    mat, lo, hi = grown.model._matrix()
    want, want_lo, want_hi = fresh.model._matrix()
    assert mat.shape == want.shape
    for got, ref in ((mat.indptr, want.indptr), (mat.indices, want.indices),
                     (mat.data, want.data), (lo, want_lo), (hi, want_hi)):
        assert np.array_equal(got, ref)
    for got, ref in zip(grown.model._arrays(), fresh.model._arrays()):
        assert np.array_equal(got, ref)


def test_rmp_grown_in_place_equals_fresh_build():
    inst = generate_instance(n=6, seed=404, n_requests=6, n_scenarios=3, theta=0.6, rho=0.3)
    covers = [make_cover(inst, c) for c in enumerate_minimal_covers(inst)]
    assert len(covers) >= 4
    master = build_rmp(inst, _covers(inst, inst.requests))
    assert master.solve().status == OPTIMAL and not master.changed
    steps = [   # (change to the master, whether that changes its model)
        (lambda: master.add(covers[0]), True),
        (lambda: (master.add(covers[1]), master.add(covers[2])), True),
        (lambda: master.branch(covers[0].requests), True),    # held already
        (lambda: master.branch(covers[0].requests), False),   # branched already
        (lambda: master.branch(covers[3].requests), False),   # not held yet
        (lambda: master.add(covers[3]), True),                # enters branched
        (lambda: None, False),                                # nothing changed
    ]
    for step, changed in steps:
        step()
        assert master.changed is changed
        assert master.solve().status == OPTIMAL and not master.changed
        # a fresh build over the same covers, then Phi
        fresh = build_rmp(inst, master.columns)
        for requests in master.branched:
            fresh.branch(requests)
        _assert_same_master(master, fresh)
    assert master.model._ub[master.chi[covers[0].requests]] == 0.0
    assert master.model._ub[master.chi[covers[3].requests]] == 0.0
    grown_out, fresh_out = master.solve(), fresh.solve()
    assert grown_out.status == OPTIMAL
    assert grown_out.values == fresh_out.values
    assert grown_out.duals == fresh_out.duals


@pytest.mark.parametrize("n, seed, n_requests, n_scenarios",
                         [(7, 11, 6, 4), (8, 1, 7, 4), (8, 7, 8, 5)])
def test_gsec_rows_lift_the_master_and_leave_pricing_alone(n, seed, n_requests,
                                                            n_scenarios):
    inst = generate_instance(n=n, seed=seed, n_requests=n_requests,
                             n_scenarios=n_scenarios, theta=0.7, rho=0.25)
    master = build_rmp(inst, _covers(inst, *enumerate_minimal_covers(inst)))
    uncut_rows = master.model.n_constrs()
    out = master.solve()
    bounds = [out.objective]
    while add_gsec_rows(inst, master, out.values):
        out = master.solve()
        assert out.status == OPTIMAL
        bounds.append(out.objective)
    assert master.gsecs and master.model.n_constrs() == uncut_rows + len(master.gsecs)
    # the rows are written in edge variables alone
    mat = master.model._matrix()[0].tocsc()
    chi_cols = sorted(master.chi.values())
    assert mat[uncut_rows:, chi_cols].nnz == 0
    edge_cols = set(master.x.values())
    assert set(mat[uncut_rows:].indices) <= edge_cols
    # every pooled cover's integer point satisfies them, so the bound stays valid
    optimum, _cover = oracle_stspgl(inst)
    assert bounds == sorted(bounds) and bounds[-1] > bounds[0]
    assert bounds[-1] <= optimum * (1 + 1e-9)
    duals = extract_duals(master, out)
    for cover in master.columns:
        assert reduced_cost(cover, duals) >= -1e-6


@pytest.mark.parametrize("n, seed, n_requests, n_scenarios",
                         [(7, 11, 6, 4), (8, 1, 7, 4), (8, 7, 8, 5)])
def test_paired_linking_rows_keep_the_master_value(monkeypatch, n, seed, n_requests,
                                                   n_scenarios):
    inst = generate_instance(n=n, seed=seed, n_requests=n_requests,
                             n_scenarios=n_scenarios, theta=0.7, rho=0.25)
    master = build_rmp(inst, _covers(inst, *enumerate_minimal_covers(inst)))
    out = master.solve()
    while add_gsec_rows(inst, master, out.values):
        out = master.solve()
    assert out.status == OPTIMAL and master.gsecs
    # the same master with two rows per edge and request, and the same GSEC rows
    monkeypatch.setattr(colgen, "add_routing", add_split_routing)
    split = build_rmp(inst, master.columns)
    for side, i in sorted(master.gsecs, key=lambda cut: (sorted(cut[0]), cut[1])):
        split.model.add_constr(*gsec_row(split.x, inst.nodes, side, i))
    split_out = split.solve()
    assert split_out.status == OPTIMAL
    assert split.model.n_constrs() - master.model.n_constrs() == \
        len(master.x) * len(inst.requests)
    assert out.objective == pytest.approx(split_out.objective, rel=1e-9)


def test_cg_log_line_format():
    assert CG_LOG_HEADER == "iter,rmp_obj,pricing_obj,lb,columns,phi"
    line = csv_line([3, 10.0, -2.0, 8.0, 4, 1])
    assert line == "3,10.0,-2.0,8.0,4,1"
    assert csv_line([1, None, -math.inf, None, 1, 0]) == "1,,,,1,0"


_RMP_MEMORY_PROBE = """
import json
from stspgl.colgen import build_rmp
from stspgl.covers import make_cover
from stspgl.scenarios import generate_instance

inst = generate_instance(n=16, seed=1, n_requests=24, n_scenarios=4, theta=0.8, rho=0.2)
out = build_rmp(inst, [make_cover(inst, inst.requests)]).solve()
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
