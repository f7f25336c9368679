import json
import math

import pytest

from stspgl.evalcli import (
    METHODS,
    ExperimentSpec,
    bench,
    comparison_csv_line,
    COMPARISON_CSV_HEADER,
    load_experiment_spec,
    main,
    make_config,
    run_method,
    solve_deterministic,
    sweep,
    vss_experiment,
    write_sweep_csv,
)
from stspgl.model import StspGlResult, build_instance, load_instance, save_instance


def cfg60(seed=0):
    return make_config(time_limit=60.0, gap=1e-9, seed=seed)


def strict_instance():
    """Like the tiny fixture but with rho=0: both scenarios must be served."""
    return build_instance(
        compulsory=[0],
        requests=[(1, 3), (2, 4)],
        demand=[[10.0, 0.0], [0.0, 10.0]],
        theta=0.5,
        rho=0.0,
        alpha=0.25,
        dist=[[abs(i - j) for j in range(5)] for i in range(5)],
    )


def test_make_config_scales_component_budgets():
    cfg = make_config(time_limit=90.0, gap=0.01, seed=3)
    cfg.validate()
    assert cfg.time_limit_total == 90.0
    assert cfg.gap_target == 0.01
    assert cfg.seed == 3


def test_deterministic_solve_is_judged_on_original_scenarios(d1):
    res = solve_deterministic(d1, cfg60())
    assert res.status == "Optimal"
    assert res.cover.requests == ((1, 3),)
    # the mean scenario alone would score rhobar=0; the original set says 0.5
    assert res.metrics["rhobar"] == pytest.approx(0.5)
    assert res.metrics["infeasible"] is False   # rho=0.5 tolerates the miss


def test_vss_row_on_tiny_example(d1):
    row = vss_experiment(d1, cfg60())
    assert not row.flagged
    assert row.det.design_cost <= row.sto.design_cost + 1e-9
    assert not row.sto.infeasible
    line = comparison_csv_line(row)
    assert len(line.split(",")) == len(COMPARISON_CSV_HEADER.split(","))


def test_vss_detects_deterministic_shortfall():
    # rho=0 forces the stochastic model to serve both requests; the mean
    # scenario hides that and the deterministic tour misses one scenario
    inst = strict_instance()
    row = vss_experiment(inst, cfg60())
    assert not row.flagged
    assert row.det.infeasible
    assert not row.sto.infeasible
    assert row.det.design_cost <= row.sto.design_cost + 1e-9
    assert row.sto.design_cost == pytest.approx(8.0)


def test_sweep_matrices_follow_the_service_knobs(d1):
    res = sweep(d1, theta_grid=[1.0, 0.5], rho_grid=[0.0, 0.5], cfg=cfg60())
    assert res.design == [[8.0, 6.0], [8.0, 6.0]]
    assert res.nodes_in_tour == [[5, 3], [5, 3]]
    # tightening theta or lowering rho never makes the tour cheaper
    for row in res.design:
        assert row[0] >= row[1] - 1e-9
    for before, after in zip(res.design[0], res.design[1]):
        assert before >= after - 1e-9


def test_sweep_marks_unsolvable_cells(d1, tmp_path):
    res = sweep(d1, theta_grid=[0.0, 0.5], rho_grid=[0.5], cfg=cfg60())
    assert res.design[0] == [None]
    assert res.design[1] == [6.0]
    write_sweep_csv(res, tmp_path / "d.csv", tmp_path / "n.csv")
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == "theta/rho,0.5"
    assert lines[1] == "0.0,"          # empty cell for the dead parameter
    assert lines[2] == "0.5,6.0"


def asymmetric_instance():
    """The tiny fixture with one design cost changed in a single direction."""
    dist = [[abs(i - j) for j in range(5)] for i in range(5)]
    dist[0][1] = 2
    return build_instance(compulsory=[0], requests=[(1, 3), (2, 4)],
                          demand=[[10.0, 0.0], [0.0, 10.0]], theta=0.5, rho=0.5,
                          alpha=0.25, dist=dist)


def test_sweep_reports_invalid_instance():
    # only the theta=0 cell is unsolvable by design; validation errors surface
    with pytest.raises(ValueError, match=r"invalid instance: design cost asymmetric at \[0,1\]"):
        sweep(asymmetric_instance(), theta_grid=[0.5], rho_grid=[0.5], cfg=cfg60())


def test_sweep_rejects_bad_grids(d1):
    with pytest.raises(ValueError):
        sweep(d1, [], [0.1], cfg60())
    with pytest.raises(ValueError):
        sweep(d1, [0.5], [1.5], cfg60())


def test_bench_writes_runs_results_and_table(tmp_path):
    spec = ExperimentSpec(
        generator={"count": 2, "n": 6, "n_requests": 4, "n_scenarios": 3,
                   "theta": 0.7, "rho": 0.3},
        methods=["mip", "heuristic"],
        seeds=[0],
        time_limit=60.0,
        gap_target=1e-6,
        out_dir=str(tmp_path / "bench"),
    )
    rows = bench(spec)
    assert len(rows) == 4
    assert all(row.ub is not None for row in rows)
    runs = (tmp_path / "bench" / "bench_runs.csv").read_text().splitlines()
    assert len(runs) == 5
    table = (tmp_path / "bench" / "bench_table.csv").read_text().splitlines()
    assert table[0].startswith("method,")
    assert len(table) == 3
    results = sorted((tmp_path / "bench" / "results").glob("*.json"))
    assert len(results) == 4
    doc = json.loads(results[0].read_text())
    assert "status" in doc and "tour" in doc


def test_bench_keeps_error_messages(tmp_path):
    inst_path = tmp_path / "broken.json"
    save_instance(asymmetric_instance(), inst_path)
    spec = ExperimentSpec(instances=[str(inst_path)], methods=["mip"], seeds=[3],
                          time_limit=30.0, out_dir=str(tmp_path / "bench"))
    rows = bench(spec)
    assert [row.status for row in rows] == ["Error:ValueError"]
    runs = (tmp_path / "bench" / "bench_runs.csv").read_text().splitlines()
    assert runs[1].split(",")[6] == "Error:ValueError"
    results = tmp_path / "bench" / "results"
    assert sorted(p.name for p in results.iterdir()) == ["broken_mip_3.error.json"]
    error = json.loads((results / "broken_mip_3.error.json").read_text())
    assert error["type"] == "ValueError"
    assert error["message"].startswith("invalid instance: design cost asymmetric at [0,1]")


def test_nan_time_limit_is_rejected(tmp_path, d1):
    for method in METHODS:
        with pytest.raises(ValueError, match="time_limit_total"):
            run_method(method, d1, make_config(time_limit=math.nan))
    inst_path = tmp_path / "d1.json"
    save_instance(d1, inst_path)
    with pytest.raises(ValueError, match="time_limit_total"):
        main(["solve", str(inst_path), "--time-limit", "nan"])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"instances": [str(inst_path)], "methods": ["bp"],
                                     "time_limit": math.nan,
                                     "out_dir": str(tmp_path / "bench")}))
    rows = bench(load_experiment_spec(spec_path))
    assert [row.status for row in rows] == ["Error:ValueError"]


def test_experiment_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentSpec(methods=["bp", "annealing"], generator={}).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(methods=["bp"]).validate()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "generator": {"count": 1, "n": 5},
        "methods": ["heuristic"],
        "seeds": [1, 2],
        "time_limit": 30.0,
        "out_dir": str(tmp_path / "out"),
    }))
    spec = load_experiment_spec(path)
    assert spec.methods == ["heuristic"]
    assert spec.seeds == [1, 2]


def test_cli_generate_and_solve_roundtrip(tmp_path):
    inst_path = tmp_path / "inst.json"
    code = main(["generate", "--nodes", "6", "--requests", "4",
                 "--scenarios", "3", "--theta", "0.7", "--rho", "0.3",
                 "--seed", "2", "-o", str(inst_path)])
    assert code == 0
    inst = load_instance(inst_path)
    assert inst.n == 6

    result_path = tmp_path / "res.json"
    trace_path = tmp_path / "trace.csv"
    log_path = tmp_path / "cg.csv"
    code = main(["solve", str(inst_path), "--method", "bp",
                 "--time-limit", "60", "--gap", "1e-6", "--seed", "1",
                 "--trace", str(trace_path), "--cg-log", str(log_path),
                 "-o", str(result_path)])
    assert code == 0
    doc = json.loads(result_path.read_text())
    assert doc["status"] == "Optimal"
    assert doc["tour"]
    trace = trace_path.read_text().splitlines()
    assert trace[0] == "t_seconds,event,ub,lb,cover_size,nodes_visited"
    assert len(trace) > 1
    log = log_path.read_text().splitlines()
    assert log[0] == "iter,rmp_obj,pricing_obj,lb,columns,phi"
    assert len(log) > 1


def test_cli_solve_prints_to_stdout(d1, tmp_path, capsys):
    inst_path = tmp_path / "d1.json"
    save_instance(d1, inst_path)
    code = main(["solve", str(inst_path), "--method", "mip",
                 "--time-limit", "60"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["upper_bound"] == pytest.approx(5.0)


def test_cli_exit_codes_for_failed_solves(d1, tmp_path, monkeypatch):
    inst_path = tmp_path / "d1.json"
    save_instance(d1, inst_path)

    def fake(method, inst, cfg):
        return StspGlResult(status="Infeasible", upper_bound=None,
                            lower_bound=None, gap=None, incumbent=None,
                            cover=None)

    monkeypatch.setattr("stspgl.evalcli.run_method", fake)
    assert main(["solve", str(inst_path), "--method", "mip",
                 "-o", str(tmp_path / "r.json")]) == 2

    def timed_out(method, inst, cfg):
        return StspGlResult(status="TimeLimit", upper_bound=None,
                            lower_bound=None, gap=None, incumbent=None,
                            cover=None)

    monkeypatch.setattr("stspgl.evalcli.run_method", timed_out)
    assert main(["solve", str(inst_path), "--method", "mip",
                 "-o", str(tmp_path / "r2.json")]) == 3


def test_cli_time_limit_exit_without_incumbent(tmp_path):
    code = main(["generate", "--nodes", "7", "--seed", "4",
                 "-o", str(tmp_path / "i.json")])
    assert code == 0
    code = main(["solve", str(tmp_path / "i.json"), "--method", "bp",
                 "--time-limit", "0.0001", "-o", str(tmp_path / "r.json")])
    assert code == 3


def test_cli_vss_and_sweep_files(d1, tmp_path):
    inst_path = tmp_path / "d1.json"
    save_instance(d1, inst_path)
    out = tmp_path / "vss.csv"
    assert main(["vss", str(inst_path), "--time-limit", "60",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == COMPARISON_CSV_HEADER
    assert len(lines) == 2

    prefix = str(tmp_path / "sweep")
    assert main(["sweep", str(inst_path), "--theta-grid", "1.0,0.5",
                 "--rho-grid", "0.0,0.5", "--time-limit", "60",
                 "-o", prefix]) == 0
    design = (tmp_path / "sweep_design.csv").read_text().splitlines()
    assert len(design) == 3


def test_cli_bench_runs_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "generator": {"count": 1, "n": 6, "n_requests": 4, "n_scenarios": 3,
                      "theta": 0.7, "rho": 0.3},
        "methods": ["heuristic"],
        "seeds": [0],
        "time_limit": 30.0,
        "out_dir": str(tmp_path / "out"),
    }))
    assert main(["bench", str(spec_path)]) == 0
    assert (tmp_path / "out" / "bench_runs.csv").exists()
