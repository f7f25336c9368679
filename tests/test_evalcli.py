import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

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
    sweep,
    vss_experiment,
    write_sweep_csv,
)
from stspgl.model import ParameterError, StspGlResult, build_instance, load_instance, save_instance
from stspgl.scenarios import evaluate_metrics, generate_instance


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


def test_make_config_sets_budget_gap_and_seed():
    cfg = make_config(time_limit=90.0, gap=0.01, seed=3)
    cfg.validate()
    assert cfg.time_limit_total == 90.0
    assert cfg.gap_target == 0.01
    assert cfg.seed == 3


def test_deterministic_solve_is_judged_on_original_scenarios(d1):
    res = run_method("deterministic", d1, cfg60())
    assert res.status == "Optimal"
    assert res.incumbent.served == ((1, 3),)
    # the mean scenario alone would score rhobar=0; the original set says 0.5
    assert res.metrics.rhobar == pytest.approx(0.5)
    assert res.metrics.infeasible is False   # rho=0.5 tolerates the miss


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


def test_nan_time_limit_is_rejected(tmp_path, d1, capsys):
    for method in METHODS:
        with pytest.raises(ValueError, match="^time_limit must be positive$"):
            run_method(method, d1, make_config(time_limit=math.nan))
    inst_path = tmp_path / "d1.json"
    save_instance(d1, inst_path)
    # on the command line it is a usage error that names the flag
    with pytest.raises(SystemExit) as stop:
        main(["solve", str(inst_path), "--time-limit", "nan"])
    assert stop.value.code == 2
    assert "argument --time-limit: time_limit must be positive" in capsys.readouterr().err
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"instances": [str(inst_path)], "methods": ["bp"],
                                     "time_limit": math.nan,
                                     "out_dir": str(tmp_path / "bench")}))
    # a spec's budget is checked at load, before any run or output
    with pytest.raises(ValueError, match="^time_limit must be positive$"):
        load_experiment_spec(spec_path)
    assert not (tmp_path / "bench").exists()


def _usage_error(capsys, argv):
    """The last stderr line of a command line that must fail as a usage
    error: exit status 2 and no traceback."""
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.splitlines()[-1]


@pytest.mark.parametrize("command", [["solve"], ["vss"],
                                     ["sweep", "--theta-grid", "0.5", "--rho-grid", "0.5"]],
                         ids=["solve", "vss", "sweep"])
@pytest.mark.parametrize("flag, value, message", [
    ("--time-limit", "nan", "time_limit must be positive"),
    ("--time-limit", "0", "time_limit must be positive"),
    ("--time-limit", "-1", "time_limit must be positive"),
    ("--gap", "0", r"gap_target must lie in (0, 1)"),
    ("--gap", "1", r"gap_target must lie in (0, 1)"),
])
def test_cli_rejects_a_budget_no_solve_takes(d1, tmp_path, capsys, command, flag, value,
                                             message):
    inst_path = tmp_path / "d1.json"
    save_instance(d1, inst_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        main([command[0], str(inst_path), *command[1:], flag, value, "-o", str(out)])
    # exit status 2, as for any usage error; the flag named, no traceback
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: {message}\n" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [inst_path]


@pytest.mark.parametrize("argv, message", [
    (["generate", "--nodes", "2", "-o", "x.json"], "stspgl generate: error: need at least 3 nodes"),
    (["generate", "--nodes", "8", "--theta", "1.5", "-o", "x.json"],
     "stspgl generate: error: theta must lie in [0, 1], not 1.5"),
    (["sweep", "d1.json", "--theta-grid", "a", "--rho-grid", "0.2"],
     "stspgl sweep: error: argument --theta-grid: could not convert string to float: 'a'"),
    (["sweep", "d1.json", "--theta-grid", "0.5", "--rho-grid", "0.2,1.2"],
     "stspgl sweep: error: argument --rho-grid: grid values must lie in [0, 1]"),
    (["solve", "missing.json"],
     "stspgl solve: error: [Errno 2] No such file or directory: 'missing.json'"),
    (["bench", "zero.json"], "stspgl bench: error: time_limit must be positive"),
    (["bench", "missing_instance.json"],
     "stspgl bench: error: [Errno 2] No such file or directory: 'missing.json'"),
    (["solve", "alpha.json"], "stspgl solve: error: invalid instance: alpha outside [0, 1]"),
    (["solve", "theta0.json"],
     "stspgl solve: error: theta must be positive to define routing costs"),
    (["solve", "norho.json"], "stspgl solve: error: instance file lacks the key 'rho'"),
    (["vss", "alpha.json"], "stspgl vss: error: invalid instance: alpha outside [0, 1]"),
    (["sweep", "alpha.json", "--theta-grid", "0.5", "--rho-grid", "0.2"],
     "stspgl sweep: error: invalid instance: alpha outside [0, 1]"),
    (["bench", "norho_spec.json"], "stspgl bench: error: instance file lacks the key 'rho'"),
    (["solve", "thetanull.json"],
     "stspgl solve: error: instance file's 'theta' has the wrong JSON type"),
    (["solve", "pairs.json"],
     "stspgl solve: error: instance file's 'requests' has the wrong JSON type"),
    (["solve", "compulsory3.json"],
     "stspgl solve: error: instance file's 'compulsory' has the wrong JSON type"),
    (["solve", "thetastr.json"],
     "stspgl solve: error: instance file's 'theta' has the wrong JSON type"),
    (["solve", "alphabool.json"],
     "stspgl solve: error: instance file's 'alpha' has the wrong JSON type"),
    (["solve", "hstr.json"],
     "stspgl solve: error: instance file's 'requests' has the wrong JSON type"),
    (["solve", "demandbool.json"],
     "stspgl solve: error: instance file's 'requests' has the wrong JSON type"),
    (["solve", "compulsoryfrac.json"],
     "stspgl solve: error: instance file's 'compulsory' has the wrong JSON type"),
    (["solve", "list.json"], "stspgl solve: error: instance file must hold a JSON object"),
], ids=["nodes", "theta", "grid-text", "grid-range", "missing-instance", "spec-budget",
        "spec-missing-instance", "solve-alpha", "solve-theta0", "solve-norho", "vss-alpha",
        "sweep-alpha", "spec-norho", "solve-theta-null", "solve-request-pairs",
        "solve-compulsory-number", "solve-theta-string", "solve-alpha-bool",
        "solve-request-id-string", "solve-demand-bool", "solve-compulsory-fraction",
        "solve-list"])
def test_cli_reports_bad_input_as_a_usage_error(d1, tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    _write_unsolvable_files(d1)
    for name, doc in (("zero.json", {"instances": ["d1.json"], "time_limit": 0}),
                      ("missing_instance.json", {"instances": ["missing.json"]}),
                      ("norho_spec.json", {"instances": ["norho.json"]})):
        Path(name).write_text(json.dumps({**doc, "methods": ["heuristic"], "out_dir": "out"}))
    before = sorted(tmp_path.iterdir())
    assert _usage_error(capsys, argv) == message
    # nothing written: no instance file, no bench output directory
    assert sorted(tmp_path.iterdir()) == before


def _write_unsolvable_files(d1):
    """d1.json, and twelve files that load or solve no more: edits of it
    with alpha out of range, theta 0 (no routing weights), no `rho` key,
    and eight values of the wrong JSON type (theta null or a string, alpha
    true, each request written as [h, k], a request's h a string, its
    demands true, the compulsory set as one number or as fractions), and
    a list in place of the object."""
    save_instance(d1, "d1.json")
    doc = json.loads(Path("d1.json").read_text())
    Path("alpha.json").write_text(json.dumps({**doc, "alpha": 1.5}))
    Path("theta0.json").write_text(json.dumps({**doc, "theta": 0.0}))
    Path("norho.json").write_text(json.dumps({k: v for k, v in doc.items() if k != "rho"}))
    Path("thetanull.json").write_text(json.dumps({**doc, "theta": None}))
    Path("pairs.json").write_text(json.dumps(
        {**doc, "requests": [[req["h"], req["k"]] for req in doc["requests"]]}))
    Path("compulsory3.json").write_text(json.dumps({**doc, "compulsory": 3}))
    first, *rest = doc["requests"]
    Path("thetastr.json").write_text(json.dumps({**doc, "theta": str(doc["theta"])}))
    Path("alphabool.json").write_text(json.dumps({**doc, "alpha": True}))
    Path("hstr.json").write_text(json.dumps(
        {**doc, "requests": [{**first, "h": str(first["h"])}, *rest]}))
    Path("demandbool.json").write_text(json.dumps(
        {**doc, "requests": [{**first, "demand": [True] * len(first["demand"])}, *rest]}))
    Path("compulsoryfrac.json").write_text(json.dumps(
        {**doc, "compulsory": [i + 0.7 for i in doc["compulsory"]]}))
    Path("list.json").write_text("[1, 2]")


def test_sweep_takes_an_instance_file_with_theta_zero(d1, tmp_path, monkeypatch, capsys):
    # the grid sets theta, so the file's theta of 0 keeps no cell from solving
    monkeypatch.chdir(tmp_path)
    _write_unsolvable_files(d1)
    assert main(["sweep", "theta0.json", "--theta-grid", "0.5", "--rho-grid", "0.5",
                 "--method", "heuristic", "--time-limit", "60"]) == 0
    # the tour 0-1-3 serving (1, 3): design 1 + 2 + 3
    assert Path("sweep_design.csv").read_text().splitlines() == ["theta/rho,0.5", "0.5,6.0"]


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
    # every key `generate_instance` takes passes; a seed or any other key does not
    ExperimentSpec(generator={"count": 2, "start_seed": 4, "n": 5, "n_requests": 4,
                              "n_scenarios": 3, "theta": 0.7, "rho": 0.3, "alpha": 0.5,
                              "demand_presence": 0.9, "demand_max": 5}).validate()
    with pytest.raises(ValueError, match=r"\['seed'\]; give the first instance's seed as start_seed"):
        ExperimentSpec(generator={"n": 5, "seed": 3}).validate()
    with pytest.raises(ValueError, match=r"unknown generator keys \['bogus'\]$"):
        ExperimentSpec(generator={"n": 5, "bogus": 1}).validate()
    path.write_text(json.dumps({"generator": {"n": 5, "seed": 3}, "out_dir": str(tmp_path / "x")}))
    with pytest.raises(ValueError, match="start_seed"):
        load_experiment_spec(path)
    assert not (tmp_path / "x").exists()
    # a generator without `n`, and a misspelt top-level key, are named
    with pytest.raises(ValueError, match=r"missing generator keys \['n'\]$"):
        ExperimentSpec(generator={"count": 1}).validate()
    path.write_text(json.dumps({"generator": {"count": 1}, "out_dir": str(tmp_path / "x")}))
    with pytest.raises(ValueError, match=r"\['n'\]"):
        load_experiment_spec(path)
    path.write_text(json.dumps({"generator": {"n": 5}, "method": ["mip"], "time_limt": 1,
                                "out_dir": str(tmp_path / "x")}))
    with pytest.raises(ValueError, match=r"unknown spec keys \['method', 'time_limt'\]$"):
        load_experiment_spec(path)
    assert not (tmp_path / "x").exists()
    # keys left out take the dataclass defaults; given ones keep their types
    path.write_text(json.dumps({"generator": {"n": 5}, "seeds": [4.0], "time_limit": 7}))
    spec = load_experiment_spec(path)
    assert spec == ExperimentSpec(generator={"n": 5}, seeds=[4], time_limit=7.0)
    assert (type(spec.seeds[0]), type(spec.time_limit)) == (int, float)


@pytest.mark.parametrize("budget, message", [
    ({"time_limit": 0}, "time_limit must be positive"),
    ({"time_limit": -1}, "time_limit must be positive"),
    ({"gap_target": 0.0}, r"gap_target must lie in \(0, 1\)"),
    ({"gap_target": 1.5}, r"gap_target must lie in \(0, 1\)"),
])
def test_load_rejects_a_budget_no_solve_takes(tmp_path, capsys, budget, message):
    # the solver's own rule and message, at load, before any output exists
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"generator": {"n": 5}, "methods": ["heuristic"],
                                "out_dir": str(tmp_path / "out"), **budget}))
    with pytest.raises(ValueError, match=message):
        load_experiment_spec(path)
    assert re.fullmatch(f"stspgl bench: error: {message}", _usage_error(capsys, ["bench", str(path)]))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("instances", "abc"), ("methods", "bp"),
                                        ("seeds", "12")])
def test_load_rejects_a_string_where_a_list_goes(tmp_path, key, value):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"generator": {"n": 5}, key: value,
                                "out_dir": str(tmp_path / "out")}))
    with pytest.raises(ValueError, match=f"^spec key '{key}' takes a list, not a string$"):
        load_experiment_spec(path)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys, message", [
    ({"seeds": [1.5]}, "'seeds' takes integers, not 1.5"),
    ({"seeds": [True]}, "'seeds' takes integers, not True"),
    ({"seeds": [2, "3"]}, "'seeds' takes integers, not '3'"),
    ({"generator": {"n": 5, "count": 1.7}}, "'count' takes integers, not 1.7"),
    ({"generator": {"n": 5, "count": False}}, "'count' takes integers, not False"),
    ({"generator": {"n": 5, "count": 0}}, "'count' must be at least 1, not 0"),
    ({"generator": {"n": 5, "count": -2}}, "'count' must be at least 1, not -2"),
    ({"generator": {"n": 5, "count": -2.0}}, r"'count' must be at least 1, not -2\.0"),
    ({"generator": {"n": 5, "start_seed": 0.5}}, "'start_seed' takes integers, not 0.5"),
    ({"generator": {"n": 5, "start_seed": True}}, "'start_seed' takes integers, not True"),
])
def test_load_rejects_an_integer_key_that_is_not_an_integer(tmp_path, capsys, keys, message):
    # a spec that would silently truncate to another seed or count fails at
    # load, before any run or output; an integral float such as 4.0 passes
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"generator": {"n": 5}, "methods": ["heuristic"],
                                "out_dir": str(tmp_path / "out"), **keys}))
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_experiment_spec(path)
    assert re.fullmatch(f"stspgl bench: error: {message}", _usage_error(capsys, ["bench", str(path)]))
    assert not (tmp_path / "out").exists()
    ExperimentSpec(generator={"n": 5, "count": 2.0, "start_seed": 3.0}, seeds=[4.0]).validate()


@pytest.mark.parametrize("method", ["bp", "hybrid"])
def test_cli_generate_and_solve_roundtrip(tmp_path, method):
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
    code = main(["solve", str(inst_path), "--method", method,
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


@pytest.mark.parametrize("method", ["mip", "heuristic", "deterministic"])
def test_cli_cg_log_of_a_method_without_pricing_is_its_header(d1, tmp_path, method):
    inst_path = tmp_path / "d1.json"
    save_instance(d1, inst_path)
    log_path = tmp_path / "cg.csv"
    code = main(["solve", str(inst_path), "--method", method, "--time-limit", "60",
                 "--cg-log", str(log_path), "-o", str(tmp_path / "res.json")])
    assert code == 0
    assert log_path.read_text() == "iter,rmp_obj,pricing_obj,lb,columns,phi\n"


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
                            lower_bound=None, gap=None, incumbent=None)

    monkeypatch.setattr("stspgl.evalcli.run_method", fake)
    assert main(["solve", str(inst_path), "--method", "mip",
                 "-o", str(tmp_path / "r.json")]) == 2

    def timed_out(method, inst, cfg):
        return StspGlResult(status="TimeLimit", upper_bound=None,
                            lower_bound=None, gap=None, incumbent=None)

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


def _masked(text, *time_columns):
    """The lines of a CSV file with the given columns of each data row
    replaced by "T": they hold wall times."""
    lines = text.splitlines()
    for at, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        for col in time_columns:
            cells[col] = "T"
        lines[at] = ",".join(cells)
    return lines


def test_every_csv_artifact_keeps_its_bytes(d1, tmp_path, capsys):
    save_instance(d1, tmp_path / "d1.json")
    inst, budget = str(tmp_path / "d1.json"), ["--time-limit", "60"]
    assert main(["solve", inst, "--method", "bp", *budget, "--trace", str(tmp_path / "t.csv"),
                 "--cg-log", str(tmp_path / "cg.csv"), "-o", str(tmp_path / "r.json")]) == 0
    assert _masked((tmp_path / "t.csv").read_text(), 0) == [
        "t_seconds,event,ub,lb,cover_size,nodes_visited",
        "T,start,,,,",
        "T,bound,,3.5,,",
        "T,bound,,4.5,,",
        "T,score,,4.5,1,3",
        "T,score,,4.5,1,3",
        "T,incumbent,5.0,4.5,1,3",
        "T,evaluate,5.0,4.5,1,3",
        "T,discard,5.0,4.5,1,",
        "T,bound,5.0,5.0,,",
        "T,final,5.0,5.0,,",
    ]
    # the round-1 master has two optimal dual vertices, each pricing a
    # different cover at -3.5; the log records the path HiGHS takes
    assert (tmp_path / "cg.csv").read_text() == (
        "iter,rmp_obj,pricing_obj,lb,columns,phi\n"
        "1,7.0,-3.5,3.5,1,0\n"
        "2,5.0,-3.0,3.5,2,0\n"
        "3,4.5,0.0,4.5,3,0\n"
        "4,7.0,,5.0,3,2\n")

    vss = ("nodes,theta,rho,method,det_status,det_design,det_nbar,det_dbar,det_rhobar,"
           "det_infeasible,sto_status,sto_design,sto_nbar,sto_dbar,sto_rhobar,"
           "sto_infeasible,flagged\n"
           "5,0.5,0.5,mip,Optimal,6.0,3,0.5,0.5,False,Optimal,6.0,3,0.5,0.5,False,False\n")
    capsys.readouterr()
    assert main(["vss", inst, *budget, "-o", str(tmp_path / "vss.csv")]) == 0
    assert (tmp_path / "vss.csv").read_text() == vss
    assert main(["vss", inst, *budget]) == 0
    assert capsys.readouterr().out == vss

    prefix = str(tmp_path / "sw")
    assert main(["sweep", inst, "--theta-grid", "0.0,1.0,0.5", "--rho-grid", "0.0,0.5",
                 *budget, "-o", prefix]) == 0
    assert (tmp_path / "sw_design.csv").read_text() == \
        "theta/rho,0.0,0.5\n0.0,,\n1.0,8.0,6.0\n0.5,8.0,6.0\n"
    assert (tmp_path / "sw_nodes.csv").read_text() == \
        "theta/rho,0.0,0.5\n0.0,,\n1.0,5,3\n0.5,5,3\n"

    (tmp_path / "spec.json").write_text(json.dumps({
        "instances": [inst], "methods": ["mip", "bp", "heuristic"], "seeds": [0, 1],
        "time_limit": 60, "out_dir": str(tmp_path / "b")}))
    assert main(["bench", str(tmp_path / "spec.json")]) == 0
    assert _masked((tmp_path / "b" / "bench_runs.csv").read_text(), 10) == [
        "instance,nodes,requests,scenarios,method,seed,status,ub,lb,gap,seconds",
        "d1,5,2,2,mip,0,Optimal,5.0,5.0,0.0,T",
        "d1,5,2,2,mip,1,Optimal,5.0,5.0,0.0,T",
        "d1,5,2,2,bp,0,Optimal,5.0,5.0,0.0,T",
        "d1,5,2,2,bp,1,Optimal,5.0,5.0,0.0,T",
        "d1,5,2,2,heuristic,0,Feasible,5.0,,,T",
        "d1,5,2,2,heuristic,1,Feasible,5.0,,,T",
    ]
    assert _masked((tmp_path / "b" / "bench_table.csv").read_text(), 5) == [
        "method,runs,mean_ub,mean_lb,mean_gap,mean_seconds,no_ub",
        "bp,2,5.0,5.0,0.0,T,0",
        "heuristic,2,5.0,,,T,0",
        "mip,2,5.0,5.0,0.0,T,0",
    ]


@pytest.mark.parametrize("method, digest", [
    ("bp", "2e345a2fd2159e609496c636dd9eef1f160342bc264a11449da4c1cb84079b01"),
    ("hybrid", "9f8f55aa81d4fd935201266c8e09d463d63bc4145a0c70ddd0ccbbe856a20209"),
])
def test_cli_cg_log_keeps_its_bytes(tmp_path, method, digest):
    # five and three pricing rounds, every cell written by `csv_line`
    inst = generate_instance(n=10, seed=1, n_requests=14, n_scenarios=6, theta=0.8, rho=0.2)
    save_instance(inst, tmp_path / "inst.json")
    log_path = tmp_path / "cg.csv"
    assert main(["solve", str(tmp_path / "inst.json"), "--method", method, "--time-limit", "120",
                 "--gap", "1e-9", "--seed", "7", "--cg-log", str(log_path),
                 "-o", str(tmp_path / "res.json")]) == 0
    assert hashlib.sha256(log_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("method", METHODS)
def test_run_method_judges_the_incumbent_on_the_callers_instance(method):
    inst = generate_instance(n=8, seed=2, n_requests=8, n_scenarios=4, theta=0.8, rho=0.2)
    res = run_method(method, inst, cfg60())
    sol = res.incumbent
    assert res.metrics == evaluate_metrics(inst, sol.served, sol.design_cost, sol.visited)
    assert json.loads(res.to_json(inst))["metrics"] == dataclasses.asdict(res.metrics)


@pytest.mark.parametrize("method", METHODS)
def test_result_cover_is_the_served_request_set(method):
    # every incumbent is scored on its own cover's sub-instance, so the
    # result JSON's `cover` is its `served`
    for n, seed in ((7, 1), (8, 2), (9, 3)):
        inst = generate_instance(n=n, seed=seed, n_requests=8, n_scenarios=4,
                                 theta=0.8, rho=0.2)
        doc = json.loads(run_method(method, inst, cfg60(seed)).to_json(inst))
        assert doc["served"]
        assert doc["cover"] == doc["served"]


@pytest.mark.parametrize("method", METHODS)
def test_every_method_rejects_theta_zero(d1, method):
    # at theta 0 the heuristic scores only the empty cover, which routes no
    # request; the search still needs the routing weights defined
    zero = dataclasses.replace(d1, theta=0.0)
    with pytest.raises(ParameterError, match="theta must be positive"):
        run_method(method, zero, cfg60())
