import csv
import json
import math
import pathlib
import re

import numpy as np
import pytest

from plnet import cli, harness, problems
from plnet.harness import ConfigError


def minimal_config(tmp_path, **overrides):
    cfg = {
        "problem": {"kind": "quadratic", "n": 2, "d": 2, "seed": 0},
        "graph": {"kind": "static"},
        "algorithm": {"kind": "dgd", "gamma": 0.5, "iterations": 10, "record_every": 1},
        "oracle": {"delta": 0.0, "sigma": 0.0},
        "seeds": [0],
        "output": str(tmp_path / "trace"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    algorithm = overrides.get("algorithm", {})
    if algorithm.get("theory_auto") and "iterations" not in algorithm:
        del cfg["algorithm"]["iterations"]
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(csv_path):
    with open(csv_path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_minimal_run_trace(tmp_path):
    path = write_config(tmp_path, minimal_config(tmp_path))
    csv_path, sidecar, failures = harness.run(path)
    assert not failures
    rows = read_rows(csv_path)
    assert len(rows) == 11  # iterates 0..10
    gaps = [float(r["f_gap"]) for r in rows]
    assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    meta = json.loads(pathlib.Path(sidecar).read_text())
    assert meta["runs"][0]["status"] == "ok"
    assert meta["constants"]["mu"] == pytest.approx(1.0)


def test_rerun_byte_identical(tmp_path):
    cfg = minimal_config(tmp_path, oracle={"sigma": 0.3}, seeds=[1, 2, 3])
    path = write_config(tmp_path, cfg)
    csv_path, sidecar, _ = harness.run(path)
    first = (pathlib.Path(csv_path).read_bytes(), pathlib.Path(sidecar).read_bytes())
    harness.run(path)
    second = (pathlib.Path(csv_path).read_bytes(), pathlib.Path(sidecar).read_bytes())
    assert first == second


def test_comm_rounds_column_matches_clock(tmp_path):
    cfg = minimal_config(tmp_path, algorithm={"rounds": 7})
    csv_path, _, _ = harness.run(write_config(tmp_path, cfg))
    rows = read_rows(csv_path)
    assert int(rows[-1]["comm_rounds"]) == 10 * 7


def test_float_serialization_round_trips(tmp_path):
    cfg = minimal_config(tmp_path, oracle={"sigma": 0.25}, seeds=[5])
    csv_path, _, _ = harness.run(write_config(tmp_path, cfg))
    rows = read_rows(csv_path)
    values = [float(r["f_gap"]) for r in rows]
    # rewrite through the same formatter and compare exactly
    for v in values:
        assert float(format(v, ".17g")) == v


def test_minimization_rows_leave_saddle_columns_empty(tmp_path):
    csv_path, _, _ = harness.run(write_config(tmp_path, minimal_config(tmp_path)))
    for row in read_rows(csv_path):
        assert row["consensus_err_y"] == ""
        assert row["grad_norm_y"] == ""


def test_bound_column_present_iff_overlay(tmp_path):
    base = minimal_config(tmp_path)
    csv_path, _, _ = harness.run(write_config(tmp_path, base))
    assert all(r["bound_f_gap"] == "" for r in read_rows(csv_path))
    cfg = minimal_config(tmp_path, overlay_bounds=True,
                         algorithm={"eps": 1e-8, "delta_prime": 1e-10})
    csv_path2, _, _ = harness.run(write_config(tmp_path, cfg, "c2.json"))
    rows = read_rows(csv_path2)
    assert all(r["bound_f_gap"] != "" for r in rows)
    for row in rows:
        assert float(row["f_gap"]) <= float(row["bound_f_gap"]) * (1 + 1e-9) + 1e-15


def test_wall_time_zero_by_default_measured_on_request(tmp_path):
    path = write_config(tmp_path, minimal_config(tmp_path))
    csv_path, _, _ = harness.run(path)
    assert all(float(r["wall_time_s"]) == 0.0 for r in read_rows(csv_path))
    sweep_path, _ = harness.sweep(path, "sigma", [0.0, 0.1])
    assert all(float(r["wall_time_s"]) == 0.0 for r in read_rows(sweep_path))
    cfg = minimal_config(tmp_path, record_wall_time=True,
                         algorithm={"iterations": 200})
    path2 = write_config(tmp_path, cfg, "c2.json")
    csv_path2, _, _ = harness.run(path2)
    assert float(read_rows(csv_path2)[-1]["wall_time_s"]) > 0.0
    sweep_path2, _ = harness.sweep(path2, "sigma", [0.0, 0.1])
    assert all(float(r["wall_time_s"]) > 0.0 for r in read_rows(sweep_path2))


def test_mgda_run_via_harness(tmp_path):
    cfg = {
        "problem": {"kind": "robust_ls", "n": 3, "d_x": 2, "d_y": 2,
                    "alpha": 2.0, "seed": 1},
        "graph": {"kind": "static", "topology": "complete"},
        "algorithm": {"kind": "mgda", "gamma_x": 0.05, "gamma_y": 0.05,
                      "outer_iterations": 50, "inner_iterations": 5,
                      "rounds": 2, "record_every": 10},
        "seeds": [0],
        "output": str(tmp_path / "saddle"),
    }
    csv_path, sidecar, failures = harness.run(write_config(tmp_path, cfg))
    assert not failures
    rows = read_rows(csv_path)
    assert rows[0]["consensus_err_y"] != ""
    meta = json.loads(pathlib.Path(sidecar).read_text())
    assert "mu_y" in meta["constants"]
    gaps = [float(r["f_gap"]) for r in rows]
    assert gaps[-1] < gaps[0]


def test_theory_auto_configures_run(tmp_path):
    cfg = minimal_config(tmp_path, algorithm={
        "kind": "dgd", "theory_auto": True, "eps": 1e-6, "delta_prime": 1e-8,
        "record_every": 1000})
    cfg["algorithm"].pop("gamma")
    cfg["graph"] = {"kind": "static", "topology": "ring"}
    cfg["problem"]["n"] = 4
    csv_path, sidecar, failures = harness.run(write_config(tmp_path, cfg))
    assert not failures
    meta = json.loads(pathlib.Path(sidecar).read_text())
    budget = meta["budget"]
    rows = read_rows(csv_path)
    assert int(rows[-1]["k"]) == budget["N"]
    assert int(rows[-1]["comm_rounds"]) == budget["N"] * budget["T"]
    assert float(rows[-1]["f_gap"]) <= budget["eps"] + budget["floor"]


def test_sweep_axis_row_counts_and_monotonicity(tmp_path):
    cfg = minimal_config(tmp_path, seeds=[0, 1, 2, 3, 4, 5, 6, 7],
                         algorithm={"iterations": 60})
    path = write_config(tmp_path, cfg)
    sweep_path, failures = harness.sweep(path, "sigma", [0.0, 0.1, 0.5])
    assert not failures
    rows = read_rows(sweep_path)
    assert len(rows) == 3 * 8
    means = {}
    for value in (0.0, 0.1, 0.5):
        vals = [float(r["f_gap"]) for r in rows
                if r["value"] == str(value)]
        assert len(vals) == 8
        means[value] = np.mean(vals)
    assert means[0.0] <= means[0.1] <= means[0.5]


def test_sweep_rounds_reduce_consensus_error(tmp_path):
    cfg = {
        "problem": {"kind": "least_squares", "n": 5, "d": 3, "seed": 2},
        "graph": {"kind": "static", "topology": "ring"},
        "algorithm": {"kind": "dgd", "gamma": 0.02, "iterations": 40,
                      "rounds": 1, "record_every": 40},
        "oracle": {"sigma": 0.2},
        "seeds": [0, 1, 2],
        "output": str(tmp_path / "rounds"),
    }
    sweep_path, _ = harness.sweep(write_config(tmp_path, cfg), "rounds",
                                  [1, 5, 20])
    rows = read_rows(sweep_path)
    err = {v: np.mean([float(r["consensus_err_x"]) for r in rows
                       if r["value"] == str(v)])
           for v in (1, 5, 20)}
    assert err[1] >= err[5] >= err[20]


def test_sweep_unknown_axis_rejected(tmp_path):
    path = write_config(tmp_path, minimal_config(tmp_path))
    with pytest.raises(ConfigError, match="axis"):
        harness.sweep(path, "warp_factor", [1, 2])


def test_sweep_over_node_count(tmp_path):
    cfg = {
        "problem": {"kind": "robust_ls", "n": 3, "d_x": 2, "d_y": 2,
                    "alpha": 2.0, "seed": 1},
        "graph": {"kind": "static", "topology": "random", "degree": 4,
                  "seed": 0},
        "algorithm": {"kind": "mgda", "gamma_x": 1e-3, "gamma_y": 1e-3,
                      "outer_iterations": 20, "inner_iterations": 5,
                      "rounds": 3, "record_every": 20},
        "seeds": [0, 1],
        "seed_scope": "problem-and-oracle",
        "output": str(tmp_path / "nodes"),
    }
    sweep_path, failures = harness.sweep(write_config(tmp_path, cfg), "n",
                                         [3, 5, 7])
    assert not failures
    rows = read_rows(sweep_path)
    assert len(rows) == 3 * 2  # one summary row per value per seed


def test_validate_passes_on_good_config(tmp_path):
    checks, ok = harness.validate(write_config(tmp_path, minimal_config(tmp_path)))
    assert ok, checks


def test_validate_names_the_configured_problem_kind(tmp_path, capsys):
    # a quadratic config was reported as "least_squares built"
    assert cli.main(["validate", write_config(tmp_path, minimal_config(tmp_path))]) == 0
    assert "PASS problem: quadratic built\n" in capsys.readouterr().out


def test_validate_reports_bad_alpha(tmp_path):
    cfg = {
        "problem": {"kind": "robust_ls", "n": 2, "d_x": 2, "d_y": 2,
                    "alpha": 0.5},
        "algorithm": {"kind": "mgda", "gamma_x": 0.1, "gamma_y": 0.1,
                      "outer_iterations": 1, "inner_iterations": 1},
    }
    checks, ok = harness.validate(cfg)
    assert not ok
    assert any(name == "config" and not passed for name, passed, _ in checks)


def test_validate_reports_disconnected_graph(tmp_path, capsys):
    # a disconnected tau-connected base graph is refused where its lam is
    # measured, as a disconnected static graph is
    for n, graph in ((2, {"kind": "static", "edges": []}),
                     (4, {"kind": "tau-connected", "tau": 2, "edges": [[0, 1], [2, 3]]})):
        cfg = minimal_config(tmp_path, problem={"n": n})
        cfg["graph"] = graph
        checks, ok = harness.validate(cfg)
        assert not ok
        failed = {name for name, passed, _ in checks if not passed}
        assert "contraction" in failed
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
        assert re.search(r"config\.json: graph: .*does not contract", capsys.readouterr().err)


def test_cli_validate_exits_nonzero_when_a_check_fails(tmp_path, capsys):
    # a failed check used to exit 0, so no script could act on it
    cfg = minimal_config(tmp_path)
    cfg["graph"] = {"kind": "static", "edges": []}
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 1
    assert "FAIL contraction" in capsys.readouterr().out


def test_theory_report_names_missing_targets_like_the_config_check(tmp_path):
    # the budget targets are checked by one helper: the message names the
    # file and the field, as resolve_config's do
    cfg = minimal_config(tmp_path)
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match=r"config\.json: algorithm\.eps: missing"):
        harness.theory_report(path)
    cfg = minimal_config(tmp_path, algorithm={"eps": 1e-6, "delta_prime": 1e-8})
    cfg["problem"] = {"kind": "robust_ls", "n": 2, "d_x": 2, "d_y": 2}
    del cfg["algorithm"]["gamma"], cfg["algorithm"]["iterations"]
    cfg["algorithm"].update(kind="mgda", gamma_x=0.1, gamma_y=0.1,
                            outer_iterations=1, inner_iterations=1)
    with pytest.raises(ConfigError, match=r"algorithm\.eps_y: missing required field"):
        harness.theory_report(write_config(tmp_path, cfg))


def test_an_oracle_seed_is_refused_at_its_key(tmp_path, capsys):
    # run seeds come from `seeds` alone; an oracle.seed was echoed in the
    # sidecar of a run that never read it
    cfg = minimal_config(tmp_path, oracle={"seed": 7},
                         algorithm={"eps": 1e-6, "delta_prime": 1e-6})
    path = write_config(tmp_path, cfg)
    error = f"error: {path}: oracle.seed: unknown field\n"
    for argv in (["run", path], ["theory", path],
                 ["sweep", path, "--axis", "gamma", "--values", "0.1,0.2"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == error
    assert cli.main(["validate", path]) == 1
    assert f"FAIL config: {path}: oracle.seed: unknown field\n" in capsys.readouterr().out
    assert not list(tmp_path.glob("trace*.csv"))


def test_a_config_without_seeds_runs_seed_0(tmp_path):
    cfg = minimal_config(tmp_path, oracle={"sigma": 0.3})
    del cfg["seeds"]
    first, second = harness.resolve_config(cfg), harness.resolve_config(cfg)
    assert first["seeds"] == [0] and first["seeds"] is not second["seeds"]
    csv_path, sidecar, _ = harness.run(write_config(tmp_path, cfg))
    unseeded = pathlib.Path(csv_path).read_bytes()
    assert {row["seed"] for row in read_rows(csv_path)} == {"0"}
    assert json.loads(pathlib.Path(sidecar).read_text())["config"]["seeds"] == [0]
    csv_path, _, _ = harness.run(write_config(tmp_path, dict(cfg, seeds=[0])))
    assert pathlib.Path(csv_path).read_bytes() == unseeded


def test_config_errors_are_anchored(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n "problem": {\n')
    with pytest.raises(ConfigError, match=r"bad\.json:\d+"):
        harness.run(str(bad))
    cfg = minimal_config(tmp_path)
    del cfg["algorithm"]["gamma"]
    with pytest.raises(ConfigError, match="algorithm.gamma"):
        harness.resolve_config(cfg)


def test_divergent_run_writes_failure_row(tmp_path):
    cfg = minimal_config(tmp_path, algorithm={"gamma": 1e8,
                                              "iterations": 500})
    cfg["problem"] = {"kind": "least_squares", "n": 3, "d": 2, "seed": 0}
    with np.errstate(over="ignore", invalid="ignore"):
        csv_path, sidecar, failures = harness.run(write_config(tmp_path, cfg))
    assert failures
    rows = read_rows(csv_path)
    assert rows[0]["k"] == "-1"
    assert rows[0]["f_gap"] == ""
    meta = json.loads(pathlib.Path(sidecar).read_text())
    assert meta["runs"][0]["status"].startswith("diverged")


def test_cli_run_and_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config(tmp_path))
    assert cli.main(["run", path]) == 0
    assert cli.main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    bad = tmp_path / "nope.json"
    bad.write_text("{")
    assert cli.main(["run", str(bad)]) == 2


def test_cli_theory_json(tmp_path, capsys):
    cfg = minimal_config(tmp_path, algorithm={"eps": 1e-6, "delta_prime": 1e-8})
    path = write_config(tmp_path, cfg)
    assert cli.main(["theory", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["budget"]["N"] >= 1
    assert payload["constants"]["n"] == 2


def test_cli_sweep(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config(tmp_path))
    assert cli.main(["sweep", path, "--axis", "sigma",
                     "--values", "0,0.2"]) == 0


@pytest.mark.parametrize("kind", ["centralized_gd", "centralized_gda"])
def test_theory_auto_rejected_for_centralized_runs(tmp_path, capsys, kind):
    # the centralized runners are test references: the harness runs only
    # the decentralized methods its budgets cover, so theory_auto never reaches
    # them and the kind itself is refused
    cfg = {
        "problem": {"kind": "robust_ls", "n": 2, "d_x": 2, "d_y": 2},
        "algorithm": {"kind": kind, "theory_auto": True, "eps": 1e-3,
                      "delta_prime": 1e-3, "eps_y": 1e-3, "delta_prime_y": 1e-3},
        "output": str(tmp_path / "central"),
    }
    with pytest.raises(ConfigError, match=r"algorithm\.kind: unknown kind "):
        harness.resolve_config(cfg)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: algorithm.kind: unknown kind ")


def test_overlay_bounds_requires_eps_and_delta_prime(tmp_path):
    cfg = minimal_config(tmp_path, overlay_bounds=True)
    with pytest.raises(ConfigError, match="algorithm.eps"):
        harness.resolve_config(cfg)
    cfg["algorithm"]["eps"] = 1e-8
    with pytest.raises(ConfigError, match="algorithm.delta_prime"):
        harness.resolve_config(cfg)
    del cfg["algorithm"]["eps"]
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2


def test_sweep_rows_equal_final_rows_of_run(tmp_path):
    # a sweep row is the axis and value followed by the last trace row of the
    # run of the config with the axis value set before defaults are filled:
    # MGDA "rounds" drives rounds_x and rounds_y; a diverged run's row is k = -1
    dgd = {
        "problem": {"kind": "least_squares", "n": 5, "d": 3, "seed": 2},
        "graph": {"kind": "static", "topology": "ring"},
        "algorithm": {"kind": "dgd", "gamma": 0.02, "iterations": 30,
                      "rounds": 1, "record_every": 7},
        "oracle": {"sigma": 0.2},
        "seeds": [0, 1],
    }
    mgda = {
        "problem": {"kind": "robust_ls", "n": 4, "d_x": 2, "d_y": 2,
                    "alpha": 2.0, "seed": 3},
        "graph": {"kind": "static", "topology": "ring"},
        "algorithm": {"kind": "mgda", "gamma_x": 0.01, "gamma_y": 0.01,
                      "outer_iterations": 20, "inner_iterations": 3,
                      "rounds": 2, "record_every": 6},
        "seeds": [0, 1],
    }
    cases = [("dgd", dgd, "rounds", [1, 3]), ("mgda", mgda, "rounds", [1, 3]),
             ("dgd-gamma", dgd, "gamma", [0.02, 1e50])]
    for name, cfg, axis, values in cases:
        cfg = dict(cfg, output=str(tmp_path / name))
        with np.errstate(over="ignore", invalid="ignore"):
            sweep_path, failures = harness.sweep(cfg, axis, values)
        assert [value for value, _, _ in failures] == (
            ["gamma=1e+50"] * 2 if axis == "gamma" else [])
        with open(sweep_path) as fh:
            assert fh.readline() == ",".join(["axis", "value", *harness.CSV_HEADER]) + "\n"
        rows = read_rows(sweep_path)
        assert len(rows) == 2 * 2
        for value in values:
            single = json.loads(json.dumps(cfg))
            single["algorithm"][axis] = value
            single["output"] = str(tmp_path / f"{name}-{value}")
            with np.errstate(over="ignore", invalid="ignore"):
                csv_path, _, _ = harness.run(single)
            last = {}
            for row in read_rows(csv_path):
                last[row["run_id"]] = row
            summaries = [r for r in rows if r["value"] == str(value)]
            assert summaries == [{"axis": axis, "value": str(value), **last[r["run_id"]]}
                                 for r in summaries]
            assert len(summaries) == len(last) == 2
            assert {r["k"] == "-1" for r in summaries} == {value == 1e50}


def test_sidecar_runs_entries_have_exact_keys(tmp_path):
    # every run entry carries only what varies: a finished run adds its rounds
    ok = minimal_config(tmp_path)
    diverged = minimal_config(tmp_path, algorithm={"gamma": 1e8, "iterations": 500},
                              problem={"kind": "least_squares", "n": 3, "d": 2})
    keys = []
    for cfg in (ok, diverged):
        with np.errstate(over="ignore", invalid="ignore"):
            _, sidecar, _ = harness.run(cfg)
        runs = json.loads(pathlib.Path(sidecar).read_text())["runs"]
        keys.append([set(entry) for entry in runs])
    assert keys == [[{"run_id", "seed", "status", "total_comm_rounds"}],
                    [{"run_id", "seed", "status"}]]


def test_theory_budget_refused_on_aperiodic_graphs(tmp_path):
    # a per-step-connected lam comes from sampled windows, so it bounds nothing
    graph = {"kind": "per-step-connected", "degree": 2, "seed": 1}
    auto = minimal_config(tmp_path, graph=graph, algorithm={
        "theory_auto": True, "eps": 1e-6, "delta_prime": 1e-8})
    overlay = minimal_config(tmp_path, graph=graph, overlay_bounds=True,
                             algorithm={"eps": 1e-6, "delta_prime": 1e-8})
    for cfg in (auto, overlay):
        with pytest.raises(ConfigError, match="graph.kind"):
            harness.run(cfg)
        with pytest.raises(ConfigError, match="graph.kind"):
            harness.theory_report(cfg)
    assert cli.main(["theory", write_config(tmp_path, auto)]) == 2
    # without a budget the graph still runs
    plain = minimal_config(tmp_path, graph=graph)
    assert not harness.run(plain)[2]


def test_sampled_lam_is_labelled_in_sidecar_and_validate(tmp_path):
    # a periodic sequence's lam is exact; an aperiodic one's is a sample
    cases = [({"kind": "static", "topology": "ring"}, "exact"),
             ({"kind": "per-step-connected", "degree": 2, "seed": 1}, "sampled")]
    for graph, kind in cases:
        cfg = minimal_config(tmp_path, problem={"n": 4}, graph=graph)
        _, sidecar, _ = harness.run(cfg)
        constants = json.loads(pathlib.Path(sidecar).read_text())["constants"]
        assert constants["lam_kind"] == kind
        checks, ok = harness.validate(cfg)
        assert ok, checks
        detail = dict((name, detail) for name, _, detail in checks)["contraction"]
        lam = f"contraction factor {constants['lam']:.6g}"
        if kind == "exact":
            assert detail == lam
        else:
            assert detail.startswith(lam) and "sampled estimate, not a bound" in detail


@pytest.mark.parametrize("kind, key, value", [
    ("dgd", "rounds", -1), ("dgd", "iterations", -1), ("dgd", "record_every", 0),
    ("dgd", "rounds", 1.5), ("mgda", "outer_iterations", -1),
    ("mgda", "inner_iterations", -2), ("mgda", "rounds_x", -1),
    ("mgda", "rounds_y", -1)])
def test_cli_rejects_bad_counts_with_an_anchored_error(tmp_path, capsys, kind, key, value):
    # a negative count used to pass validation and then end `plnet run` in
    # a raw traceback from inside the run
    cfg = minimal_config(tmp_path)
    if kind == "mgda":
        cfg["problem"] = {"kind": "robust_ls", "n": 2, "d_x": 2, "d_y": 2}
        cfg["algorithm"] = {"kind": "mgda", "gamma_x": 0.1, "gamma_y": 0.1,
                            "outer_iterations": 2, "inner_iterations": 2}
    cfg["algorithm"][key] = value
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 2
    assert f"{path}: algorithm.{key}: " in capsys.readouterr().err
    assert cli.main(["validate", path]) == 1
    assert f"FAIL config: {path}: algorithm.{key}: " in capsys.readouterr().out


def test_cli_budget_errors_name_the_config_and_key(tmp_path, capsys):
    aperiodic = minimal_config(tmp_path, graph={"kind": "per-step-connected", "degree": 2},
                               algorithm={"theory_auto": True, "eps": 1e-6,
                                          "delta_prime": 1e-8})
    path = write_config(tmp_path, aperiodic)
    for command in ("theory", "run"):
        assert cli.main([command, path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: graph.kind: ")
    central = minimal_config(tmp_path, algorithm={"kind": "centralized_gd"})
    path = write_config(tmp_path, central, name="central.json")
    assert cli.main(["theory", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: algorithm.kind: ")
    # exact consensus (delta_prime 0) is out of reach on a path
    unreachable = minimal_config(tmp_path, graph={"topology": "path"},
                                 problem={"kind": "least_squares", "n": 3},
                                 algorithm={"theory_auto": True, "eps": 1e-6,
                                            "delta_prime": 0.0})
    path = write_config(tmp_path, unreachable, name="unreachable.json")
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: algorithm.theory_auto: ")


def test_cli_refuses_a_misspelled_oracle_key(tmp_path, capsys):
    # an unknown oracle key used to escape resolve_config as a TypeError from
    # OracleSpec, so `plnet run` printed a traceback instead of exiting 2
    path = write_config(tmp_path, minimal_config(tmp_path, oracle={"sigam": 0.1}))
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: oracle.sigam: unknown field\n"


@pytest.mark.parametrize("section, key", [(None, "overlay_bound"), ("problem", "sed"),
                                          ("graph", "degre"), ("algorithm", "gama"),
                                          ("oracle", "noise_mode")])
def test_unknown_config_keys_are_refused(tmp_path, section, key):
    # a misspelled key used to be ignored, and the run used the default;
    # oracle.noise_mode names a removed option: noise is off only at sigma = 0
    cfg = minimal_config(tmp_path)
    (cfg if section is None else cfg[section])[key] = 1
    label = key if section is None else f"{section}.{key}"
    with pytest.raises(ConfigError, match=rf"^<config>: {label}: unknown field$"):
        harness.resolve_config(cfg)


def test_overlay_bounds_rejects_a_step_above_one_over_L_g(tmp_path):
    # the bounds assume gamma <= 1/L_g; a larger step used to run silently
    # and write rows above the bound printed next to them
    cfg = minimal_config(tmp_path, problem={"kind": "least_squares", "n": 4},
                         graph={"topology": "ring"}, overlay_bounds=True,
                         algorithm={"eps": 1e-6, "delta_prime": 1e-8})
    L_g = harness._build_problem(harness.resolve_config(cfg)).profile.L_g
    cfg["algorithm"]["gamma"] = 2.0 / L_g
    with pytest.raises(ConfigError, match=r"<config>: algorithm\.gamma: .* 1/L_g = "):
        harness.run(cfg)
    cfg["algorithm"]["gamma"] = 1.0 / L_g
    assert not harness.run(cfg)[2]


@pytest.mark.parametrize("key, label", [("gamma_x", "1/L_x"), ("gamma_y", "1/L_yy_g")])
def test_theory_auto_rejects_mgda_steps_above_the_budget(tmp_path, capsys, key, label):
    cfg = {
        "problem": {"kind": "robust_ls", "n": 3, "d_x": 2, "d_y": 2, "seed": 1},
        "graph": {"kind": "static", "topology": "complete"},
        "algorithm": {"kind": "mgda", "theory_auto": True, "eps": 1e-2,
                      "eps_y": 1e-3, "delta_prime": 1e-4, "delta_prime_y": 1e-5},
        "output": str(tmp_path / "mgda"),
    }
    prof = harness._build_problem(harness.resolve_config(cfg)).profile
    limit = {"gamma_x": 1.0 / prof.L_x, "gamma_y": 1.0 / prof.L_yy_g}[key]
    cfg["algorithm"][key] = 1.5 * limit
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 2
    assert f"{path}: algorithm.{key}: " in capsys.readouterr().err
    assert cli.main(["validate", path]) == 1
    assert f"FAIL theory: {path}: algorithm.{key}: " in capsys.readouterr().out
    assert f"{label} = " in harness.validate(path)[0][-1][2]
    cfg["algorithm"][key] = limit
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0
    assert "PASS theory: " in capsys.readouterr().out


def test_cli_validate_evaluates_the_theory_budget(tmp_path, capsys):
    # validate used to pass a config that run refuses for want of a budget
    cfg = minimal_config(tmp_path, graph={"kind": "per-step-connected", "degree": 2},
                         algorithm={"theory_auto": True, "eps": 1e-6,
                                    "delta_prime": 1e-8})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 2
    capsys.readouterr()
    assert cli.main(["validate", path]) == 1
    assert f"FAIL theory: {path}: graph.kind: " in capsys.readouterr().out


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_step_above_one_over_L_g_gets_the_anchored_error_with_noise_too(tmp_path, sigma):
    # a noisy oracle used to fail inside the stochastic budget, anchored at
    # `algorithm` and without the step, before the step check could run
    cfg = minimal_config(tmp_path, problem={"kind": "least_squares", "n": 4, "d": 2},
                         graph={"topology": "ring"}, overlay_bounds=True,
                         algorithm={"eps": 1e-6, "delta_prime": 1e-8},
                         oracle={"sigma": sigma})
    L_g = harness._build_problem(harness.resolve_config(cfg)).profile.L_g
    cfg["algorithm"]["gamma"] = 2.0 / L_g
    with pytest.raises(ConfigError, match=r"<config>: algorithm\.gamma: .* 1/L_g = "):
        harness.run(cfg)


def test_random_starts_are_refused(tmp_path, capsys):
    # runs and budgets start from the zero point; a random start used to run
    # whenever no budget was asked for
    cfg = minimal_config(tmp_path, init="random",
                         algorithm={"eps": 1e-6, "delta_prime": 1e-6})
    path = write_config(tmp_path, cfg)
    for command in ("run", "theory"):
        assert cli.main([command, path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: init: ")
    assert cli.main(["validate", path]) == 1
    assert f"FAIL config: {path}: init: " in capsys.readouterr().out


@pytest.mark.parametrize("section, value", [("oracle", []), ("graph", "ring"),
                                            ("problem", None), ("algorithm", 1)])
def test_cli_refuses_a_section_that_is_not_an_object(tmp_path, capsys, section, value):
    # such a section used to escape resolve_config as an AttributeError
    # traceback, and `plnet run` exited 1
    cfg = minimal_config(tmp_path)
    cfg[section] = value
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: {section}: must be an object\n"


@pytest.mark.parametrize("section, key, value, label", [
    (None, "seeds", ["a"], "seeds[0]"), (None, "seeds", [0, 1.5], "seeds[1]"),
    (None, "seeds", [-1], "seeds[0]"), (None, "seeds", [True], "seeds[0]"),
    ("problem", "seed", "a", "problem.seed"), ("graph", "seed", 1.5, "graph.seed"),
    ("problem", "d", 2.5, "problem.d"), ("problem", "d_i", 0, "problem.d_i"),
    ("problem", "d_x", 2.5, "problem.d_x"), ("problem", "d_y", 0, "problem.d_y")])
def test_cli_refuses_bad_seed_and_size_fields(tmp_path, capsys, section, key, value, label):
    # these used to end `plnet run` in a traceback once the instance was
    # built, and a bool seed ran as seed 1
    cfg = minimal_config(tmp_path)
    if key in ("d_x", "d_y"):
        cfg["problem"] = {"kind": "robust_ls", "n": 2, "d_x": 2, "d_y": 2}
        cfg["algorithm"] = {"kind": "mgda", "gamma_x": 0.1, "gamma_y": 0.1,
                            "outer_iterations": 2, "inner_iterations": 2}
    (cfg if section is None else cfg[section])[key] = value
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {label}: ")
    assert cli.main(["validate", path]) == 1
    assert f"FAIL config: {path}: {label}: " in capsys.readouterr().out


def test_mgda_theory_auto_refuses_an_unreachable_inner_target(tmp_path):
    # exact inner consensus (delta_prime_y 0) is out of reach on a path
    cfg = {
        "problem": {"kind": "robust_ls", "n": 4, "d_x": 2, "d_y": 2, "seed": 1},
        "graph": {"kind": "static", "topology": "path"},
        "algorithm": {"kind": "mgda", "theory_auto": True, "eps": 1e-2,
                      "eps_y": 1e-3, "delta_prime": 1e-4, "delta_prime_y": 0.0},
        "output": str(tmp_path / "mgda"),
    }
    with pytest.raises(ConfigError, match=r"<config>: algorithm\.theory_auto: "
                                          "consensus target unreachable"):
        harness.run(cfg)


def _per_cell_csv(path, header, rows):
    """The per-cell CSV writer the column writer replaced, as the reference."""
    def cell(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return "" if math.isnan(x) else format(x, ".17g")
        return str(x)

    with open(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(v) for v in row])


def test_column_csv_writer_matches_the_per_cell_writer(tmp_path):
    header = ["name", "count", "x", "y", "z"]
    rows = [["a,b", 3, 0.1, np.float64(1.0 / 3.0), float("nan")],
            ['say "hi"', -1, -0.0, None, float("inf")],
            ["plain", 0, 1e300, np.float64("nan"), -float("inf")],
            ["", 2**70, 5e-324, np.float64(-0.0), 2.5]]
    for cases in ([], rows[:1], rows * 40):  # 160 rows span two blocks
        harness._write_csv(str(tmp_path / "new.csv"), header, cases)
        _per_cell_csv(str(tmp_path / "old.csv"), header, cases)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert len(read_rows(tmp_path / "new.csv")) == len(cases)


def _column_block_csv(path, header, rows):
    """The column writer that formatted each cell on its own, as the reference:
    ``csv.writer`` over the columns of 128-row blocks."""
    with open(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, len(rows), 128):
            columns = (["" if v is None else str(v) if not isinstance(v, float)
                        else "" if v != v else format(v, ".17g") for v in column]
                       for column in zip(*rows[start:start + 128]))
            writer.writerows(zip(*columns))


@pytest.mark.parametrize("sweep", [False, True])
def test_csv_writer_matches_the_column_block_writer(tmp_path, sweep):
    # trace and sweep rows, with every kind of cell the runs write: floats
    # in whole columns (Python and numpy), blanks for NaN and None, the
    # extreme floats, and str cells that csv.writer has to quote
    rng = np.random.default_rng(7)
    floats = [0.1, -0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324,
              1.7976931348623157e308, 1e16, 1e17, 123456789012345678.0, 1e-5, 2.5e-300]
    rows = []
    for i in range(300):
        gaps = [floats[(i + j) % len(floats)] * (1.0 + rng.random()) for j in range(5)]
        bound = np.float64(floats[i % len(floats)]) if i % 3 else np.float64(rng.random())
        rows.append([f"dgd-{i % 7:03d}", i % 5, i - 1, 2 * i, *gaps,
                     None if i > 250 else bound, 0.0 if i % 2 else rng.random()])
    rows.append(["dgd-007", 7, -1, 0, *[float("nan")] * 5, None, 0.0])
    odd = [["a,b", 3, -0.0, None, 5e-324, float("inf"), 1, 2, 3, None, 0.0],
           ['say "hi"', 2**70, 0.1, np.float64(-0.0), -float("inf"), True, 1, 2, 3, 4.0, 0.5],
           ["line\nbreak", 0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
           ["carriage\rreturn", 0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
           ["", -1, float("nan"), np.float64("nan"), None, "x", 1, 2, 3, 4, 5]]
    header = harness.CSV_HEADER
    if sweep:
        header = ["axis", "value", *header]
        rows = [["n", str(4 + i % 3), *row] for row in rows]
        odd = [["delta", "0.5", *row] for row in odd]
    cases = [rows, rows[:1], rows + odd, rows[:129], *([*rows[:5], row] for row in odd)]
    for case in cases:
        harness._write_csv(str(tmp_path / "new.csv"), header, case)
        _column_block_csv(str(tmp_path / "old.csv"), header, case)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    for one in ([[""]], [["x"], [""]], [[1.5], [float("nan")]]):
        harness._write_csv(str(tmp_path / "new.csv"), ["only"], one)
        _column_block_csv(str(tmp_path / "old.csv"), ["only"], one)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_cli_theory_makes_the_step_check_of_run(tmp_path, capsys):
    # `plnet theory` used to print a budget for a step that run refuses
    cfg = minimal_config(tmp_path, problem={"kind": "least_squares", "n": 4},
                         graph={"topology": "ring"}, overlay_bounds=True,
                         algorithm={"gamma": 0.64, "eps": 1e-6, "delta_prime": 1e-8},
                         oracle={"sigma": 0.1})
    assert 0.64 > 1.0 / harness._build_problem(harness.resolve_config(cfg)).profile.L_g
    path = write_config(tmp_path, cfg)
    for command in ("theory", "run"):
        assert cli.main([command, path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: algorithm.gamma: ")


@pytest.mark.parametrize("scaled, key, label", [(("gamma_x", "gamma_y"), "gamma_x", "1/L_x"),
                                                (("gamma_y",), "gamma_y", "1/L_yy_g")])
def test_theory_auto_rejects_mgda_steps_below_the_budget(tmp_path, capsys, scaled, key,
                                                         label):
    # the saddle budget has no small-step variant: at 0.1/L its iteration
    # counts used to end this run at f_gap 0.031, against the budget's own
    # target eps_x + floor_x = 1.1e-3
    cfg = {
        "problem": {"kind": "robust_ls", "n": 6, "d_x": 2, "d_y": 2, "seed": 0},
        "graph": {"kind": "static", "topology": "ring"},
        "algorithm": {"kind": "mgda", "theory_auto": True, "eps": 1e-3,
                      "eps_y": 1e-4, "delta_prime": 1e-6, "delta_prime_y": 1e-6},
        "output": str(tmp_path / "mgda"),
    }
    prof = harness._build_problem(harness.resolve_config(cfg)).profile
    steps = {"gamma_x": 1.0 / prof.L_x, "gamma_y": 1.0 / prof.L_yy_g}
    cfg["algorithm"].update({k: 0.1 * steps[k] for k in scaled})
    path = write_config(tmp_path, cfg)
    for command in ("run", "theory"):
        assert cli.main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: algorithm.{key}: ")
        assert f"is below the budget's step {label} = " in err
    assert cli.main(["validate", path]) == 1
    assert f"FAIL theory: {path}: algorithm.{key}: " in capsys.readouterr().out
    cfg["algorithm"].update(steps)
    assert not harness.run(cfg)[2]


def _demo_path_config(tmp_path):
    demos = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs"
    cfg = json.loads((demos / "least_squares_path.json").read_text(encoding="utf-8"))
    return dict(cfg, output=str(tmp_path / "escape"))


def _fixed_step(cfg):
    cfg["overlay_bounds"] = False
    cfg["algorithm"].update(theory_auto=False, iterations=10, gamma=0.1)


def _tau_connected_ring(cfg):
    cfg["graph"] = {"kind": "tau-connected", "topology": "ring"}


def _random_graph(cfg):
    cfg["graph"]["topology"] = "random"


def _robust_ls(cfg):
    cfg["problem"] = {"kind": "robust_ls", "n": 10, "d_x": 2, "d_y": 2, "seed": 0}
    cfg["algorithm"] = {"kind": "mgda", "gamma_x": 1e-3, "gamma_y": 1e-3,
                        "outer_iterations": 2, "inner_iterations": 2}
    cfg["overlay_bounds"] = False


def _robust_ls_problem(cfg):
    cfg["problem"] = {"kind": "robust_ls", "n": 10, "d_x": 2, "d_y": 2, "seed": 0}


def _robust_ls_problem_fixed_step(cfg):
    _robust_ls_problem(cfg)
    _fixed_step(cfg)


def _quadratic(cfg):
    cfg["problem"]["kind"] = "quadratic"


def _per_step(cfg):
    cfg["graph"] = {"kind": "per-step-connected"}


def _robust_ls_theory_auto(cfg):
    cfg["problem"] = {"kind": "robust_ls", "n": 6, "d_x": 2, "d_y": 2, "seed": 0}
    cfg["graph"] = {"kind": "static", "topology": "ring"}
    cfg["algorithm"] = {"kind": "mgda", "theory_auto": True, "eps": 1e-3, "eps_y": 1e-4,
                        "delta_prime": 1e-6, "delta_prime_y": 1e-6}
    cfg["overlay_bounds"] = False


@pytest.mark.parametrize("label, value, edit", [
    # these ran and exited 0, describing a run that never happened
    ("graph.tau", 1.5, _tau_connected_ring),
    ("oracle.sigma", float("nan"), None),
    ("algorithm.theory_auto", "no", None),
    ("overlay_bounds", "false", _fixed_step),
    ("algorithm.gamma", True, _fixed_step),
    # these ended in a traceback
    ("graph.tau", 0, _tau_connected_ring),
    ("graph.topology", "hexagon", None),
    ("graph.edges", [[0, 1, 2]], None),
    ("oracle.sigma", "0.1", None),
    ("algorithm.eps", "1e-6", None),
    ("problem.alpha", "2", _robust_ls),
    ("graph.degree", "a", _random_graph),
    ("algorithm.gamma", 0, _fixed_step),
    ("algorithm.gamma", -1, _fixed_step),
    # these ended `plnet run` in an OverflowError traceback, or exited 2 at
    # "algorithm: no theory budget: int too large to convert to float"
    pytest.param("oracle.delta", 10**400, _fixed_step, id="oracle.delta-10**400-_fixed_step"),
    pytest.param("oracle.sigma", 10**400, None, id="oracle.sigma-10**400-None"),
    pytest.param("algorithm.gamma", 10**400, _fixed_step,
                 id="algorithm.gamma-10**400-_fixed_step"),
    # this exited 2 with "algorithm: no theory budget: math domain error"
    ("algorithm.eps", float("inf"), None),
    # these passed `plnet validate`, then ended `plnet run` in a traceback
    ("algorithm.kind", "dgd", _robust_ls_problem),
    ("algorithm.kind", "dgd", _robust_ls_problem_fixed_step),
    # this ended `plnet run` in a traceback
    ("problem.d_i", 3, _quadratic),
    # this was refused already, by a rule for mgda alone
    ("algorithm.kind", "mgda", None),
    # this was refused already, by a rule no case reached
    ("overlay_bounds", True, _robust_ls),
    # these ran and exited 0, their sidecars echoing a field the run never read
    ("graph.topology", "ring", _per_step),
    ("graph.degree", 9, None),
    ("problem.alpha", 5.0, None),
    ("algorithm.iterations", 7, None),
    ("algorithm.gamma_x", 0.1, _fixed_step),
    ("algorithm.rounds_x", 2, _robust_ls_theory_auto),
    # this wrote the CSV of the default bias mode, its sidecar saying otherwise
    ("oracle.bias_mode", "gradient-aligned", None)])
def test_cli_refuses_each_escaping_config_value_at_its_key(tmp_path, capsys, label, value, edit):
    cfg = _demo_path_config(tmp_path)
    if edit is not None:
        edit(cfg)
    section, _, key = label.rpartition(".")
    (cfg[section] if section else cfg)[key] = value
    path = write_config(tmp_path, cfg)
    anchor = rf"{re.escape(path)}: {re.escape(label)}(\[\d+\])*: "
    for command in ("run", "theory"):
        assert cli.main([command, path]) == 2
        assert re.match(rf"error: {anchor}", capsys.readouterr().err)
    assert cli.main(["validate", path]) == 1
    assert re.match(rf"FAIL config: {anchor}", capsys.readouterr().out)


@pytest.mark.parametrize("label, value, edit, check, anchor", [
    # these ended `plnet run` and `plnet theory` in a SingularSystemError and
    # a LinAlgError traceback, and `plnet validate` blamed pl_qg and theory
    ("problem.alpha", 1e200, _robust_ls_theory_auto, "problem", "problem"),
    ("problem.alpha", 1e308, _robust_ls_theory_auto, "problem", "problem"),
    # these ended all three commands in an OverflowError traceback
    ("algorithm.delta_prime", 1e308, None, "theory", "algorithm: no theory budget"),
    ("algorithm.eps", 1e-320, None, "theory", "algorithm: no theory budget"),
    ("oracle.delta", 1e300, None, "theory", "algorithm: no theory budget"),
    ("oracle.sigma", 1e300, None, "theory", "algorithm: no theory budget"),
    ("algorithm.delta_prime_y", 1e308, _robust_ls_theory_auto, "theory",
     "algorithm: no theory budget"),
    ("algorithm.eps_y", 1e-320, _robust_ls_theory_auto, "theory",
     "algorithm: no theory budget"),
    ("oracle.sigma", 1e200, _robust_ls_theory_auto, "theory", "algorithm: no theory budget")])
def test_cli_refuses_an_instance_or_budget_that_escapes_at_its_stage(tmp_path, capsys, label,
                                                                     value, edit, check, anchor):
    cfg = _demo_path_config(tmp_path)
    if edit is not None:
        edit(cfg)
    section, _, key = label.rpartition(".")
    cfg[section][key] = value
    path = write_config(tmp_path, cfg)
    for command in ("run", "theory"):
        assert cli.main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {anchor}: ")
    assert cli.main(["validate", path]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL {check}: {err.removeprefix('error: ').rstrip()}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("label, value, edit, name", [
    ("algorithm.delta_prime", 1e308, None, "delta_prime"),
    ("algorithm.eps", 1e-320, None, "eps"),
    ("oracle.delta", 1e300, None, "delta"),
    ("oracle.sigma", 1e300, None, "sigma"),
    ("algorithm.delta_prime_y", 1e308, _robust_ls_theory_auto, "delta_prime_y"),
    ("algorithm.eps_y", 1e-320, _robust_ls_theory_auto, "eps_y"),
    ("oracle.sigma", 1e200, _robust_ls_theory_auto, "sigma"),
    # a target this small overflows the log ratio of the round count
    ("algorithm.delta_prime", 1e-320, None, "delta_prime")])
def test_budget_overflow_names_the_input_and_its_value(tmp_path, capsys, label, value, edit,
                                                       name):
    cfg = _demo_path_config(tmp_path)
    if edit is not None:
        edit(cfg)
    section, _, key = label.rpartition(".")
    cfg[section][key] = value
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: algorithm: no theory budget: {name}={value!r} overflows ")


def test_alpha_overflow_writes_only_its_error(tmp_path, capfd, recwarn):
    cfg = _demo_path_config(tmp_path)
    _robust_ls_theory_auto(cfg)
    cfg["problem"]["alpha"] = 1e308
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 2
    out, err = capfd.readouterr()
    assert err.splitlines() == [f"error: {path}: problem: alpha=1e+308 overflows its "
                                "products with B_i^T B_i"]
    assert out == "" and not recwarn.list


def _diverging_dgd(cfg):
    # least squares n = 10 on the path graph: overflows by iteration 35
    cfg["algorithm"] = {"kind": "dgd", "gamma": 1e8, "iterations": 50}
    cfg["overlay_bounds"] = False


def _diverging_mgda(cfg):
    cfg["problem"] = {"kind": "robust_ls", "n": 10, "d_x": 2, "d_y": 2, "seed": 0}
    cfg["graph"] = {"kind": "static", "topology": "ring"}
    cfg["algorithm"] = {"kind": "mgda", "gamma_x": 1e3, "gamma_y": 1e3,
                        "outer_iterations": 50, "inner_iterations": 3}
    cfg["overlay_bounds"] = False


@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "n", "--values", "4,6"]])
@pytest.mark.parametrize("edit", [_diverging_dgd, _diverging_mgda])
def test_a_diverging_run_writes_only_its_failures(tmp_path, capfd, recwarn, command, edit):
    # numpy used to print overflow and invalid-value RuntimeWarnings from the
    # gossip product, the step and the consensus error ahead of these lines
    cfg = _demo_path_config(tmp_path)
    edit(cfg)
    path = write_config(tmp_path, cfg)
    assert cli.main([command[0], path, *command[1:]]) == 1
    err = capfd.readouterr().err.splitlines()
    assert err and all(line.startswith("FAILED ") for line in err)
    assert all("non-finite" in line for line in err)
    assert not recwarn.list


@pytest.mark.parametrize("entry", ["run", "theory_report", "validate"])
@pytest.mark.parametrize("kind", ["least_squares", "robust_ls"])
def test_problem_and_oracle_seed_at_the_problem_seed_runs_the_base_instance(
        tmp_path, monkeypatch, kind, entry):
    builds = []
    for name in ("build_least_squares", "build_robust_ls"):
        def counting(*args, _build=getattr(problems, name), **kwargs):
            builds.append(args)
            return _build(*args, **kwargs)
        monkeypatch.setattr(problems, name, counting)
    cfg = minimal_config(tmp_path, oracle={"sigma": 0.1}, seeds=[5, 6, 7],
                         seed_scope="problem-and-oracle")
    if kind == "robust_ls":
        cfg["problem"] = {"kind": "robust_ls", "n": 3, "d_x": 2, "d_y": 2, "seed": 5}
        cfg["algorithm"] = {"kind": "mgda", "gamma_x": 0.01, "gamma_y": 0.01,
                            "outer_iterations": 5, "inner_iterations": 2}
    else:
        cfg["problem"] = {"kind": "least_squares", "n": 3, "d": 2, "seed": 5}
    if entry == "theory_report":
        # a budget refuses these fixed steps; let it set them
        cfg["algorithm"] = {"kind": cfg["algorithm"]["kind"], "theory_auto": True,
                            "eps": 0.1, "delta_prime": 1e-6}
        if kind == "robust_ls":
            cfg["algorithm"].update(eps_y=0.1, delta_prime_y=1e-6)
    path = write_config(tmp_path, cfg)
    if entry != "run":
        # a budget, or all checks passed
        assert getattr(harness, entry)(path)[entry == "validate"]
        # the base instance only: no re-draw can change the budget or a check
        assert len(builds) == 1
        return
    csv_path, _, _ = harness.run(path)
    assert len(builds) == 3  # the base instance, then seed 6's and seed 7's
    rows = read_rows(csv_path)
    # seed 5 on a base instance drawn at another seed re-draws its own instance
    cfg["problem"]["seed"] = 0
    cfg.update(seeds=[5], output=str(tmp_path / "redrawn"))
    redrawn = read_rows(harness.run(write_config(tmp_path, cfg))[0])
    assert rows[:len(redrawn)] == redrawn


def _mgda_unreachable_inner(tmp_path):
    # exact inner consensus (delta_prime_y 0) is out of reach on a path
    return {
        "problem": {"kind": "robust_ls", "n": 4, "d_x": 2, "d_y": 2, "seed": 1},
        "graph": {"kind": "static", "topology": "path"},
        "algorithm": {"kind": "mgda", "theory_auto": True, "eps": 1e-2,
                      "eps_y": 1e-3, "delta_prime": 1e-4, "delta_prime_y": 0.0},
        "output": str(tmp_path / "mgda"),
    }


def _dgd_unreachable(tmp_path):
    # exact consensus (delta_prime 0) is out of reach on a path
    cfg = _demo_path_config(tmp_path)
    cfg["algorithm"]["delta_prime"] = 0
    return cfg


@pytest.mark.parametrize("make", [_dgd_unreachable, _mgda_unreachable_inner],
                         ids=["dgd", "mgda"])
def test_theory_refuses_an_unreachable_target_as_run_does(tmp_path, capsys, make):
    # `plnet theory` evaluated its budget on a path of its own, so it printed
    # T None and exited 0 on configs that `plnet run` refuses
    cfg = make(tmp_path)
    anchor = "algorithm.theory_auto: consensus target unreachable"
    with pytest.raises(ConfigError, match=rf"<config>: {re.escape(anchor)}"):
        harness.theory_report(cfg)
    path = write_config(tmp_path, cfg)
    for command in ("run", "theory"):
        assert cli.main([command, path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {anchor}")


def _static_empty(tmp_path):
    return minimal_config(tmp_path, graph={"kind": "static", "edges": []})


def _tau_connected_empty(tmp_path):
    return minimal_config(tmp_path, graph={"kind": "tau-connected", "topology": "empty"})


def _per_step_budget(tmp_path):
    return minimal_config(tmp_path, graph={"kind": "per-step-connected", "degree": 2},
                          algorithm={"theory_auto": True, "eps": 1e-6, "delta_prime": 1e-8})


def _dgd_step_above_budget(tmp_path):
    cfg = minimal_config(tmp_path, problem={"kind": "least_squares", "n": 4},
                         graph={"topology": "ring"}, overlay_bounds=True,
                         algorithm={"eps": 1e-6, "delta_prime": 1e-8})
    L_g = harness._build_problem(harness.resolve_config(cfg)).profile.L_g
    cfg["algorithm"]["gamma"] = 2.0 / L_g
    return cfg


def _mgda_step_above_budget(tmp_path):
    cfg = _demo_path_config(tmp_path)
    _robust_ls_theory_auto(cfg)
    prof = harness._build_problem(harness.resolve_config(cfg)).profile
    cfg["algorithm"]["gamma_x"] = 1.5 / prof.L_x
    return cfg


def _alpha_overflow(tmp_path):
    cfg = _demo_path_config(tmp_path)
    _robust_ls_theory_auto(cfg)
    cfg["problem"]["alpha"] = 1e200
    return cfg


def _delta_prime_overflow(tmp_path):
    cfg = _demo_path_config(tmp_path)
    cfg["algorithm"]["delta_prime"] = 1e308
    return cfg


@pytest.mark.parametrize("make", [
    _static_empty, _tau_connected_empty, _per_step_budget, _dgd_step_above_budget,
    _mgda_step_above_budget, _dgd_unreachable, _alpha_overflow, _delta_prime_overflow])
def test_validate_fails_with_the_message_run_prints(tmp_path, capsys, make):
    # validate prepares a config through the stages run does, so a refusal
    # is one failed line carrying run's message; its own copy of the build
    # and budget steps had drifted from run's twice
    path = write_config(tmp_path, make(tmp_path))
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    checks, ok = harness.validate(path)
    assert not ok
    assert [detail for _, passed, detail in checks if not passed] == [
        err.removeprefix("error: ").rstrip("\n")]


def test_validate_pl_qg_line_shows_every_ratio_it_judges(tmp_path, capsys, monkeypatch):
    # the line printed only the x-side ratios, so a y-side failure read as
    # two ratios far below 1 on a FAIL line
    cfg = _demo_path_config(tmp_path)
    _robust_ls(cfg)
    monkeypatch.setattr(problems, "pl_qg_report",
                        lambda *args, **kwargs: problems.PLQGReport(0.5, 0.5, 2.0, 0.5))
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 1
    assert "FAIL pl_qg: max PL ratio 0.5, max QG ratio 0.5, max y-side PL ratio 2, " \
           "max y-side QG ratio 0.5\n" in capsys.readouterr().out
    monkeypatch.setattr(problems, "pl_qg_report",
                        lambda *args, **kwargs: problems.PLQGReport(0.5, 0.25))
    checks, ok = harness.validate(minimal_config(tmp_path))
    assert ok
    assert ("pl_qg", True, "max PL ratio 0.5, max QG ratio 0.25") in checks


def test_theory_prints_a_fixed_step_budget_with_an_unreachable_target(tmp_path, capsys):
    # without theory_auto nothing is sized from T, so T None is reported
    cfg = _demo_path_config(tmp_path)
    cfg["algorithm"].update(theory_auto=False, gamma=0.1, iterations=10, rounds=2,
                            delta_prime=0)
    assert cli.main(["theory", write_config(tmp_path, cfg), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["budget"]["T"] is None


def test_cli_theory_text_table(capsys):
    # the text branch prints each block's keys once, and the budget block
    # holds no copy of the instance and network constants
    demos = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs"
    assert cli.main(["theory", str(demos / "least_squares_path.json")]) == 0
    blocks = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  "):
            blocks[heading].append(line.split()[0])
        else:
            heading = line
            blocks[heading] = []
    assert list(blocks) == ["constants", "budget"]
    for keys in blocks.values():
        assert keys == sorted(set(keys))
    assert {"L_g", "L_l", "lam", "mu", "n", "tau"} <= set(blocks["constants"])
    assert {"N", "T", "D", "floor", "eps", "delta_prime", "gamma", "mu"} \
        <= set(blocks["budget"])
    assert not {"L_g", "L_l", "n", "tau", "lam", "mu_x", "L_x"} & set(blocks["budget"])


def test_sweep_values_are_checked_not_cast(tmp_path):
    # a sweep used to cast each value to the base field's type: problem.n 4.7
    # ran n = 4 while the CSV said 4.7, and iterations 3.9 ran 3 iterations
    path = write_config(tmp_path, minimal_config(tmp_path))
    for axis, value, label in (("problem.n", 4.7, "problem.n"),
                               ("iterations", 3.9, "algorithm.iterations"),
                               ("rounds", True, "algorithm.rounds")):
        with pytest.raises(ConfigError, match=rf"config\.json: {label}: must be an integer"):
            harness.sweep(path, axis, [2, value])
        assert not (tmp_path / "trace.sweep.csv").exists()
    # a bool field is not a numeric axis, though a bool is an int
    for axis in ("theory_auto", "algorithm.theory_auto"):
        with pytest.raises(ConfigError, match="is not numeric"):
            harness.sweep(path, axis, [0, 1])
    sweep_path, failures = harness.sweep(path, "problem.n", [2, 3])
    assert not failures
    assert [r["value"] for r in read_rows(sweep_path)] == ["2", "3"]


@pytest.mark.parametrize("graph, edit", [
    # a ValueError traceback
    ({"kind": "tau-connected", "topology": "empty"}, None),
    # a NonContractiveSequenceError traceback after the CSV was written
    ({"kind": "static", "topology": "empty"}, _fixed_step),
    # exit 2, but anchored at "algorithm: no theory budget"
    ({"kind": "static", "topology": "empty"}, None)],
    ids=["tau-connected", "static-fixed", "static-theory_auto"])
def test_cli_refuses_a_graph_that_cannot_mix_before_any_output(tmp_path, capsys, graph, edit):
    cfg = _demo_path_config(tmp_path)
    if edit is not None:
        edit(cfg)
    cfg["graph"] = graph
    path = write_config(tmp_path, cfg)
    for command in (["run", path], ["theory", path], ["sweep", path, "--axis", "n",
                                                      "--values", "4,6"]):
        assert cli.main(command) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: graph: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("kind", ["static", "per-step-connected"])
def test_graph_tau_is_refused_on_a_graph_that_does_not_read_it(tmp_path, capsys, kind):
    # a static ring at tau 3 ran as the plain ring, and its sidecar echoed tau 3
    cfg = _demo_path_config(tmp_path)
    _fixed_step(cfg)
    cfg["graph"] = {"kind": kind, "tau": 1}
    assert harness.resolve_config(cfg)["graph"]["tau"] == 1
    path = write_config(tmp_path, cfg)
    anchor = f"error: {path}: graph.tau: 3 on a {kind} graph: "
    assert cli.main(["sweep", path, "--axis", "graph.tau", "--values", "1,3"]) == 2
    assert capsys.readouterr().err.startswith(anchor)
    cfg["graph"]["tau"] = 3
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(anchor)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_fields_the_run_does_not_read_are_refused_before_any_work(tmp_path, capsys):
    # this ran to completion, its sidecar saying iterations 7 and rounds 1
    # while the theory budget ran N = 49 iterations of T = 230 rounds
    cfg = _demo_path_config(tmp_path)
    cfg["algorithm"].update(iterations=7, rounds=1)
    cfg["problem"]["alpha"] = 5
    cfg["graph"]["degree"] = 9
    path = write_config(tmp_path, cfg)
    anchor = f"{path}: algorithm.iterations: 7 on a theory_auto algorithm: "
    for command in (["run", path], ["theory", path],
                    ["sweep", path, "--axis", "n", "--values", "4,6"]):
        assert cli.main(command) == 2
        assert capsys.readouterr().err.startswith(f"error: {anchor}")
    assert cli.main(["validate", path]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL config: {anchor}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_sweep_refuses_a_value_that_is_not_a_number(tmp_path, capsys):
    # this ended in "ValueError: invalid literal for int() with base 10: 'abc'"
    path = write_config(tmp_path, minimal_config(tmp_path))
    assert cli.main(["sweep", path, "--axis", "n", "--values", "2,abc"]) == 2
    assert capsys.readouterr().err == "error: --values: 'abc' is not a number\n"
    assert not (tmp_path / "trace.sweep.csv").exists()


@pytest.mark.parametrize("make, targets, key, floor", [
    # eps 1e-18 with delta_prime 1e-32 ran and met neither target: f* is 1.75
    # here, so the gap cannot resolve below a few of its ULPs
    (None, {"eps": 1e-18, "delta_prime": 1e-32}, "eps", "8*u*|f*| = 1.55e-15"),
    (None, {"eps": 1e-14, "delta_prime": 1e-31}, "delta_prime",
     "(32*u*||X*||)**2 = 4.06e-30"),
    (_robust_ls_theory_auto, {"eps": 1e-16}, "eps", "8*u*|f*| = 7.53e-16"),
    (_robust_ls_theory_auto, {"eps_y": 1e-16}, "eps_y", "8*u*|f*| = 7.53e-16"),
    (_robust_ls_theory_auto, {"delta_prime": 1e-30}, "delta_prime",
     "(32*u*||X*||)**2 = 2.57e-29"),
    (_robust_ls_theory_auto, {"delta_prime_y": 1e-30}, "delta_prime_y",
     "(32*u*||Y*||)**2 = 6.96e-30")],
    ids=["eps", "delta_prime", "saddle-eps", "saddle-eps_y", "saddle-delta_prime",
         "saddle-delta_prime_y"])
def test_a_target_below_float64_resolution_is_refused_at_its_key(tmp_path, capsys, make,
                                                                targets, key, floor):
    cfg = _demo_path_config(tmp_path)
    if make is not None:
        make(cfg)
    cfg["algorithm"].update(targets)
    value = targets[key]
    path = write_config(tmp_path, cfg)
    message = (f"{path}: algorithm.{key}: {value!r} is below its float64 resolution floor "
               f"{floor} (u = 2**-53)")
    for command in ("run", "theory"):
        assert cli.main([command, path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert cli.main(["validate", path]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL theory: {message}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("eps, delta_prime", [(1e-14, 1e-28), (1e-12, 1e-20)])
def test_targets_above_float64_resolution_still_run(tmp_path, eps, delta_prime):
    cfg = _demo_path_config(tmp_path)
    cfg["algorithm"].update(eps=eps, delta_prime=delta_prime)
    assert not harness.run(cfg)[2]


def test_a_saddle_step_beyond_the_max_function_curvature_is_refused(tmp_path, capsys):
    # the budget's gamma_x = 1/L_x was 1.72 / lambda_max of the max-function's
    # Hessian on this instance, outside the saddle theorem's step range, and
    # `plnet validate` passed every line of it
    cfg = _demo_path_config(tmp_path)
    _robust_ls_theory_auto(cfg)
    cfg["problem"].update(d_x=3, d_i=200, alpha=1.01)
    path = write_config(tmp_path, cfg)
    problem = harness._build_problem(harness.resolve_config(cfg))
    ratio = np.linalg.eigvalsh(problem.hessian)[-1] / problem.profile.L_x
    assert ratio == pytest.approx(1.718, abs=1e-3)
    for command in ("run", "theory"):
        assert cli.main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: algorithm.gamma_x: ")
        assert err.endswith(f" is {ratio:.6g} > 1, outside the saddle theorem's step range\n")
    assert cli.main(["validate", path]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL theory: {err.removeprefix('error: ').rstrip()}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    # at the default d_i and alpha the budget's step stays in range
    cfg["problem"] = {key: cfg["problem"][key] for key in ("kind", "n", "d_x", "d_y", "seed")}
    assert not harness.run(cfg)[2]
