import csv
import json

import numpy as np
import pytest

from plnet import cli, harness
from plnet.harness import ConfigError


def minimal_config(tmp_path, **overrides):
    cfg = {
        "problem": {"kind": "quadratic", "n": 2, "d": 2, "seed": 0},
        "graph": {"kind": "static", "topology": "complete"},
        "algorithm": {"kind": "dgd", "gamma": 0.5, "iterations": 10,
                      "rounds": 1, "record_every": 1},
        "oracle": {"delta": 0.0, "sigma": 0.0, "seed": 0},
        "seeds": [0],
        "output": str(tmp_path / "trace"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
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
    meta = json.loads(open(sidecar).read())
    assert meta["runs"][0]["status"] == "ok"
    assert meta["constants"]["mu"] == pytest.approx(1.0)


def test_rerun_byte_identical(tmp_path):
    cfg = minimal_config(tmp_path, oracle={"sigma": 0.3}, seeds=[1, 2, 3])
    path = write_config(tmp_path, cfg)
    csv_path, sidecar, _ = harness.run(path)
    first = (open(csv_path, "rb").read(), open(sidecar, "rb").read())
    harness.run(path)
    second = (open(csv_path, "rb").read(), open(sidecar, "rb").read())
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
    csv_path, _, _ = harness.run(write_config(tmp_path, minimal_config(tmp_path)))
    assert all(float(r["wall_time_s"]) == 0.0 for r in read_rows(csv_path))
    cfg = minimal_config(tmp_path, record_wall_time=True,
                         algorithm={"iterations": 200})
    csv_path2, _, _ = harness.run(write_config(tmp_path, cfg, "c2.json"))
    assert float(read_rows(csv_path2)[-1]["wall_time_s"]) > 0.0


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
    meta = json.loads(open(sidecar).read())
    assert "mu_y" in meta["constants"]
    gaps = [float(r["f_gap"]) for r in rows]
    assert gaps[-1] < gaps[0]


def test_theory_auto_configures_run(tmp_path):
    cfg = minimal_config(tmp_path, algorithm={
        "kind": "dgd", "theory_auto": True, "eps": 1e-6, "delta_prime": 1e-8,
        "record_every": 1000})
    cfg["algorithm"].pop("gamma")
    cfg["algorithm"].pop("iterations")
    cfg["graph"] = {"kind": "static", "topology": "ring"}
    cfg["problem"]["n"] = 4
    csv_path, sidecar, failures = harness.run(write_config(tmp_path, cfg))
    assert not failures
    meta = json.loads(open(sidecar).read())
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
        vals = [float(r["final_f_gap"]) for r in rows
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
    err = {v: np.mean([float(r["final_consensus_err_x"]) for r in rows
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


def test_validate_reports_disconnected_graph(tmp_path):
    cfg = minimal_config(tmp_path)
    cfg["graph"] = {"kind": "static", "edges": []}
    checks, ok = harness.validate(cfg)
    assert not ok
    failed = {name for name, passed, _ in checks if not passed}
    assert "contraction" in failed


def test_config_errors_are_anchored(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n "problem": {\n')
    with pytest.raises(ConfigError, match=r"bad\.json:\d+"):
        harness.load_config(str(bad))
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
    meta = json.loads(open(sidecar).read())
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
def test_theory_auto_rejected_for_centralized_runs(tmp_path, kind):
    cfg = {
        "problem": {"kind": "robust_ls", "n": 2, "d_x": 2, "d_y": 2},
        "algorithm": {"kind": kind, "theory_auto": True, "eps": 1e-3,
                      "delta_prime": 1e-3, "eps_y": 1e-3, "delta_prime_y": 1e-3},
        "output": str(tmp_path / "central"),
    }
    with pytest.raises(ConfigError, match="algorithm.theory_auto"):
        harness.resolve_config(cfg)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2


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
    # a sweep row summarizes the run of the config with the axis value set
    # before defaults are filled: MGDA "rounds" drives rounds_x and rounds_y
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
    for name, cfg in (("dgd", dgd), ("mgda", mgda)):
        cfg = dict(cfg, output=str(tmp_path / name))
        sweep_path, failures = harness.sweep(cfg, "rounds", [1, 3])
        assert not failures
        rows = read_rows(sweep_path)
        assert len(rows) == 2 * 2
        for value in (1, 3):
            single = json.loads(json.dumps(cfg))
            single["algorithm"]["rounds"] = value
            single["output"] = str(tmp_path / f"{name}-{value}")
            csv_path, _, _ = harness.run(single)
            last = {}
            for row in read_rows(csv_path):
                last[row["run_id"]] = row
            summaries = [r for r in rows if r["value"] == str(value)]
            assert len(summaries) == len(last)
            for summary in summaries:
                final = last[summary["run_id"]]
                assert summary["final_f_gap"] == final["f_gap"]
                assert summary["final_consensus_err_x"] == final["consensus_err_x"]
                assert summary["final_consensus_err_y"] == final["consensus_err_y"]
                assert summary["total_comm_rounds"] == final["comm_rounds"]
