"""The benchmark's configs, re-seeded as its workloads re-seed them.

``bench/workloads.py`` re-draws the problem, the graph and the run from one
workload seed, so a defect that shows on one seed only fails a benchmark
process that draws it. These tests run each config over a range of seeds,
reading the committed files and writing only under the test's own folder.
"""

import csv
import json
import pathlib

import pytest

from plnet import harness, problems

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "configs"


def _grad_norms(row):
    return float(row["grad_norm_x"]), float(row["grad_norm_y"])


@pytest.mark.parametrize("seed", range(10))
def test_robust_ls_workload_runs_and_descends_on_every_seed(tmp_path, seed):
    # the timed mgda_robust_ls call: one run of 100 outer iterations, with
    # the problem, graph and run seeds all set to the workload seed
    cfg = json.loads((CONFIGS / "robust_ls.json").read_text(encoding="utf-8"))
    cfg["problem"]["seed"] = cfg["graph"]["seed"] = seed
    cfg["seeds"] = [seed]
    cfg["algorithm"]["outer_iterations"] = 100
    cfg["output"] = str(tmp_path / "mgda_robust_ls")
    csv_path, sidecar_path, failures = harness.run(cfg)
    assert not failures
    runs = json.loads(pathlib.Path(sidecar_path).read_text(encoding="utf-8"))["runs"]
    assert [run["status"] for run in runs] == ["ok"]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    (gx0, gy0), (gx, gy) = _grad_norms(rows[0]), _grad_norms(rows[-1])
    assert gx < gx0 and gy < gy0


@pytest.mark.parametrize("seed", range(10))
def test_trace_record_workload_resolves_and_runs_with_bounds_on_every_seed(tmp_path, seed):
    # the timed dgd_trace_record call: the problem, graph and run seeds follow
    # the workload seed, the step is half the base instance's 1/L_g, and the
    # resolved config is resolved again by harness.run
    cfg = json.loads((CONFIGS / "trace_record.json").read_text(encoding="utf-8"))
    count = len(cfg["seeds"])
    cfg["problem"]["seed"] = count * seed
    cfg["graph"]["seed"] = seed
    cfg["seeds"] = [count * seed + i for i in range(count)]
    cfg["output"] = str(tmp_path / "dgd_trace_record")
    prob = cfg["problem"]
    _, profile = problems.build_least_squares(prob["n"], prob["d"], seed=prob["seed"])
    cfg["algorithm"]["gamma"] = 0.5 / profile.L_g
    csv_path, sidecar_path, failures = harness.run(harness.resolve_config(cfg))
    assert not failures
    runs = json.loads(pathlib.Path(sidecar_path).read_text(encoding="utf-8"))["runs"]
    assert [run["status"] for run in runs] == ["ok"] * count
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == count * (cfg["algorithm"]["iterations"] + 1)
    assert all(row["bound_f_gap"] for row in rows)
