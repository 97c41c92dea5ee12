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

from plnet import harness

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
