"""The plnet benchmark workloads.

Each workload has three steps. ``setup(seed, out_dir)`` makes the inputs from
the workload seed and does everything that happens before the first
iteration; its result is the state. ``run(state)`` is the timed phase: the
``dgd_run``/``mgda_run``/``harness.run`` calls and nothing else.
``check(state, result, memo)`` validates the outputs outside the timer and
returns an :class:`Outcome`; ``memo`` is one dict shared by every check in a
process, for properties that span invocations. A workload whose full-length
output check is too long for a timed call also has ``validate(seed,
out_dir)``, one untimed full-length run per process, checked the same way. Why each workload exists, which layer it loads and which
it bypasses, and what each per-layer metric should move, is written down in
``PREDICTIONS.md`` next to this file.

Every call into plnet goes through a module attribute (``algorithms.dgd_run``,
not a name imported from it) so that the tracer's wrappers see it.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from plnet import algorithms, harness, problems, theory, topology
from plnet.oracles import OracleSpec

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

# criterion-7 stationarity threshold on the final averaged gradient norms
GRAD_TOL = 1e-3
# outer iterations of a timed mgda_robust_ls call; criterion 7 needs the
# 3000 of the frozen config, which only the validation run makes
MGDA_TIMED_OUTER = 100


@dataclass
class Outcome:
    """Checked result of one timed call of a workload."""

    attempted: int
    failures: dict = field(default_factory=dict)  # run id -> reason
    rounds: int = 0
    rows_written: int = 0
    bytes_written: int = 0


@dataclass
class Workload:
    name: str
    setup: object
    run: object
    check: object
    validate: object = None


def _load_config(name):
    with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def _seeded(raw, seed, out_dir, name):
    """Re-seed a harness config: problem, graph and run seeds all follow ``seed``."""
    count = len(raw["seeds"])
    raw["problem"]["seed"] = count * seed
    raw["graph"]["seed"] = seed
    raw["seeds"] = [count * seed + i for i in range(count)]
    raw["output"] = os.path.join(out_dir, name)
    return raw


def _harness_builds(cfg):
    """The public build calls ``harness.run`` makes before its first iteration."""
    prob = cfg["problem"]
    if prob["kind"] == "robust_ls":
        problem, _ = problems.build_robust_ls(prob["n"], prob["d_x"], prob["d_y"],
                                              prob["d_i"], prob["alpha"], prob["seed"])
    else:
        problem, _ = problems.build_least_squares(prob["n"], prob["d"], prob["d_i"],
                                                  prob["seed"])
    graph = {k: v for k, v in cfg["graph"].items() if k != "kind"}
    seq = topology.make_graph_sequence(prob["n"], cfg["graph"]["kind"], **graph)
    model = topology.MixingModel(seq)
    model.lam
    if cfg["overlay_bounds"]:
        # the budget harness.run evaluates for bounds on a noisy DGD run
        algo, oracle = cfg["algorithm"], cfg["oracle"]
        theory.budget_min_stochastic(
            problem.profile, model, algo["eps"], algo["delta_prime"], oracle["delta"],
            oracle["sigma"], problem.f(np.zeros(problem.d)) - problem.f_star,
            float(np.linalg.norm(problem.grad_stacked_at_opt())), gamma=algo["gamma"])


def _run_ids(cfg):
    return [f"{cfg['algorithm']['kind']}-{idx:03d}" for idx in range(len(cfg["seeds"]))]


def _run_harness(cfg):
    return harness.run(cfg)


def _run_or_error(cfg):
    try:
        return harness.run(cfg)
    except Exception as exc:  # a raising run is a failed run, not a crash
        return exc


def _harness_outcome(cfg, result):
    """Outcome of one ``harness.run`` call plus its CSV rows and output bytes.

    Runs the harness reports as diverged, or whose sidecar status is not
    ``ok``, are already entered as failures.
    """
    if isinstance(result, Exception):
        reason = f"{type(result).__name__}: {result}"
        return Outcome(attempted=len(cfg["seeds"]),
                       failures=dict.fromkeys(_run_ids(cfg), reason)), [], b""
    csv_path, sidecar_path, failures = result
    with open(csv_path, "rb") as fh:
        csv_bytes = fh.read()
    with open(sidecar_path, "rb") as fh:
        sidecar_bytes = fh.read()
    rows = list(csv.DictReader(csv_bytes.decode("utf-8").splitlines()))
    runs = json.loads(sidecar_bytes)["runs"]
    failed = {run_id: f"harness: {msg}" for run_id, msg in failures}
    for meta in runs:
        if meta["status"] != "ok":
            failed.setdefault(meta["run_id"], f"sidecar status {meta['status']!r}")
    outcome = Outcome(attempted=len(runs), failures=failed,
                      rounds=sum(meta.get("total_comm_rounds", 0) for meta in runs),
                      rows_written=len(rows),
                      bytes_written=len(csv_bytes) + len(sidecar_bytes))
    return outcome, rows, csv_bytes + sidecar_bytes


# -- mgda_robust_ls -----------------------------------------------------------

def mgda_setup(seed, out_dir):
    raw = _load_config("robust_ls.json")
    raw["seeds"] = raw["seeds"][:1]
    raw["algorithm"]["outer_iterations"] = MGDA_TIMED_OUTER
    cfg = harness.resolve_config(_seeded(raw, seed, out_dir, "mgda_robust_ls"))
    _harness_builds(cfg)
    return cfg


def _last_rows(rows):
    last = {}
    for row in rows:
        if row["run_id"] not in last or int(row["k"]) > int(last[row["run_id"]]["k"]):
            last[row["run_id"]] = row
    return last


def _grad_norms(row):
    return float(row["grad_norm_x"] or "nan"), float(row["grad_norm_y"] or "nan")


def mgda_check(cfg, result, memo):
    """A timed call: sidecar status ok and both gradient norms decreased."""
    outcome, rows, _ = _harness_outcome(cfg, result)
    first = {row["run_id"]: row for row in reversed(rows)}
    for run_id, row in _last_rows(rows).items():
        (gx0, gy0), (gx, gy) = _grad_norms(first[run_id]), _grad_norms(row)
        if not (gx < gx0 and gy < gy0):
            outcome.failures.setdefault(
                run_id, f"grad norms ({gx0:.3g}, {gy0:.3g}) -> ({gx:.3g}, {gy:.3g})"
                        " did not decrease")
    return outcome


def mgda_validate(seed, out_dir):
    """The frozen criterion-7 config, all its seeds, checked against criterion 7."""
    cfg = harness.resolve_config(_seeded(_load_config("robust_ls.json"), seed, out_dir,
                                         "mgda_robust_ls_full"))
    outcome, rows, _ = _harness_outcome(cfg, _run_or_error(cfg))
    for run_id, row in _last_rows(rows).items():
        gx, gy = _grad_norms(row)
        if not (gx < GRAD_TOL and gy < GRAD_TOL):
            outcome.failures.setdefault(
                run_id, f"final grad norms ({gx:.3g}, {gy:.3g}) not below {GRAD_TOL:g}")
    return outcome


# -- dgd_trace_record -----------------------------------------------------------

def trace_record_setup(seed, out_dir):
    raw = _seeded(_load_config("trace_record.json"), seed, out_dir, "dgd_trace_record")
    prob = raw["problem"]
    # half the theory step 1/L_g of the base instance keeps every re-drawn
    # instance of the same size well inside its stable range
    _, profile = problems.build_least_squares(prob["n"], prob["d"], seed=prob["seed"])
    raw["algorithm"]["gamma"] = 0.5 / profile.L_g
    cfg = harness.resolve_config(raw)
    _harness_builds(cfg)
    return cfg


def trace_record_check(cfg, result, memo):
    outcome, rows, output = _harness_outcome(cfg, result)
    if isinstance(result, Exception):
        return outcome
    expected = len(cfg["seeds"]) * (cfg["algorithm"]["iterations"] + 1)
    found = []
    if len(rows) != expected:
        found.append(f"{len(rows)} CSV rows, expected {expected}")
    if any(row["bound_f_gap"] == "" for row in rows):
        found.append("bound_f_gap column has blank cells")
    if memo.setdefault("output", output) != output:
        found.append("CSV/sidecar bytes differ from the first invocation")
    if found:
        # these defects belong to the whole invocation, so every run fails
        for run_id in _run_ids(cfg):
            outcome.failures.setdefault(run_id, "; ".join(found))
    return outcome


# -- direct DGD workloads -------------------------------------------------------

@dataclass
class DGDState:
    problem: object
    model: object
    config: object
    x0: object


def _dgd_run(state):
    return algorithms.dgd_run(state.problem, state.model, state.config, state.x0)


def _dgd_check(state, result, memo):
    outcome = Outcome(attempted=1)
    if isinstance(result, Exception):
        outcome.failures["dgd"] = f"{type(result).__name__}: {result}"
        return outcome
    record, _ = result
    cfg = state.config
    outcome.rounds = record.meta["total_comm_rounds"]
    first, last = record.f_gap[0], record.f_gap[-1]
    expected_rounds = cfg.iterations * cfg.rounds_at(0)
    if not (math.isfinite(last) and last < first):
        outcome.failures["dgd"] = f"final f_gap {last!r} not finite and below initial {first!r}"
    elif outcome.rounds != expected_rounds:
        outcome.failures["dgd"] = f"total_comm_rounds {outcome.rounds} != {expected_rounds}"
    return outcome


N_LARGE, D_LARGE = 1000, 8


def pstep_setup(seed, out_dir):
    problem, profile = problems.build_least_squares(N_LARGE, D_LARGE, seed=seed)
    seq = topology.make_graph_sequence(N_LARGE, "per-step-connected", degree=4, seed=seed)
    config = algorithms.DGDConfig(gamma=1.0 / profile.L_g, iterations=1,
                                  rounds_schedule=5, record_every=1)
    return DGDState(problem, topology.MixingModel(seq), config,
                    np.zeros((N_LARGE, D_LARGE)))


def static_setup(seed, out_dir):
    problem, profile = problems.build_least_squares(N_LARGE, D_LARGE, seed=seed)
    seq = topology.make_graph_sequence(N_LARGE, "static", topology="ring")
    model = topology.MixingModel(seq)
    oracle = OracleSpec(delta=0.01, sigma=0.01, seed=seed)
    x0 = np.zeros((N_LARGE, D_LARGE))
    budget = theory.budget_min_stochastic(
        profile, model, eps=1e-6, delta_prime=1e-6, delta=oracle.delta,
        sigma=oracle.sigma, f0_gap=problem.f(x0[0]) - problem.f_star,
        grad_at_opt_norm=float(np.linalg.norm(problem.grad_stacked_at_opt())))
    config = algorithms.DGDConfig(gamma=budget.gamma, iterations=10,
                                  rounds_schedule=5, oracle=oracle, record_every=10)
    return DGDState(problem, model, config, x0)


WORKLOADS = {w.name: w for w in (
    Workload("mgda_robust_ls", mgda_setup, _run_harness, mgda_check, mgda_validate),
    Workload("dgd_pstep_n1000", pstep_setup, _dgd_run, _dgd_check),
    Workload("dgd_static_n1000", static_setup, _dgd_run, _dgd_check),
    Workload("dgd_trace_record", trace_record_setup, _run_harness, trace_record_check),
)}
