"""Self-test of the benchmark's counting identities on tiny sizes.

Run from the repository root with ``python3 -m pytest bench/test_counts.py``.
"""

import os
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from plnet import algorithms, consensus, harness, problems, topology  # noqa: E402
from tracing import SELF_TIMED, Tracer, layer_metrics  # noqa: E402
from workloads import Outcome, WORKLOADS  # noqa: E402

N, D, ITERATIONS, ROUNDS = 6, 2, 7, 3


def _traced_dgd(kind, measure_lam=False, **graph):
    """Traced set-up plus one ``dgd_run``; returns the per-layer metrics."""
    tracer = Tracer()
    with tracer.installed():
        problem, profile = problems.build_least_squares(N, D, seed=1)
        model = topology.MixingModel(topology.make_graph_sequence(N, kind, **graph))
        if measure_lam:
            model.lam
        config = algorithms.DGDConfig(gamma=1.0 / profile.L_g, iterations=ITERATIONS,
                                      rounds_schedule=ROUNDS)
        boundary = tracer.start_phase()
        start = time.perf_counter()
        record, _ = algorithms.dgd_run(problem, model, config, np.zeros((N, D)))
        elapsed = time.perf_counter() - start
    outcome = Outcome(attempted=1, rounds=record.meta["total_comm_rounds"])
    return layer_metrics(tracer.summary(stop=boundary), tracer.summary(start=boundary),
                         tracer.counters, outcome, 0.0, elapsed)


@pytest.mark.parametrize("kind, graph, period", [
    ("static", {"topology": "ring"}, 1),
    ("tau-connected", {"tau": 3, "topology": "ring"}, 3),
])
def test_periodic_sequence_builds_one_matrix_per_period(kind, graph, period):
    m = _traced_dgd(kind, **graph)
    assert m["topology.metropolis_calls"] == period
    assert m["consensus.rounds"] == ITERATIONS * ROUNDS
    assert m["consensus.calls"] == ITERATIONS
    assert m["topology.matrix_at_calls"] == ITERATIONS * ROUNDS
    assert m["topology.matrix_cache_hit_ratio"] == 1.0 - period / (ITERATIONS * ROUNDS)


def test_counters_follow_their_definitions():
    m = _traced_dgd("static", topology="ring")
    per_round = N * N * 8 + 2 * N * D * 8
    assert m["consensus.bytes_computed"] == ITERATIONS * ROUNDS * per_round
    # a ring has n edges; each sends d floats both ways per round
    assert m["consensus.floats_sent"] == ITERATIONS * ROUNDS * 2 * N * D
    assert m["algorithms.records"] == ITERATIONS + 1
    assert m["problems.grad_calls"] == ITERATIONS


def test_setup_phase_is_reported_apart():
    m = _traced_dgd("static", measure_lam=True, topology="ring")
    # estimate_lambda built and cached the only matrix before the timed call
    assert m["topology.metropolis_calls"] == 0
    assert m["topology.matrix_cache_hit_ratio"] == 1.0
    assert m["topology.lam_s"] == 0.0
    assert m["setup.topology.lam_s"] > 0.0
    assert m["setup.problems.build_s"] > 0.0
    assert m["problems.build_s"] == 0.0


@pytest.mark.parametrize("kind, graph", [
    ("static", {"topology": "ring"}),
    ("per-step-connected", {"degree": 3, "seed": 2}),
])
def test_edges_per_round_is_measured(kind, graph, monkeypatch):
    calls = []
    original = topology.GraphSequence.edges_at

    def counting(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(topology.GraphSequence, "edges_at", counting)
    m = _traced_dgd(kind, **graph)
    assert m["topology.edges_calls"] == len(calls)
    assert m["topology.edges_per_round"] == len(calls) / (ITERATIONS * ROUNDS)


def _self_time_sum(m):
    return sum(m[f"{prefix}_s"] for prefix in SELF_TIMED.values())


def _harness_config(tmp_path):
    return harness.resolve_config({
        "problem": {"kind": "least_squares", "n": N, "d": D, "seed": 3},
        "graph": {"kind": "static", "topology": "path"},
        "algorithm": {"kind": "dgd", "gamma": 0.01, "iterations": 200, "rounds": 2,
                      "eps": 1e-6, "delta_prime": 1e-6},
        "oracle": {"delta": 0.01, "sigma": 0.01},
        "seeds": [0, 1], "seed_scope": "problem-and-oracle",
        "overlay_bounds": True, "output": str(tmp_path / "run")})


def test_self_times_add_up_to_the_traced_run(tmp_path):
    cfg = _harness_config(tmp_path)
    untraced = []
    for _ in range(3):
        start = time.perf_counter()
        harness.run(cfg)
        untraced.append(time.perf_counter() - start)
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        harness.run(cfg)
        traced = time.perf_counter() - start
    m = layer_metrics({}, tracer.summary(), tracer.counters, Outcome(attempted=2),
                      0.0, traced)
    attributed = _self_time_sum(m)
    overhead = traced - min(untraced)
    assert attributed == pytest.approx(m["harness.run_s"], rel=1e-9)
    assert attributed <= traced
    assert traced - attributed <= max(overhead, 0.0) + 1e-3
    assert m["theory.budget_calls"] == 1
    assert m["algorithms.records"] == 2 * 201


def test_tracer_restores_every_patched_name():
    before = (algorithms.run_consensus, consensus.run_consensus,
              topology.MixingModel.__dict__["matrix_at"], harness.run)
    with Tracer().installed():
        assert algorithms.run_consensus is not before[0]
        assert algorithms.run_consensus is consensus.run_consensus
    after = (algorithms.run_consensus, consensus.run_consensus,
             topology.MixingModel.__dict__["matrix_at"], harness.run)
    assert after == before


def test_checks_count_failures():
    dgd = WORKLOADS["dgd_static_n1000"]
    outcome = dgd.check(None, algorithms.DivergenceError("boom"), {})
    assert (outcome.attempted, len(outcome.failures)) == (1, 1)


def test_rerun_check_fails_every_run_on_changed_bytes(tmp_path):
    record = WORKLOADS["dgd_trace_record"]
    cfg = _harness_config(tmp_path)
    cfg["algorithm"]["iterations"] = 5
    memo = {}
    first = record.check(cfg, harness.run(cfg), memo)
    assert not first.failures
    memo["output"] = memo["output"] + b" "
    second = record.check(cfg, harness.run(cfg), memo)
    assert sorted(second.failures) == ["dgd-000", "dgd-001"]
