import tracemalloc

import numpy as np
import pytest

from plnet import (
    DGDConfig,
    MixingModel,
    average_projection,
    build_least_squares,
    consensus,
    consensus_error,
    dgd_run,
    estimate_lambda,
    make_graph_sequence,
    run_consensus,
    topology,
)


def test_average_projection_simple_mean():
    x = np.array([[1.0], [0.0], [0.0]])
    np.testing.assert_allclose(average_projection(x), np.full((3, 1), 1.0 / 3.0))


def test_average_projection_idempotent():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 3))
    once = average_projection(x)
    np.testing.assert_allclose(average_projection(once), once,
                               rtol=0, atol=1e-14)


def test_average_projection_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 3))
    oracle = np.full((5, 5), 1.0 / 5.0) @ x
    np.testing.assert_allclose(average_projection(x), oracle, atol=1e-14)


def test_consensus_error_zero_when_consensual():
    x = np.tile([2.0, -1.0], (4, 1))
    assert consensus_error(x) == 0.0


def test_consensus_error_hand_value():
    assert consensus_error(np.array([[1.0], [-1.0]])) == pytest.approx(np.sqrt(2.0))


def test_consensus_error_translation_invariant():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3))
    shift = np.tile(rng.standard_normal(3), (5, 1))
    assert consensus_error(x + shift) == pytest.approx(consensus_error(x), abs=1e-12)


def test_zero_rounds_returns_input():
    model = MixingModel(make_graph_sequence(3, "static", topology="path"))
    z = np.ones((3, 2))
    assert run_consensus(z, 0, model) is z
    assert run_consensus(z, 0, model, 5) is z


def test_complete_graph_single_round_averages():
    model = MixingModel(make_graph_sequence(4, "static", topology="complete"))
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 3))
    out = run_consensus(z, 1, model)
    np.testing.assert_allclose(out, average_projection(z), atol=1e-12)


def test_path_graph_spectral_decay_oracle():
    # P3 contracts consensus error by its second eigenvalue 2/3 per round
    model = MixingModel(make_graph_sequence(3, "static", topology="path"))
    rng = np.random.default_rng(4)
    z = rng.standard_normal((3, 4))
    out = run_consensus(z, 10, model)
    assert consensus_error(out) <= (2.0 / 3.0) ** 10 * consensus_error(z) + 1e-10


def _models_all_kinds():
    return [
        MixingModel(make_graph_sequence(5, "static", topology="ring")),
        MixingModel(make_graph_sequence(6, "per-step-connected", degree=3, seed=7)),
        MixingModel(make_graph_sequence(6, "tau-connected", tau=3, topology="ring")),
    ]


@pytest.mark.parametrize("rounds", [1, 4, 9])
def test_mean_preserved_across_kinds(rounds):
    rng = np.random.default_rng(5)
    for model in _models_all_kinds():
        z = rng.standard_normal((model.n, 3))
        out = run_consensus(z, rounds, model)
        drift = np.linalg.norm(average_projection(out) - average_projection(z))
        assert drift <= 1e-10


@pytest.mark.parametrize("rounds", [3, 7, 12])
def test_geometric_decay_across_kinds(rounds):
    rng = np.random.default_rng(6)
    for model in _models_all_kinds():
        lam = estimate_lambda(model, horizon=40)
        factor = (1.0 - lam) ** (rounds // model.tau)
        for _ in range(10):
            z = rng.standard_normal((model.n, 2))
            out = run_consensus(z, rounds, model)
            assert consensus_error(out) <= factor * consensus_error(z) + 1e-10


def test_calls_continue_from_their_first_round():
    # rounds t0 .. t0 + rounds - 1: 5 rounds from 0 then 3 from 5 are 8 from 0
    model = MixingModel(make_graph_sequence(6, "tau-connected", tau=3, topology="ring"))
    z = np.random.default_rng(8).standard_normal((6, 2))
    np.testing.assert_array_equal(run_consensus(run_consensus(z, 5, model), 3, model, 5),
                                  run_consensus(z, 8, model))


@pytest.mark.parametrize("rounds, t0", [(-1, 0), (0, -1), (2, -3)])
def test_negative_rounds_and_first_round_are_refused(rounds, t0):
    model = MixingModel(make_graph_sequence(4, "static", topology="ring"))
    with pytest.raises(ValueError, match="must be >= 0"):
        run_consensus(np.ones((4, 2)), rounds, model, t0)


def test_matrix_sequences_bit_identical_across_runs():
    seq = make_graph_sequence(6, "per-step-connected", degree=3, seed=11)
    first = [MixingModel(seq).matrix_at(k) for k in range(8)]
    second = [MixingModel(make_graph_sequence(6, "per-step-connected",
                                              degree=3, seed=11)).matrix_at(k)
              for k in range(8)]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_per_step_gossip_above_the_crossover_builds_no_dense_matrix(monkeypatch):
    n = consensus.EDGE_MIN_NODES

    def refuse(seq, k):
        raise AssertionError(f"dense Metropolis matrix built for round {k}")

    monkeypatch.setattr(topology, "metropolis_matrix", refuse)
    problem, profile = build_least_squares(n, 2, seed=0)
    model = MixingModel(make_graph_sequence(n, "per-step-connected", degree=4, seed=1))
    config = DGDConfig(gamma=1.0 / profile.L_g, iterations=3, rounds_schedule=2)
    record, _ = dgd_run(problem, model, config, np.zeros((n, 2)))
    assert record.meta["total_comm_rounds"] == 6
    assert record.f_gap[-1] < record.f_gap[0]


def test_edgeless_edge_list_round_returns_its_input():
    # an edgeless round's bincount sums are int64 zeros; the round must add
    # them, not write floats into them
    n = consensus.EDGE_MIN_NODES
    model = MixingModel(make_graph_sequence(n, "static", topology="empty"))
    assert consensus.edge_gossip(n, len(model.weights_at(0)[2]))
    z = np.random.default_rng(8).standard_normal((n, 3))
    out = run_consensus(z, 2, model)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, z)


def test_complete_graph_above_the_crossover_stays_dense(monkeypatch):
    n = consensus.EDGE_MIN_NODES
    model = MixingModel(make_graph_sequence(n, "static", topology="complete"))
    served = []
    original = MixingModel.matrix_at

    def counting(self, k):
        served.append(k)
        return original(self, k)

    monkeypatch.setattr(MixingModel, "matrix_at", counting)
    z = np.random.default_rng(7).standard_normal((n, 2))
    out = run_consensus(z, 4, model, 3)
    assert served == [3, 4, 5, 6]
    np.testing.assert_allclose(out, average_projection(z), rtol=0, atol=1e-12)


def test_dense_per_step_round_above_the_crossover_builds_its_graph_once(monkeypatch):
    n = consensus.EDGE_MIN_NODES
    model = MixingModel(make_graph_sequence(n, "per-step-connected", degree=8, seed=1))
    built, served = [], []
    edges_at, matrix_at = topology.GraphSequence.edges_at, MixingModel.matrix_at

    def counting_edges(self, k):
        built.append(k)
        return edges_at(self, k)

    def counting_matrix(self, k):
        served.append(k)
        return matrix_at(self, k)

    monkeypatch.setattr(topology.GraphSequence, "edges_at", counting_edges)
    monkeypatch.setattr(MixingModel, "matrix_at", counting_matrix)
    z = np.random.default_rng(3).standard_normal((n, 2))
    out = run_consensus(z, 5, model, 2)
    assert built == served == [2, 3, 4, 5, 6]
    expected = z
    for k in range(2, 7):
        # every round is too dense for the edge list
        assert len(topology.metropolis_weights(model.seq, k)[2]) > consensus.EDGE_MAX_FILL * n ** 2
        expected = topology.metropolis_matrix(model.seq, k) @ expected
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("d", [1, 8, 16])
@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
def test_dense_gossip_equals_round_by_round_product_bit_for_bit(d, layout):
    # dense rounds are written W.dot(z); they must return exactly W @ z
    seq = make_graph_sequence(30, "tau-connected", tau=3, topology="random",
                              degree=4, seed=5)
    model = MixingModel(seq)
    rng = np.random.default_rng(d)
    z0 = rng.standard_normal((30, 2 * d))
    z0 = {"C": np.ascontiguousarray(z0[:, :d]), "F": np.asfortranarray(z0[:, :d]),
          "sliced": z0[:, ::2]}[layout]
    out = run_consensus(z0, 7, model, 2)
    expected = z0
    for t in range(2, 9):
        expected = topology.metropolis_matrix(seq, t) @ expected
    np.testing.assert_array_equal(out, expected)


def _count_edge_builds(monkeypatch):
    built = []
    edges_at = topology.GraphSequence.edges_at

    def counting(self, k):
        built.append(k)
        return edges_at(self, k)

    monkeypatch.setattr(topology.GraphSequence, "edges_at", counting)
    return built


def test_periodic_weights_are_built_once_for_both_forms(monkeypatch):
    # lam builds the ring's dense matrix; edge-list gossip then reuses the
    # weights that matrix came from instead of building them again
    n = consensus.EDGE_MIN_NODES
    model = MixingModel(make_graph_sequence(n, "static", topology="ring"))
    model.lam
    built = _count_edge_builds(monkeypatch)
    z = np.random.default_rng(4).standard_normal((n, 3))
    out = run_consensus(z, 6, model)
    assert built == []
    expected = z
    for _ in range(6):
        expected = model.matrix_at(0) @ expected
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)


def test_one_model_serves_two_column_counts(monkeypatch):
    # MGDA's x and y blocks gossip over one model with different widths
    n = consensus.EDGE_MIN_NODES
    seq = make_graph_sequence(n, "tau-connected", tau=3, topology="random",
                              degree=4, seed=2)
    rng = np.random.default_rng(5)
    starts = {2: rng.standard_normal((n, 2)), 3: rng.standard_normal((n, 3))}
    fresh = {}
    for d, z in starts.items():
        model, fresh[d] = MixingModel(seq), []
        for step in range(4):
            z = run_consensus(z, 2, model, 2 * step)
            fresh[d].append(z)
    built = _count_edge_builds(monkeypatch)
    shared = MixingModel(seq)
    states = dict(starts)
    for step in range(4):
        for d in (2, 3):
            states[d] = run_consensus(states[d], 2, shared, 2 * step)
            np.testing.assert_array_equal(states[d], fresh[d][step])
    assert sorted(built) == [0, 1, 2]


# rings on EDGE_MIN_NODES nodes, whose every round gossips from the edge list
EDGE_LIST_RINGS = [("static", {}), ("tau-connected", {"tau": 3})]


def _ring_model(kind, params, n=consensus.EDGE_MIN_NODES):
    return MixingModel(make_graph_sequence(n, kind, topology="ring", **params))


@pytest.mark.parametrize("kind, params", EDGE_LIST_RINGS)
def test_lam_equals_the_explicit_window_spectrum(kind, params):
    model = _ring_model(kind, params)
    n, tau = model.n, model.tau
    avg = np.full((n, n), 1.0 / n)
    worst = 0.0
    for s in range(tau):
        window = topology.metropolis_matrix(model.seq, s)
        for k in range(s + 1, s + tau):
            window = topology.metropolis_matrix(model.seq, k) @ window
        if tau == 1:
            top = np.abs(np.linalg.eigvalsh(window - avg)).max()
        else:
            top = np.linalg.svd(window - avg, compute_uv=False)[0]
        worst = max(worst, top)
    assert model.lam == 1.0 - worst


@pytest.mark.parametrize("kind, params", EDGE_LIST_RINGS)
def test_lam_keeps_no_dense_matrix_of_an_edge_list_round(kind, params, monkeypatch):
    model = _ring_model(kind, params)
    expected = [topology.metropolis_matrix(model.seq, k) for k in range(model.tau)]
    model.lam
    assert all(entry[1] is None for entry in model._rounds.values())
    built = _count_edge_builds(monkeypatch)
    for k in range(model.tau):
        assert consensus.edge_gossip(model.n, len(model.weights_at(k)[2]))
        served = model.matrix_at(k)
        assert served is not model.matrix_at(k)
        np.testing.assert_array_equal(served, expected[k])
    assert all(entry[1] is None for entry in model._rounds.values())
    assert built == []


def test_lam_keeps_the_dense_matrix_of_a_dense_round(monkeypatch):
    model = _ring_model("tau-connected", {"tau": 3}, n=12)
    model.lam
    built = _count_edge_builds(monkeypatch)
    for k in range(6):
        assert not consensus.edge_gossip(model.n, len(model.weights_at(k)[2]))
        assert model.matrix_at(k) is model.matrix_at(k + 3)
    assert built == []


@pytest.mark.parametrize("kind, params, arrays", [("static", {}, 2),
                                                  ("tau-connected", {"tau": 3}, 3)])
def test_estimate_lambda_holds_at_most_a_window_and_one_more_matrix(kind, params,
                                                                    arrays):
    # numpy's n x n buffers, as tracemalloc sees them (LAPACK's workspace is
    # not traced): the window and its shifted copy on a static ring, and a
    # window, the next round's matrix and their product on tau 3
    model = _ring_model(kind, params)
    for k in range(model.tau):
        model.weights_at(k)
    n_sq_bytes = 8 * model.n ** 2
    slack = 8 * 10 * model.n
    tracemalloc.start()
    try:
        estimate_lambda(model)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= arrays * n_sq_bytes + slack
    assert retained <= slack
