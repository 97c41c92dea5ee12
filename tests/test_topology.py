import re

import numpy as np
import pytest

from plnet import (
    DGDConfig,
    GraphSequence,
    MixingModel,
    NonContractiveSequenceError,
    OracleSpec,
    build_least_squares,
    dgd_run,
    estimate_lambda,
    make_graph_sequence,
    metropolis_matrix,
    metropolis_weights,
)
from plnet.consensus import average_projection

from helpers import bfs_connected, edge_list


def test_complete_graph_edges():
    seq = make_graph_sequence(3, "static", topology="complete")
    expected = {(0, 1), (0, 2), (1, 2)}
    for k in range(5):
        assert set(edge_list(seq.edges_at(k))) == expected


def test_single_node_empty_graph():
    seq = make_graph_sequence(1, "static", topology="empty")
    assert edge_list(seq.edges_at(0)) == []
    assert edge_list(seq.edges_at(7)) == []


def test_rotating_ring_windows_connected():
    # union over any 3 consecutive steps must be the full 6-cycle
    seq = make_graph_sequence(6, "tau-connected", tau=3, topology="ring")
    horizon = 30
    for k in range(horizon):
        union = set()
        for j in range(3):
            union |= set(edge_list(seq.edges_at(k + j)))
        assert bfs_connected(6, union)
    # single batches are not connected (the decomposition is nontrivial)
    assert not bfs_connected(6, edge_list(seq.edges_at(0)))


def test_per_step_connected_every_round():
    seq = make_graph_sequence(7, "per-step-connected", degree=3, seed=2)
    for k in range(20):
        assert bfs_connected(7, edge_list(seq.edges_at(k)))
    # deterministic per round
    assert edge_list(seq.edges_at(4)) == edge_list(seq.edges_at(4))


def test_rejects_zero_nodes():
    with pytest.raises(ValueError):
        make_graph_sequence(0, "static", topology="complete")


def test_rejects_disconnected_tau_base():
    # the base graph builds; no window can contract, which measuring lam finds
    seq = make_graph_sequence(4, "tau-connected", tau=2, edges=[(0, 1), (2, 3)])
    with pytest.raises(NonContractiveSequenceError, match="does not contract"):
        MixingModel(seq).lam


@pytest.mark.parametrize("graph", [{"topology": "ring"},
                                   {"topology": "random", "degree": 3, "seed": 4}])
def test_static_graph_is_the_tau_connected_graph_at_tau_one(graph):
    static = make_graph_sequence(8, "static", **graph)
    tau_one = make_graph_sequence(8, "tau-connected", tau=1, **graph)
    assert (static.tau, static.period) == (tau_one.tau, tau_one.period) == (1, 1)
    for k in range(3):
        for a, b in zip(static.edges_at(k), tau_one.edges_at(k)):
            np.testing.assert_array_equal(a, b)
    models = MixingModel(static), MixingModel(tau_one)
    assert models[0].lam.hex() == models[1].lam.hex()
    problem, prof = build_least_squares(8, 3, seed=2)
    config = DGDConfig(gamma=1.0 / prof.L_g, iterations=20, rounds_schedule=2,
                       oracle=OracleSpec(sigma=0.1, seed=3))
    a, b = (dgd_run(problem, model, config, np.zeros((8, 3)))[0] for model in models)
    for column in ("ks", "comm_rounds", "f_gap", "consensus_err_x", "grad_norm_x"):
        assert getattr(a, column) == getattr(b, column)
    np.testing.assert_array_equal(a.xbar, b.xbar)


@pytest.mark.parametrize("tau", [0, -1, 1.5, 2.0, True, "2"])
def test_rejects_a_tau_that_is_not_an_integer_of_at_least_one(tau):
    # tau used to be read through int(...): 1.5 and True ran as tau 1
    with pytest.raises(ValueError, match="tau must be an integer >= 1"):
        make_graph_sequence(6, "tau-connected", tau=tau, topology="ring")
    assert make_graph_sequence(6, "tau-connected", tau=np.int64(2), topology="ring").tau == 2


def test_rejects_self_loop_and_bad_edges():
    with pytest.raises(ValueError):
        make_graph_sequence(3, "static", edges=[(1, 1)])
    with pytest.raises(ValueError):
        make_graph_sequence(3, "static", edges=[(0, 3)])


def test_explicit_edges_are_checked_and_made_canonical():
    with pytest.raises(ValueError, match="self-loop"):
        make_graph_sequence(4, "static", edges=[(0, 1), (2, 2)])
    with pytest.raises(ValueError, match="out of range"):
        make_graph_sequence(4, "static", edges=[(0, 1), (3, 4)])
    with pytest.raises(ValueError, match="out of range"):
        make_graph_sequence(4, "static", edges=[(-1, 2)])
    seq = make_graph_sequence(4, "static", edges=[(3, 1), (0, 2), (1, 3), (2, 0), (0, 1)])
    i, j = seq.edges_at(0)
    np.testing.assert_array_equal(i, [0, 0, 1])
    np.testing.assert_array_equal(j, [1, 2, 3])


@pytest.mark.parametrize("params", [{"topolgy": "ring"}, {"degre": 3}])
def test_a_misspelled_graph_parameter_is_refused(params):
    # a misspelled topology built the complete graph, and per-step-connected
    # ignored a misspelled degree
    for kind in ("static", "tau-connected", "per-step-connected"):
        with pytest.raises(ValueError, match=f"unknown graph parameter '{min(params)}'"):
            make_graph_sequence(6, kind, **params)


@pytest.mark.parametrize("pair", [(0, 1.7), (True, 2), (0, "1"), (1.0, 2)])
def test_explicit_edges_with_a_non_integer_node_id_are_refused(pair):
    # such ids were coerced: (0, 1.7) became the edge (0, 1), (True, 2) the edge (1, 2)
    with pytest.raises(ValueError, match=re.escape(f"edge ({pair[0]!r},{pair[1]!r})")):
        make_graph_sequence(3, "static", edges=[(1, 2), pair])
    seq = make_graph_sequence(3, "static", edges=[(np.int64(2), 1), (0, np.int32(1))])
    np.testing.assert_array_equal(np.stack(seq.edges_at(0)), [[0, 1], [1, 2]])


def test_a_negative_round_is_refused():
    static = make_graph_sequence(4, "static", topology="ring")
    per_step = make_graph_sequence(4, "per-step-connected", degree=2, seed=1)
    for call in (lambda: metropolis_weights(static, -1),
                 lambda: metropolis_matrix(static, -1),
                 lambda: metropolis_weights(per_step, -1),
                 lambda: metropolis_matrix(per_step, -1),
                 lambda: MixingModel(per_step).matrix_at(-1)):
        with pytest.raises(ValueError, match="time index must be >= 0"):
            call()


@pytest.mark.parametrize("kind,graph", [
    ("static", {"topology": "ring"}),
    ("static", {"edges": [(2, 0), (1, 3)]}),
    ("tau-connected", {"tau": 3, "topology": "random", "seed": 1}),
    ("per-step-connected", {"degree": 3, "seed": 2}),
])
def test_edge_arrays_are_canonical_and_read_only(kind, graph):
    seq = make_graph_sequence(9, kind, **graph)
    for k in range(4):
        i, j = seq.edges_at(k)
        for ends in (i, j):
            assert ends.dtype == np.intp and ends.flags.c_contiguous
            assert not ends.flags.writeable
            with pytest.raises(ValueError):
                ends[0] = 5
        assert (i < j).all()
        assert edge_list((i, j)) == sorted(edge_list((i, j)))
        assert len(set(edge_list((i, j)))) == len(i)


def test_periodic_sequences_serve_their_cached_edge_arrays():
    static = make_graph_sequence(5, "static", topology="ring")
    assert all(a is b for a, b in zip(static.edges_at(0), static.edges_at(7)))
    rotating = make_graph_sequence(6, "tau-connected", tau=3, topology="ring")
    assert all(a is b for a, b in zip(rotating.edges_at(1), rotating.edges_at(4)))


def test_metropolis_complete_three_nodes():
    seq = make_graph_sequence(3, "static", topology="complete")
    w = metropolis_matrix(seq, 0)
    np.testing.assert_allclose(w, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_metropolis_path_hand_values():
    seq = make_graph_sequence(3, "static", topology="path")
    w = metropolis_matrix(seq, 0)
    third = 1.0 / 3.0
    expected = np.array([[2 * third, third, 0.0],
                         [third, third, third],
                         [0.0, third, 2 * third]])
    np.testing.assert_allclose(w, expected, atol=1e-15)
    assert np.abs(w.sum(axis=0) - 1).max() < 1e-12
    assert np.abs(w.sum(axis=1) - 1).max() < 1e-12


def test_metropolis_single_node():
    seq = make_graph_sequence(1, "static", topology="empty")
    np.testing.assert_allclose(metropolis_matrix(seq, 0), [[1.0]])


@pytest.mark.parametrize("seed", range(5))
def test_metropolis_random_graph_valid(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    seq = make_graph_sequence(n, "static", topology="random",
                              degree=int(rng.integers(2, 6)), seed=seed)
    w = metropolis_matrix(seq, 0)
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
    assert w.min() >= 0.0 and w.max() <= 1.0


def test_estimate_lambda_complete_is_one():
    model = MixingModel(make_graph_sequence(4, "static", topology="complete"))
    assert estimate_lambda(model) == pytest.approx(1.0, abs=1e-12)


def test_estimate_lambda_path3_is_one_third():
    # dense eigendecomposition oracle: eigenvalues of W are {1, 2/3, 0}
    seq = make_graph_sequence(3, "static", topology="path")
    w = metropolis_matrix(seq, 0)
    eigs = np.sort(np.linalg.eigvalsh(w))
    np.testing.assert_allclose(eigs, [0.0, 2.0 / 3.0, 1.0], atol=1e-12)
    model = MixingModel(seq)
    assert estimate_lambda(model) == pytest.approx(1.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("topology,n", [("path", 5), ("ring", 6), ("star", 5),
                                        ("random", 9)])
def test_estimate_lambda_matches_svd_oracle(topology, n):
    # static connected graph: lambda = 1 - second largest singular value
    seq = make_graph_sequence(n, "static", topology=topology, seed=3)
    w = metropolis_matrix(seq, 0)
    sigma = np.linalg.svd(w - np.full((n, n), 1.0 / n), compute_uv=False)[0]
    model = MixingModel(seq)
    assert estimate_lambda(model) == pytest.approx(1.0 - sigma, abs=1e-10)


def _window_oracle(seq):
    """1 - worst singular value over the ``tau`` cyclic windows, brute force."""
    n, tau = seq.n, seq.tau
    avg = np.full((n, n), 1.0 / n)
    sigmas = []
    for start in range(tau):
        window = np.eye(n)
        for k in range(start, start + tau):
            window = metropolis_matrix(seq, k) @ window
        sigmas.append(np.linalg.svd(window - avg, compute_uv=False)[0])
    return 1.0 - max(sigmas)


@pytest.mark.parametrize("horizon", [1, 2, 3, None])
@pytest.mark.parametrize("n,tau,topology,seed", [(10, 4, "random", 1),
                                                 (6, 3, "ring", 0),
                                                 (9, 2, "random", 2)])
def test_estimate_lambda_covers_every_window_of_a_period(n, tau, topology, seed,
                                                         horizon):
    # a probe shorter than the period would miss windows and overstate lam
    seq = make_graph_sequence(n, "tau-connected", tau=tau, topology=topology,
                              degree=4, seed=seed)
    lam = estimate_lambda(MixingModel(seq), horizon=horizon)
    assert lam == pytest.approx(_window_oracle(seq), abs=1e-12)


def test_metropolis_matrix_reads_the_edge_set_once(monkeypatch):
    calls = []
    original = GraphSequence.edges_at

    def counting(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(GraphSequence, "edges_at", counting)
    for seq in (make_graph_sequence(8, "static", topology="ring"),
                make_graph_sequence(8, "per-step-connected", degree=3, seed=2)):
        calls.clear()
        metropolis_matrix(seq, 5)
        assert calls == [5]


def _one_draw_at_a_time(n, degree, rng):
    """Reference random connected graph, drawing one number or pair at a time."""
    if n == 1:
        return set()
    order = rng.permutation(n)
    edges = set()
    for idx in range(1, n):
        a, b = int(order[idx]), int(order[rng.integers(0, idx)])
        edges.add((min(a, b), max(a, b)))
    target = min(n * (n - 1) // 2, max(n - 1, -(-n * degree // 2)))
    while len(edges) < target:
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return edges


@pytest.mark.parametrize("n", [1, 2, 3, 7, 30, 200, 1000])
@pytest.mark.parametrize("degree", [1, 4, 9, 50])
def test_random_edges_match_one_draw_at_a_time(n, degree):
    # batched draws must give the same graphs, returned sorted by (i, j)
    for seed in range(3):
        seq = make_graph_sequence(n, "per-step-connected", degree=degree, seed=seed)
        for k in range(3):
            expected = _one_draw_at_a_time(n, degree, np.random.default_rng([seed, k]))
            assert edge_list(seq.edges_at(k)) == sorted(expected)


@pytest.mark.parametrize("n, degree", [(2_097_147, 4), (10 ** 6, 10 ** 7)])
def test_random_graph_whose_edge_codes_could_overflow_is_refused(n, degree):
    # refused before any draw: n = 2_097_146 at degree 4 is the largest accepted
    seq = make_graph_sequence(n, "per-step-connected", degree=degree, seed=0)
    with pytest.raises(ValueError, match=f"n={n} and degree={degree}"):
        seq.edges_at(0)


def test_estimate_lambda_disconnected_raises():
    seq = make_graph_sequence(2, "static", edges=[])
    with pytest.raises(NonContractiveSequenceError):
        estimate_lambda(MixingModel(seq))


def test_window_contraction_on_random_states():
    # every probed window product must shrink distance to consensus by 1-lam
    seq = make_graph_sequence(6, "tau-connected", tau=3, topology="ring")
    model = MixingModel(seq)
    lam = model.lam
    assert 0.0 < lam < 1.0
    rng = np.random.default_rng(0)
    avg = np.full((6, 6), 1.0 / 6.0)
    for k in range(2, 8):
        window = np.eye(6)
        for j in range(k - 2, k + 1):
            window = model.matrix_at(j) @ window
        assert np.linalg.svd(window - avg, compute_uv=False)[0] < 1.0
        for _ in range(30):
            x = rng.standard_normal((6, 4))
            dev0 = np.linalg.norm(x - average_projection(x))
            dev1 = np.linalg.norm(window @ x - average_projection(window @ x))
            assert dev1 <= (1.0 - lam) * dev0 + 1e-10


def test_mixing_model_caches_periodic_sequences():
    seq = make_graph_sequence(6, "tau-connected", tau=3, topology="ring")
    model = MixingModel(seq)
    assert model.matrix_at(1) is model.matrix_at(4)  # period 3
    static = MixingModel(make_graph_sequence(4, "static", topology="ring"))
    assert static.matrix_at(0) is static.matrix_at(9)
