"""Property tests of Metropolis mixing and gossip over arbitrary edge sets,
of the edge-list gossip round against the dense product, of the monotonicity
of the minimization budgets, of the minimization theorem on harness runs, and
of the per-node block form of the stacked gradients against the per-node
definitions."""

import csv
import json
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plnet import (
    LeastSquaresProblem,
    MixingModel,
    RobustLeastSquaresProblem,
    budget_min_deterministic,
    budget_min_stochastic,
    build_least_squares,
    consensus,
    harness,
    make_graph_sequence,
    metropolis_matrix,
)
from plnet.consensus import average_projection, run_consensus
from plnet.theory import OVERLAY_REL_TOL

from helpers import node_grad, node_grad_x, node_grad_y

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             database=None)


@st.composite
def edge_sets(draw):
    """``(n, edges)``: any simple undirected graph on 1 to 30 nodes.

    Covers empty, disconnected and isolated-node graphs; pairs may repeat
    in either orientation, as a caller's edge list may.
    """
    n = draw(st.integers(1, 30))
    if n == 1:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    return n, draw(st.lists(pair, max_size=3 * n))


def _degrees(n, edges):
    undirected = {(min(a, b), max(a, b)) for a, b in edges}
    deg = [0] * n
    for i, j in undirected:
        deg[i] += 1
        deg[j] += 1
    return undirected, deg


@PROPERTY_SETTINGS
@given(edge_sets())
def test_metropolis_matrix_properties(graph):
    n, edges = graph
    w = metropolis_matrix(make_graph_sequence(n, "static", edges=edges), 0)
    undirected, deg = _degrees(n, edges)
    assert w.shape == (n, n)
    np.testing.assert_array_equal(w, w.T)
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
    assert w.min() >= 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (min(i, j), max(i, j)) in undirected:
                assert w[i, j] == 1.0 / (1.0 + max(deg[i], deg[j]))
            else:
                assert w[i, j] == 0.0


@PROPERTY_SETTINGS
@given(edge_sets(), st.integers(0, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_gossip_preserves_the_mean(graph, rounds, d, seed):
    n, edges = graph
    model = MixingModel(make_graph_sequence(n, "static", edges=edges))
    z = np.random.default_rng(seed).standard_normal((n, d))
    out = run_consensus(z, rounds, model)
    drift = np.abs(average_projection(out) - average_projection(z)).max()
    assert drift <= 1e-12 * (1 + rounds) * np.abs(z).max()


@st.composite
def mixing_models(draw):
    """A mixing model of any sequence kind on 1 to 30 nodes.

    ``static`` draws any edge set (so empty graphs and isolated nodes);
    ``tau-connected`` and ``per-step-connected`` draw random graphs.
    """
    kind = draw(st.sampled_from(["static", "tau-connected", "per-step-connected"]))
    if kind == "static":
        n, edges = draw(edge_sets())
        return MixingModel(make_graph_sequence(n, kind, edges=edges))
    n = draw(st.integers(1, 30))
    graph = {"degree": draw(st.integers(1, 8)), "seed": draw(st.integers(0, 2**16))}
    if kind == "tau-connected":
        graph.update(tau=draw(st.integers(1, 4)), topology="random")
    return MixingModel(make_graph_sequence(n, kind, **graph))


def _dense_gossip(z, rounds, model, t0):
    for t in range(t0, t0 + rounds):
        z = metropolis_matrix(model.seq, t) @ z
    return z


@PROPERTY_SETTINGS
@given(mixing_models(), st.integers(0, 8), st.integers(0, 20), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_edge_list_round_matches_the_dense_product(model, rounds, t0, d, seed):
    z = np.random.default_rng(seed).standard_normal((model.n, d))

    def refuse(self, k):
        raise AssertionError("the edge path asked for a dense matrix")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consensus, "EDGE_MIN_NODES", 0)
        patch.setattr(consensus, "EDGE_MAX_FILL", 1.0)
        patch.setattr(MixingModel, "matrix_at", refuse)
        out = run_consensus(z, rounds, model, t0)
    scale = np.abs(z).max()
    assert np.abs(out - _dense_gossip(z, rounds, model, t0)).max() <= 1e-12 * scale
    assert np.abs(out.mean(axis=0) - z.mean(axis=0)).max() <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(mixing_models(), st.integers(0, 8), st.integers(0, 20), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_gossip_below_the_crossover_is_the_dense_product(model, rounds, t0, d, seed):
    z = np.random.default_rng(seed).standard_normal((model.n, d))
    out = run_consensus(z, rounds, model, t0)
    np.testing.assert_array_equal(out, _dense_gossip(z, rounds, model, t0))


@st.composite
def budget_instances(draw):
    """``(profile, mixing, f0_gap, grad_norm)`` of a least-squares instance, d >= 2."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(2, 4))
    problem, profile = build_least_squares(n, d, seed=draw(st.integers(0, 2**16)))
    mixing = SimpleNamespace(tau=draw(st.integers(1, 4)), lam=draw(st.floats(0.01, 1.0)))
    f0_gap = problem.f(np.zeros(d)) - problem.f_star
    grad_norm = float(np.linalg.norm(problem.grad_stacked_at_opt()))
    return profile, mixing, max(f0_gap, 0.0), grad_norm


def ordered(values):
    return st.tuples(values, values).map(sorted)


def _budgets(instance, eps, delta_prime, delta, sigma):
    profile, mixing, f0_gap, grad_norm = instance
    return (budget_min_deterministic(profile, mixing, eps, delta_prime, delta,
                                     f0_gap, grad_norm),
            budget_min_stochastic(profile, mixing, eps, delta_prime, delta, sigma,
                                  f0_gap, grad_norm))


EPS = st.floats(1e-10, 1.0)
DELTA_PRIME = st.floats(1e-12, 0.1)
NOISE = st.floats(0.0, 1.0)


@PROPERTY_SETTINGS
@given(budget_instances(), ordered(EPS), DELTA_PRIME, NOISE, NOISE)
def test_budget_iterations_nonincreasing_in_eps(instance, eps, delta_prime, delta, sigma):
    tight = _budgets(instance, eps[0], delta_prime, delta, sigma)
    loose = _budgets(instance, eps[1], delta_prime, delta, sigma)
    for b_tight, b_loose in zip(tight, loose):
        assert b_loose.N <= b_tight.N


@PROPERTY_SETTINGS
@given(budget_instances(), EPS, ordered(DELTA_PRIME), NOISE, NOISE)
def test_budget_rounds_nonincreasing_in_delta_prime(instance, eps, delta_prime, delta, sigma):
    tight = _budgets(instance, eps, delta_prime[0], delta, sigma)
    loose = _budgets(instance, eps, delta_prime[1], delta, sigma)
    for b_tight, b_loose in zip(tight, loose):
        assert b_loose.T <= b_tight.T


@PROPERTY_SETTINGS
@given(budget_instances(), EPS, DELTA_PRIME, ordered(NOISE), ordered(NOISE))
def test_budget_floor_nondecreasing_in_delta_and_sigma(instance, eps, delta_prime,
                                                       delta, sigma):
    low = _budgets(instance, eps, delta_prime, delta[0], sigma[0])
    for high in (_budgets(instance, eps, delta_prime, delta[1], sigma[0]),
                 _budgets(instance, eps, delta_prime, delta[0], sigma[1])):
        for b_low, b_high in zip(low, high):
            assert b_high.floor >= b_low.floor


@st.composite
def theory_auto_configs(draw):
    """A ``theory_auto`` DGD least-squares config with bounds overlaid: an
    exact or fixed-direction-biased oracle on a static or tau-connected ring,
    path or random graph, recording every iterate of one seed."""
    graph = {"kind": draw(st.sampled_from(["static", "tau-connected"])),
             "topology": draw(st.sampled_from(["ring", "path", "random"])),
             "seed": draw(st.integers(0, 2**16))}
    if graph["kind"] == "tau-connected":
        graph["tau"] = draw(st.integers(2, 3))
    return {
        "problem": {"kind": "least_squares", "n": draw(st.integers(2, 8)),
                    "d": draw(st.integers(2, 4)), "seed": draw(st.integers(0, 2**16))},
        "graph": graph,
        "algorithm": {"kind": "dgd", "theory_auto": True, "record_every": 1,
                      "eps": draw(st.sampled_from([1e-3, 1e-5])),
                      "delta_prime": draw(st.sampled_from([1e-4, 1e-6]))},
        "oracle": {"delta": draw(st.sampled_from([0.0, 0.01, 0.05])), "sigma": 0.0},
        "seeds": [0],
        "overlay_bounds": True,
    }


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(theory_auto_configs())
def test_theory_auto_runs_keep_the_minimization_theorem(cfg):
    # the budget's N and T must deliver what the theorem promises on the run
    # they size: consensus within sqrt(delta'), the gap under its overlaid
    # bound at every iterate, and a final gap within eps of the floor
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, sidecar, failures = harness.run(cfg, output=os.path.join(tmp, "run"))
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(sidecar, encoding="utf-8") as fh:
            budget = json.load(fh)["budget"]
    assert not failures
    target = math.sqrt(cfg["algorithm"]["delta_prime"])
    for row in rows:
        assert float(row["consensus_err_x"]) <= target
        assert float(row["f_gap"]) <= (float(row["bound_f_gap"]) * (1.0 + OVERLAY_REL_TOL)
                                       + 1e-15)
    assert float(rows[-1]["f_gap"]) <= budget["eps"] + budget["floor"]


# shapes (n, d_x, d_y, d_i), alpha, data scale, seed
GRADIENT_SHAPES = st.tuples(st.integers(1, 8), st.integers(1, 5), st.integers(1, 5),
                            st.integers(1, 8))
ALPHAS = st.one_of(st.just(1.0 + 1e-12), st.floats(1.0 + 1e-9, 10.0))
SCALES = st.sampled_from([1e-3, 1.0, 1e3])
GRADIENT_RTOL = 1e-12


def _row_scales(A, B, y0, x, y, alpha):
    """Per-row size of the terms that enter a node gradient: the yardstick
    for the rounding difference between the two forms."""
    a = np.linalg.norm(A, axis=(1, 2))
    b = np.linalg.norm(B, axis=(1, 2))
    return (a + b) * (a * np.linalg.norm(x, axis=1) + np.linalg.norm(y0, axis=1)
                      + alpha * b * np.linalg.norm(y, axis=1))


def _assert_rows_close(actual, expected, scales):
    for row, ref, scale in zip(actual, expected, scales):
        assert np.abs(row - ref).max() <= GRADIENT_RTOL * scale


@PROPERTY_SETTINGS
@given(GRADIENT_SHAPES, ALPHAS, SCALES, st.integers(0, 2**32 - 1))
@example((1, 3, 2, 4), 2.0, 1.0, 0)     # one node
@example((4, 1, 1, 3), 2.0, 1.0, 1)     # d = 1
@example((3, 5, 4, 2), 2.0, 1.0, 2)     # d_i < d
@example((3, 2, 3, 8), 2.0, 1e3, 3)     # d_i > d
@example((5, 2, 2, 6), 1.0 + 1e-12, 1.0, 4)  # alpha close to 1
def test_stacked_gradients_match_the_node_definitions(shape, alpha, scale, seed):
    n, d_x, d_y, d_i = shape
    rng = np.random.default_rng(seed)
    A = scale * rng.standard_normal((n, d_i, d_x))
    B = scale * rng.standard_normal((n, d_i, d_y))
    y0 = scale * rng.standard_normal((n, d_i))
    x, y = rng.standard_normal((n, d_x)), rng.standard_normal((n, d_y))
    ls = LeastSquaresProblem(A, y0)
    saddle = RobustLeastSquaresProblem(A, B, y0, alpha)

    ls_scales = _row_scales(A, np.zeros_like(B), y0, x, np.zeros_like(y), alpha)
    _assert_rows_close(ls.grad_stacked(x),
                       [node_grad(ls, i, x[i]) for i in range(n)], ls_scales)
    scales = _row_scales(A, B, y0, x, y, alpha)
    _assert_rows_close(saddle.grad_x_stacked(x, y),
                       [node_grad_x(saddle, i, x[i], y[i]) for i in range(n)], scales)
    _assert_rows_close(saddle.grad_y_stacked(x, y),
                       [node_grad_y(saddle, i, x[i], y[i]) for i in range(n)], scales)

    # at a consensual state the row mean is the gradient of the average
    xc, yc = np.tile(x[0], (n, 1)), np.tile(y[0], (n, 1))
    ls_mean_scale = _row_scales(A, np.zeros_like(B), y0, xc, np.zeros_like(yc),
                                alpha).mean()
    mean_scale = _row_scales(A, B, y0, xc, yc, alpha).mean()
    _assert_rows_close([ls.grad_stacked(xc).mean(axis=0)], [ls.grad_f(x[0])],
                       [ls_mean_scale])
    _assert_rows_close([saddle.grad_x_stacked(xc, yc).mean(axis=0)],
                       [saddle.grad_x(x[0], y[0])], [mean_scale])
    _assert_rows_close([saddle.grad_y_stacked(xc, yc).mean(axis=0)],
                       [saddle.grad_y(x[0], y[0])], [mean_scale])
