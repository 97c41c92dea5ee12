"""Property tests of Metropolis mixing and gossip over arbitrary edge sets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plnet import MixingModel, make_graph_sequence, metropolis_matrix
from plnet.consensus import CommClock, average_projection, run_consensus

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
    out = run_consensus(z, rounds, model, CommClock())
    drift = np.abs(average_projection(out) - average_projection(z)).max()
    assert drift <= 1e-12 * (1 + rounds) * np.abs(z).max()
