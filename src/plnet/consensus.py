"""
Stacked states, the averaging projection, and the gossip subroutine.

A stacked state is a plain ``(n, d)`` float array whose row ``i`` is node
``i``'s copy of the parameter vector. The consensus set is the subspace of
states with all rows equal; projecting onto it replaces every row by the
column-wise mean. Gossip applies one round of Metropolis mixing at a time,
starting from a global round index ``t0`` that the caller advances, so that
time-varying sequences stay aligned across calls.

A round costs what its graph costs. On small graphs, and on dense ones, it
multiplies the state by the dense ``(n, n)`` mixing matrix. On large sparse
graphs it moves data along the round's edges only,
``z_i + sum_e w_e (z_j - z_i)``, in ``O(|E_t| d)`` time and without ever
forming an ``(n, n)`` matrix. Which path a round takes depends only on ``n``
and the round's edge count, through the crossover constants below; the two
paths agree to a few ULP.

The dense round is written ``W.dot(z)``, not ``W @ z``. Both reach the same
BLAS ``dgemm`` and return the same bits, but ``ndarray.dot`` skips the
``matmul`` ufunc's dispatch, which at n = 10 costs more than the product
itself: a (10, 10) by (10, 2) round took 0.9-1.0 us as ``W.dot(z)`` and
2.1-2.2 us as ``W @ z`` (``timeit``, one BLAS thread, 2-vCPU x86-64 VM).
The gossip tests that compare dense rounds with the round-by-round
``W @ z`` product bit for bit guard that equality.
"""

import math

import numpy as np

__all__ = ["average_projection", "consensus_error", "run_consensus"]

# Crossover between the dense product ``W @ z`` and the edge-list round.
# Per-round costs with d = 8 and one BLAS thread on a 2-vCPU x86-64 VM, the
# round's weights and index cached: at n = 200 the dense matrix stays in
# cache and wins (ring: 12 us dense, 15 us edge list); at n = 300 the ring
# goes to the edge list (26 us dense, 20 us) and mean degree 4 to the dense
# matrix (26 us, 31 us). At n = 1000 the dense round takes 0.7-0.8 ms and
# the edge list, about 40-55 ns per edge, 55 us on a ring, 250 us at mean
# degree 12 and 420-460 us at mean degree 20. Both constants sit on the
# dense side of these crossovers; lowering EDGE_MIN_NODES would change the
# rounding of every run with n in [300, 400).
EDGE_MIN_NODES = 400
EDGE_MAX_FILL = 1 / 128


def edge_gossip(n, edges):
    """Whether gossip applies a round with ``edges`` edges on ``n`` nodes from
    its edge list rather than its dense matrix: the one crossover predicate.

    Reads the constants above at call time, so patching them moves every
    use of the crossover at once.
    """
    return n >= EDGE_MIN_NODES and edges <= EDGE_MAX_FILL * n ** 2


def average_projection(x):
    """Project a stacked state onto the consensus subspace.

    Every row of the result equals the column-wise mean of ``x``; the map is
    linear and idempotent.
    """
    x = np.asarray(x, dtype=float)
    mean = x.mean(axis=0, keepdims=True)
    return np.broadcast_to(mean, x.shape).copy()


def consensus_error(x):
    """Frobenius distance between a stacked state and its row average.

    The same bits as ``np.linalg.norm(x - x.mean(axis=0))``, which computes
    exactly this (the mean as a sum divided by the row count, the norm as
    the square root of the raveled difference's dot product), in fewer
    numpy calls.
    """
    x = np.asarray(x, dtype=float)
    r = (x - np.add.reduce(x, axis=0) / len(x)).ravel("K")
    return math.sqrt(r.dot(r))


def _edge_round(z, i, j, w, index):
    """One gossip round ``z_i + sum_e w_e (z_j - z_i)`` over edge arrays.

    Every edge ``(i[e], j[e])`` moves ``w[e] (z_j - z_i)`` into row ``i`` and
    its negative into row ``j``. ``np.bincount`` sums the moves twice, in
    edge order, over the flattened ``(node, column)`` ``index`` of the
    endpoints (:meth:`~plnet.topology.MixingModel._edge_index`): once over
    its ``i`` half and once over its ``j`` half; the difference of the two
    sums is the change of ``z``. An edgeless round's sums are ``int64``
    zeros, so nothing here writes into them.
    """
    n, d = z.shape
    moves = z.take(j, axis=0)
    moves -= z.take(i, axis=0)
    moves *= w[:, None]
    moves = moves.ravel()
    delta = (np.bincount(index[:moves.size], weights=moves, minlength=n * d)
             - np.bincount(index[moves.size:], weights=moves, minlength=n * d))
    return z + delta.reshape(n, d)


def run_consensus(z0, rounds, model, t0=0):
    """Run ``rounds`` gossip rounds starting from global round ``t0``.

    Applies ``W(t0 + rounds - 1) ... W(t0 + 1) W(t0)`` to ``z0``; the next
    call of the same run starts at ``t0 + rounds``. Double stochasticity
    keeps the row mean invariant, so the projection of the output equals the
    projection of the input up to floating point.

    A round for which :func:`edge_gossip` holds (at least
    ``EDGE_MIN_NODES`` nodes, at most ``EDGE_MAX_FILL * n**2`` edges) is
    applied from the model's edge weights
    (:meth:`~plnet.topology.MixingModel.weights_at`) and never forms a dense
    matrix; every other round multiplies by the matrix the model caches for
    it (:meth:`~plnet.topology.MixingModel.matrix_at`), as ``W.dot(z)``: the
    same ``dgemm`` and the same bits as ``W @ z``, at a cheaper dispatch.

    Parameters
    ----------
    z0 : ndarray
        Stacked ``(n, d)`` state.
    rounds : int
        Number of communication rounds; 0 returns ``z0`` unchanged.
    model : topology.MixingModel
        Source of mixing weights.
    t0 : int
        Global index of the first round.
    """
    if rounds < 0 or t0 < 0:
        raise ValueError("round count and first round must be >= 0")
    if rounds == 0:
        return z0
    z = np.asarray(z0, dtype=float)
    large = model.n >= EDGE_MIN_NODES
    for t in range(t0, t0 + rounds):
        if large:
            i, j, w = model.weights_at(t)
            if edge_gossip(model.n, len(w)):
                z = _edge_round(z, i, j, w, model._edge_index(t, z.shape[1]))
                continue
        z = model.matrix_at(t).dot(z)
    return z
