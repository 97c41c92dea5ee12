"""
Time-varying communication graphs and gossip mixing matrices.

A graph sequence assigns an undirected edge set to every communication
round ``k``. Three kinds are supported:

* ``tau-connected`` -- a round-robin decomposition of a base graph into
  ``tau`` edge batches, so the union of edges over any ``tau`` consecutive
  rounds is the base graph;
* ``static`` -- the same graph at every round: the ``tau-connected``
  construction at ``tau = 1``;
* ``per-step-connected`` -- an independently sampled connected graph at
  every round.

Nothing here requires a base graph to be connected. Metropolis matrices
have positive diagonals, so a window product contracts exactly when the
union of the window's graphs is connected: a disconnected base graph is
refused where its contraction is measured, by :func:`estimate_lambda`.

Every edge set, from its construction to the Metropolis weights, is held
as a pair of endpoint arrays ``(i, j)``: contiguous, read-only ``intp``
arrays with ``i < j`` on every edge, sorted by ``(i, j)``. Code that sums
over edges therefore sums in one fixed order.

Mixing matrices use Metropolis weights: entry ``1 / (1 + max(deg_i, deg_j))``
on edges, zero off the edge set, and the complementary mass on the
diagonal. These matrices are doubly stochastic and nonnegative, and over
any window of ``tau`` rounds they contract the distance to consensus by a
factor ``1 - lam`` that :func:`estimate_lambda` measures from the spectrum
of the window products. For the periodic kinds (``static``,
``tau-connected``) one period of windows covers every window, so ``lam``
is exact; for ``per-step-connected`` it is estimated from sampled windows
and is not a bound.

A :class:`MixingModel` builds each round's edge weights once and derives
from them what gossip multiplies by, in one cache entry per round: the
dense matrix on rounds gossip applies densely, the edge-list index on
rounds it applies from the edge list (the crossover is
:func:`plnet.consensus.edge_gossip`). A dense matrix asked for on an
edge-list round, as :func:`estimate_lambda` does, is built and not kept.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import consensus

__all__ = [
    "GraphSequence",
    "MixingModel",
    "MixingReport",
    "NonContractiveSequenceError",
    "make_graph_sequence",
    "metropolis_matrix",
    "metropolis_weights",
    "estimate_lambda",
    "validate_mixing",
]

STOCHASTICITY_TOL = 1e-12
CONTRACTION_TOL = 1e-12


class NonContractiveSequenceError(ValueError):
    """Raised when a probed window of mixing matrices does not contract."""


def _frozen(i, j):
    """Contiguous read-only ``intp`` endpoint arrays ``(i, j)``.

    Edge arrays are shared by every round of a periodic sequence and every
    model built on it, so no caller may write into them.
    """
    i = np.ascontiguousarray(i, dtype=np.intp)
    j = np.ascontiguousarray(j, dtype=np.intp)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _from_keys(n, keys):
    """Endpoint arrays of sorted, distinct edge keys ``i * n + j`` (i < j)."""
    return _frozen(keys // n, keys % n)


def _canonical_edges(n, edges):
    """Check an edge list from outside and return its canonical arrays.

    ``edges`` is an iterable of node pairs in either orientation, repeats
    allowed. Raises ``ValueError`` on the first self-loop or out-of-range
    pair, in input order.
    """
    pairs = np.array(list(edges), dtype=np.intp)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be a list of (i, j) node pairs")
    a, b = pairs.T
    i, j = np.minimum(a, b), np.maximum(a, b)
    bad = (a == b) | (i < 0) | (j >= n)
    if bad.any():
        x, y = (int(v) for v in pairs[np.argmax(bad)])
        if x == y:
            raise ValueError(f"self-loop ({x},{x}) is not allowed")
        raise ValueError(f"edge ({x},{y}) out of range for n={n}")
    return _from_keys(n, np.unique(i * n + j))


def _base_edges(n, topology, degree, rng):
    """Canonical endpoint arrays of a named base topology on n nodes."""
    nodes = np.arange(n)
    if topology == "complete":
        return _frozen(*np.triu_indices(n, 1))
    if topology in ("path", "ring"):
        keys = nodes[:-1] * (n + 1) + 1  # (v, v + 1)
        if topology == "ring" and n > 2:
            keys = np.append(keys, n - 1)  # (0, n - 1)
        return _from_keys(n, np.sort(keys))
    if topology == "star":
        return _from_keys(n, nodes[1:])
    if topology == "empty":
        return _from_keys(n, nodes[:0])
    if topology == "random":
        return _random_connected_edges(n, 4 if degree is None else degree, rng)
    raise ValueError(f"unknown topology {topology!r}")


def _random_connected_edges(n, degree, rng):
    """Random connected graph: random recursive tree plus extra random edges.

    The result has roughly ``n * degree / 2`` edges (capped at the complete
    graph), and is connected by construction. Node ``order[idx]`` joins a
    uniform earlier node; extra edges are uniform node pairs, skipping
    self-loops and repeats, in draw order until the target count. The draws
    are made in batches, which read the generator's stream exactly as one
    draw at a time does, so the edge set is the one that reading gives.
    Edges are handled as sorted keys ``i * n + j``; a batch keeps the first
    draw of each new key and, of those, as many as the target still needs.
    """
    order = rng.permutation(n)
    parents = order[rng.integers(0, np.arange(1, n))]
    keys = np.sort(np.minimum(order[1:], parents) * n
                   + np.maximum(order[1:], parents))
    target = min(n * (n - 1) // 2, max(n - 1, math.ceil(n * degree / 2)))
    while len(keys) < target:
        a, b = rng.integers(0, n, size=(target - len(keys) + 16, 2)).T
        drawn = (np.minimum(a, b) * n + np.maximum(a, b))[a != b]
        distinct, first = np.unique(drawn, return_index=True)
        known = keys[np.minimum(np.searchsorted(keys, distinct), len(keys) - 1)]
        first = np.sort(first[known != distinct])[:target - len(keys)]
        keys = np.sort(np.concatenate((keys, drawn[first])))
    return _from_keys(n, keys)


@dataclass(frozen=True, eq=False)
class GraphSequence:
    """Time-indexed undirected edge sets on ``n`` fixed nodes.

    ``edges_at(k)`` returns the edges active during communication round
    ``k`` as endpoint arrays ``(i, j)``: contiguous, read-only ``intp``
    arrays with ``i < j`` everywhere, sorted by ``(i, j)``, one entry per
    edge. Periodic sequences return the same cached arrays at every round
    of a residue class; ``per-step-connected`` builds fresh ones on every
    call. ``period`` is the length of the repeating cycle of edge sets
    (``None`` for aperiodic random sequences); it lets mixing matrices be
    cached. Sequences compare by identity.
    """

    n: int
    kind: str
    tau: int = 1
    period: int | None = 1
    _batches: tuple = field(default=None, repr=False)
    _seed: int | None = field(default=None, repr=False)
    _degree: int | None = field(default=None, repr=False)

    def edges_at(self, k):
        if k < 0:
            raise ValueError("time index must be >= 0")
        if self.kind == "per-step-connected":
            rng = np.random.default_rng([self._seed, k])
            return _random_connected_edges(self.n, self._degree, rng)
        return self._batches[k % len(self._batches)]


def _base_graph(n, params):
    """Endpoint arrays of a sequence's base graph: explicit or named
    (``"complete"`` by default)."""
    if "edges" in params:
        return _canonical_edges(n, params["edges"])
    rng = np.random.default_rng(params.get("seed", 0))
    return _base_edges(n, params.get("topology", "complete"), params.get("degree"), rng)


def make_graph_sequence(n, kind, **params):
    """Build a graph sequence of the requested kind.

    Parameters
    ----------
    n : int
        Number of nodes; must be >= 1.
    kind : str
        One of ``"static"``, ``"per-step-connected"``, ``"tau-connected"``.
    **params
        Kind-specific parameters. ``static`` and ``tau-connected``: the base
        graph, as a ``topology`` name (default ``"complete"``; ``degree`` and
        ``seed`` for ``topology="random"``) or an explicit ``edges`` list of
        node pairs; ``tau-connected`` also reads ``tau``. The base graph's
        edges, sorted by ``(i, j)``, are dealt round-robin into ``tau``
        rotating batches; a static graph is that construction at ``tau = 1``.
        ``per-step-connected``: ``degree``, ``seed``.

    Returns
    -------
    GraphSequence

    Raises
    ------
    ValueError
        If ``n < 1``, a ``tau-connected`` request's ``tau`` is not an integer
        >= 1 (a bool is not one), the topology is unknown, or an explicit edge
        is a self-loop or names a node outside ``0 .. n-1``. A disconnected
        base graph builds; its windows cannot contract, so measuring its
        ``lam`` raises :class:`NonContractiveSequenceError`.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    if kind == "per-step-connected":
        return GraphSequence(n=n, kind=kind, tau=1, period=None,
                             _seed=params.get("seed", 0), _degree=params.get("degree", 4))
    if kind not in ("static", "tau-connected"):
        raise ValueError(f"unknown graph sequence kind {kind!r}")
    tau = params.get("tau", 1) if kind == "tau-connected" else 1
    if isinstance(tau, bool) or not isinstance(tau, (int, np.integer)) or tau < 1:
        raise ValueError(f"tau must be an integer >= 1, got {tau!r}")
    tau = int(tau)
    i, j = _base_graph(n, params)
    batches = tuple(_frozen(i[b::tau], j[b::tau]) for b in range(tau))
    return GraphSequence(n=n, kind=kind, tau=tau, period=tau, _batches=batches)


def metropolis_weights(seq, k):
    """Metropolis weights of ``seq`` at round ``k`` as edge arrays ``(i, j, w)``.

    Edge ``(i[e], j[e])`` carries weight ``w[e] = 1 / (1 + max(deg_i, deg_j))``
    in both directions; the diagonal holds the remaining mass of each row.
    This is the only place the weight formula lives: :func:`metropolis_matrix`
    scatters these arrays into a dense matrix.
    """
    if k < 0:
        raise ValueError("time index must be >= 0")
    i, j = seq.edges_at(k)
    deg = np.bincount(np.concatenate((i, j)), minlength=seq.n)
    return i, j, 1.0 / (1.0 + np.maximum(deg[i], deg[j]))


def metropolis_matrix(seq, k, weights=None):
    """Metropolis mixing matrix of ``seq`` at round ``k``.

    Off-diagonal entries are ``1 / (1 + max(deg_i, deg_j))`` on edges and 0
    elsewhere; each diagonal entry absorbs the remaining mass so that rows
    and columns sum to one. ``weights``, when given, are the round's edge
    arrays from :func:`metropolis_weights`, which are then not rebuilt.
    """
    i, j, weights = metropolis_weights(seq, k) if weights is None else weights
    w = np.zeros((seq.n, seq.n))
    w[i, j] = w[j, i] = weights
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


class MixingModel:
    """A mixing-matrix sequence with its contraction parameters.

    Wraps a :class:`GraphSequence` and serves the Metropolis weights of any
    round, as a dense matrix through :meth:`matrix_at` or as edge arrays
    through :meth:`weights_at`. Each round has one cache entry, keyed by
    ``k % period`` (aperiodic sequences: ``k``, latest round only), that
    holds the weights ``(i, j, w)`` and, built from them on first use, what
    gossip multiplies by: the dense matrix on a round that
    :func:`plnet.consensus.edge_gossip` sends down the dense path, the
    edge-list index of each column count on one it sends down the edge
    list. :meth:`matrix_at` on an edge-list round builds the matrix from
    the cached weights and returns it without keeping it. The
    per-window contraction factor ``lam`` is measured lazily, on first use,
    by :func:`estimate_lambda`: exactly for periodic sequences, as a
    sampled estimate for aperiodic ones.
    """

    def __init__(self, seq):
        self.seq = seq
        self.n = seq.n
        self.tau = seq.tau
        self._lam = None
        self._rounds = {}

    def _round(self, k):
        """Round ``k``'s cache entry ``[(i, j, w), matrix or None, {d: index}]``."""
        period = self.seq.period
        key = k if period is None else k % period
        entry = self._rounds.get(key)
        if entry is None:
            if period is None:
                self._rounds.clear()
            entry = self._rounds[key] = [metropolis_weights(self.seq, key), None, {}]
        return entry

    def matrix_at(self, k):
        # the hit path stays inline: this runs once per dense gossip round,
        # where a helper call costs several percent on small graphs
        period = self.seq.period
        entry = self._rounds.get(k if period is None else k % period)
        if entry is None or entry[1] is None:
            entry = self._round(k)
            if consensus.edge_gossip(self.n, len(entry[0][2])):
                return metropolis_matrix(self.seq, k, entry[0])
            entry[1] = metropolis_matrix(self.seq, k, entry[0])
        return entry[1]

    def weights_at(self, k):
        return self._round(k)[0]

    def _edge_index(self, k, d):
        """The ``np.bincount`` index edge-list gossip sums round ``k``'s moves
        over: entry ``e * d + c`` of the ``i``-then-``j`` endpoint list is
        ``node * d + c``. Kept in the round's entry, per ``d``."""
        (i, j, _), _, index = self._round(k)
        if d not in index:
            index[d] = (np.concatenate((i, j))[:, None] * d + np.arange(d)).ravel()
        return index[d]

    @property
    def lam(self):
        if self._lam is None:
            self._lam = estimate_lambda(self)
        return self._lam


def estimate_lambda(model, horizon=None):
    """Measure the per-window contraction factor of a mixing sequence.

    For every probed window start ``s`` the product
    ``W(s+tau-1) ... W(s+1) W(s)`` is formed and the largest singular value
    of (product - uniform averaging matrix) is taken; for ``tau = 1`` the
    window is one symmetric matrix, so this is its largest absolute
    eigenvalue. The returned factor is one minus the worst such value. A
    periodic sequence repeats its windows with its period, so probing the
    starts ``0 .. period-1`` covers every window and the factor is exact. An
    aperiodic sequence is probed on its first ``horizon`` windows; the factor
    is then a sampled estimate, not a bound.

    Parameters
    ----------
    model : MixingModel
        The mixing sequence to probe; its ``tau`` is the window length.
    horizon : int, optional
        Number of windows to probe on an aperiodic sequence (>= 1, default
        ``10 * tau``). Periodic sequences ignore it.

    Returns
    -------
    float
        Contraction factor in (0, 1].

    Raises
    ------
    NonContractiveSequenceError
        If any probed window has a singular value within ``1e-12`` of 1:
        the graph, or the union of a window's graphs, is disconnected.
    """
    tau = model.tau
    starts = model.seq.period
    if starts is None:
        starts = 10 * tau if horizon is None else int(horizon)
        if starts < 1:
            raise ValueError("horizon must be >= 1")
    worst = 0.0
    for s in range(starts):
        window = model.matrix_at(s)
        for k in range(s + 1, s + tau):
            window = model.matrix_at(k) @ window
        # same bits as W - full((n, n), 1/n); frees an uncached W before the solve
        window = window - 1.0 / model.n
        if tau == 1:
            # one symmetric Metropolis matrix: its singular values are the
            # absolute eigenvalues, which eigvalsh finds about 3x faster
            top = np.abs(np.linalg.eigvalsh(window)).max()
        else:
            top = np.linalg.svd(window, compute_uv=False)[0]
        worst = max(worst, top)
    if worst >= 1.0 - CONTRACTION_TOL:
        raise NonContractiveSequenceError(
            f"window singular value {worst:.17g} reaches 1: sequence does not "
            "contract (the graph, or the union of a window's graphs, is disconnected)")
    return 1.0 - worst


@dataclass
class MixingReport:
    """Pass/fail record of the mixing-matrix checks for one matrix."""

    decentralized: bool
    doubly_stochastic: bool
    nonnegative: bool
    details: dict

    @property
    def passed(self):
        return self.decentralized and self.doubly_stochastic and self.nonnegative


def validate_mixing(w, seq, k):
    """Check one mixing matrix against its graph at round ``k``.

    Verifies the zero pattern off the edge set, double stochasticity within
    ``1e-12``, and entrywise nonnegativity. Failures are reported, not
    raised.
    """
    w = np.asarray(w, dtype=float)
    n = seq.n
    if w.shape != (n, n):
        raise ValueError(f"matrix shape {w.shape} does not match n={n}")
    i, j = seq.edges_at(k)
    allowed = np.eye(n, dtype=bool)
    allowed[i, j] = allowed[j, i] = True
    off_pattern = [(int(a), int(b)) for a, b in np.argwhere((w != 0.0) & ~allowed)]
    row_err = float(np.abs(w.sum(axis=1) - 1.0).max())
    col_err = float(np.abs(w.sum(axis=0) - 1.0).max())
    min_entry = float(w.min())
    return MixingReport(
        decentralized=not off_pattern,
        doubly_stochastic=max(row_err, col_err) <= STOCHASTICITY_TOL,
        nonnegative=min_entry >= -STOCHASTICITY_TOL,
        details={
            "nonedge_entries": off_pattern,
            "row_sum_error": row_err,
            "col_sum_error": col_err,
            "min_entry": min_entry,
        },
    )
