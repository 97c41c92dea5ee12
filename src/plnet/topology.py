"""
Time-varying communication graphs and gossip mixing matrices.

A graph sequence assigns an undirected edge set to every communication
round ``k``. Three kinds are supported:

* ``static`` -- the same connected (or deliberately disconnected) graph
  at every round;
* ``per-step-connected`` -- an independently sampled connected graph at
  every round;
* ``tau-connected`` -- a round-robin decomposition of a base connected
  graph into ``tau`` edge batches, so the union of edges over any ``tau``
  consecutive rounds is connected.

Mixing matrices use Metropolis weights: entry ``1 / (1 + max(deg_i, deg_j))``
on edges, zero off the edge set, and the complementary mass on the
diagonal. These matrices are doubly stochastic and nonnegative, and over
any window of ``tau`` rounds they contract the distance to consensus by a
factor ``1 - lam`` that :func:`estimate_lambda` measures from the spectrum
of the window products. For the periodic kinds (``static``,
``tau-connected``) one period of windows covers every window, so ``lam``
is exact; for ``per-step-connected`` it is estimated from sampled windows
and is not a bound.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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


def _canonical_edges(n, edges):
    """Normalize an edge iterable to a frozenset of (i, j) with i < j."""
    out = set()
    for a, b in edges:
        a, b = int(a), int(b)
        if a == b:
            raise ValueError(f"self-loop ({a},{a}) is not allowed")
        i, j = (a, b) if a < b else (b, a)
        if not 0 <= i < j < n:
            raise ValueError(f"edge ({a},{b}) out of range for n={n}")
        out.add((i, j))
    return frozenset(out)


def _is_connected(n, edges):
    """BFS connectivity check on an undirected edge set."""
    if n <= 1:
        return True
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def _base_edges(n, topology, degree=None, rng=None):
    """Edge set of a named base topology on n nodes."""
    if topology == "complete":
        return {(i, j) for i in range(n) for j in range(i + 1, n)}
    if topology == "ring":
        if n == 1:
            return set()
        if n == 2:
            return {(0, 1)}
        return {(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)}
    if topology == "path":
        return {(i, i + 1) for i in range(n - 1)}
    if topology == "star":
        return {(0, i) for i in range(1, n)}
    if topology == "empty":
        return set()
    if topology == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        return _random_connected_edges(n, degree if degree is not None else 4, rng)
    raise ValueError(f"unknown topology {topology!r}")


def _random_connected_edges(n, degree, rng):
    """Random connected graph: random recursive tree plus extra random edges.

    The result has roughly ``n * degree / 2`` edges (capped at the complete
    graph), and is connected by construction. Node ``order[idx]`` joins a
    uniform earlier node; extra edges are uniform node pairs, skipping
    self-loops and repeats, in draw order until the target count. The draws
    are made in batches, which read the generator's stream exactly as one
    draw at a time does, and edges are inserted in that order.
    """
    if n == 1:
        return set()
    order = rng.permutation(n)
    parents = order[rng.integers(0, np.arange(1, n))]
    edges = set(zip(np.minimum(order[1:], parents).tolist(),
                    np.maximum(order[1:], parents).tolist()))
    target = min(n * (n - 1) // 2, max(n - 1, math.ceil(n * degree / 2)))
    while len(edges) < target:
        pairs = rng.integers(0, n, size=(target - len(edges) + 16, 2))
        for a, b in zip(*pairs.T.tolist()):
            if a != b:
                edges.add((min(a, b), max(a, b)))
                if len(edges) == target:
                    break
    return edges


@dataclass(frozen=True)
class GraphSequence:
    """Time-indexed undirected edge sets on ``n`` fixed nodes.

    ``edges_at(k)`` returns the edge set active during communication round
    ``k``. ``period`` is the length of the repeating cycle of edge sets
    (``None`` for aperiodic random sequences); it lets mixing matrices be
    cached.
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
            return frozenset(_random_connected_edges(self.n, self._degree, rng))
        return self._batches[k % len(self._batches)]


def make_graph_sequence(n, kind, **params):
    """Build a graph sequence of the requested kind.

    Parameters
    ----------
    n : int
        Number of nodes; must be >= 1.
    kind : str
        One of ``"static"``, ``"per-step-connected"``, ``"tau-connected"``.
    **params
        Kind-specific parameters. ``static``: ``topology`` (name or explicit
        ``edges`` list), optional ``degree`` and ``seed`` for
        ``topology="random"``. ``per-step-connected``: ``degree``, ``seed``.
        ``tau-connected``: ``tau`` plus the base topology parameters; the base
        graph is split into ``tau`` rotating edge batches.

    Returns
    -------
    GraphSequence

    Raises
    ------
    ValueError
        If ``n < 1``, the topology is unknown, or a ``tau-connected``
        request has a disconnected base graph (its union can then never be
        connected within ``tau`` steps).
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    if kind == "static":
        if "edges" in params:
            edges = _canonical_edges(n, params["edges"])
        else:
            rng = np.random.default_rng(params.get("seed", 0))
            edges = _canonical_edges(
                n,
                _base_edges(n, params.get("topology", "complete"),
                            params.get("degree"), rng),
            )
        return GraphSequence(n=n, kind=kind, tau=1, period=1, _batches=(edges,))
    if kind == "per-step-connected":
        seed = params.get("seed", 0)
        degree = params.get("degree", 4)
        return GraphSequence(n=n, kind=kind, tau=1, period=None,
                             _seed=seed, _degree=degree)
    if kind == "tau-connected":
        tau = int(params.get("tau", 1))
        if tau < 1:
            raise ValueError("tau must be >= 1")
        rng = np.random.default_rng(params.get("seed", 0))
        base = sorted(_canonical_edges(
            n,
            params.get("edges",
                       _base_edges(n, params.get("topology", "ring"),
                                   params.get("degree"), rng)),
        ))
        if not _is_connected(n, base):
            raise ValueError(
                "tau-connected schedule cannot cover a connected union: "
                "base graph is disconnected")
        batches = tuple(
            frozenset(e for idx, e in enumerate(base) if idx % tau == b)
            for b in range(tau)
        )
        return GraphSequence(n=n, kind=kind, tau=tau, period=tau, _batches=batches)
    raise ValueError(f"unknown graph sequence kind {kind!r}")


def _endpoints(edges):
    """Endpoint index arrays ``(i, j)`` of an edge set, each contiguous."""
    ends = np.array(list(edges), dtype=np.intp).reshape(-1, 2).T.copy()
    return ends[0], ends[1]


def metropolis_weights(seq, k):
    """Metropolis weights of ``seq`` at round ``k`` as edge arrays ``(i, j, w)``.

    Edge ``(i[e], j[e])`` carries weight ``w[e] = 1 / (1 + max(deg_i, deg_j))``
    in both directions; the diagonal holds the remaining mass of each row.
    This is the only place the weight formula lives: :func:`metropolis_matrix`
    scatters these arrays into a dense matrix.
    """
    if k < 0:
        raise ValueError("time index must be >= 0")
    i, j = _endpoints(seq.edges_at(k))
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
    through :meth:`weights_at`, each cached over the sequence period. The
    per-window contraction factor ``lam`` is measured lazily, on first use,
    by :func:`estimate_lambda`: exactly for periodic sequences, as a sampled
    estimate for aperiodic ones.
    """

    def __init__(self, seq):
        self.seq = seq
        self.n = seq.n
        self.tau = seq.tau
        self._lam = None
        self._cache = {}
        self._weights = {}
        self._latest = (None, None)

    # matrix_at and weights_at repeat one cache pattern inline: matrix_at is
    # called once per dense gossip round, where a shared helper call costs
    # several percent on small graphs. An aperiodic sequence keeps only its
    # latest round's weights, so a round whose edge count gossip reads
    # through weights_at builds its graph once when it then turns out dense.

    def matrix_at(self, k):
        if self.seq.period is not None:
            key = k % self.seq.period
            if key not in self._cache:
                self._cache[key] = metropolis_matrix(self.seq, key)
            return self._cache[key]
        return metropolis_matrix(self.seq, k, self.weights_at(k))

    def weights_at(self, k):
        if self.seq.period is not None:
            key = k % self.seq.period
            if key not in self._weights:
                self._weights[key] = metropolis_weights(self.seq, key)
            return self._weights[key]
        if self._latest[0] != k:
            self._latest = (k, metropolis_weights(self.seq, k))
        return self._latest[1]

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
        If any probed window has a singular value within ``1e-12`` of 1
        (e.g. a disconnected static graph, whose matrix is the identity).
    """
    tau = model.tau
    starts = model.seq.period
    if starts is None:
        starts = 10 * tau if horizon is None else int(horizon)
        if starts < 1:
            raise ValueError("horizon must be >= 1")
    n = model.n
    avg = np.full((n, n), 1.0 / n)
    worst = 0.0
    for s in range(starts):
        window = model.matrix_at(s)
        for k in range(s + 1, s + tau):
            window = model.matrix_at(k) @ window
        if tau == 1:
            # one symmetric Metropolis matrix: its singular values are the
            # absolute eigenvalues, which eigvalsh finds about 3x faster
            top = np.abs(np.linalg.eigvalsh(window - avg)).max()
        else:
            top = np.linalg.svd(window - avg, compute_uv=False)[0]
        worst = max(worst, top)
    if worst >= 1.0 - CONTRACTION_TOL:
        raise NonContractiveSequenceError(
            f"window singular value {worst:.17g} reaches 1: "
            "sequence does not contract")
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
    i, j = _endpoints(seq.edges_at(k))
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
