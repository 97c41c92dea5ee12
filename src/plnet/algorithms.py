"""
Decentralized gradient descent and multi-step gradient descent ascent.

Both methods alternate a local (possibly biased and noisy) gradient step
with a multi-round gossip call on the stacked state. Double stochasticity
of the mixing matrices makes the row mean follow the plain inexact
gradient method on the averaged objective, which is what the recorded
optimality gaps track.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .consensus import _mean_and_error, consensus_error, run_consensus
from .oracles import OracleSpec, OracleState, perturb_gradient
from .problems import row_norms

__all__ = [
    "DGDConfig",
    "MGDAConfig",
    "RunRecord",
    "DivergenceError",
    "dgd_run",
    "mgda_run",
]

CONSENSUS_START_TOL = 1e-12


class DivergenceError(RuntimeError):
    """A run produced a non-finite iterate (step size too large)."""


@dataclass(frozen=True)
class DGDConfig:
    """Settings for decentralized gradient descent.

    ``rounds_schedule`` is the number of gossip rounds after every
    iteration: one nonnegative integer for the whole run, which
    ``rounds_at(k)`` returns for every ``k``.
    """

    gamma: float
    iterations: int
    rounds_schedule: int = 1
    oracle: OracleSpec = OracleSpec()
    record_every: int = 1

    def rounds_at(self, k):
        return self.rounds_schedule

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("step size must be positive")
        if self.iterations < 0 or self.record_every < 1:
            raise ValueError("invalid iteration counts")
        _check_rounds("rounds_schedule", self.rounds_schedule)


@dataclass(frozen=True)
class MGDAConfig:
    """Settings for multi-step gradient descent ascent.

    The inner loop ascends in y with ``gamma_y`` for ``inner_iterations``
    steps (each followed by ``rounds_y`` gossip rounds); the outer loop
    descends in x with ``gamma_x`` followed by ``rounds_x`` gossip rounds.
    Both round counts must be nonnegative integers.
    """

    gamma_x: float
    gamma_y: float
    outer_iterations: int
    inner_iterations: int
    rounds_x: int = 1
    rounds_y: int = 1
    oracle: OracleSpec = OracleSpec()
    record_every: int = 1

    def __post_init__(self):
        if min(self.gamma_x, self.gamma_y) <= 0:
            raise ValueError("step sizes must be positive")
        if min(self.outer_iterations, self.inner_iterations) < 0 or self.record_every < 1:
            raise ValueError("invalid iteration counts")
        for key in ("rounds_x", "rounds_y"):
            _check_rounds(key, getattr(self, key))


def _check_rounds(key, rounds):
    if not isinstance(rounds, (int, np.integer)) or rounds < 0:
        raise ValueError(f"{key}: needs a nonnegative integer count, got {rounds!r}")


@dataclass
class RunRecord:
    """Per-iteration trace of one run plus bookkeeping metadata.

    Every column holds one entry per recorded iterate. ``xbar``/``ybar``
    hold the averaged iterates (``ybar`` entries are None for minimization
    runs) and ``wall_time`` the seconds from the record's creation to the
    moment each iterate was recorded. The gap and gradient-norm columns are
    evaluated once, when the run ends, from the stacked averages.
    """

    ks: list = field(default_factory=list)
    f_gap: list = field(default_factory=list)
    consensus_err_x: list = field(default_factory=list)
    consensus_err_y: list = field(default_factory=list)
    grad_norm_x: list = field(default_factory=list)
    grad_norm_y: list = field(default_factory=list)
    comm_rounds: list = field(default_factory=list)
    wall_time: list = field(default_factory=list)
    xbar: list = field(default_factory=list)
    ybar: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter, repr=False, compare=False)


def _record(record, k, xs, ys=None, comm_rounds=0):
    """Append the averaged iterate of the stacked state ``xs`` (and ``ys``).

    Records the round index, the row averages and the consensus errors
    ``||xs - xbar||`` (and ``||ys - ybar||``); :func:`_evaluate` fills the
    remaining columns when the run ends. A one-row stack records its row
    as the average and a consensus error of 0.
    """
    record.ks.append(k)
    record.comm_rounds.append(comm_rounds)
    xbar, err = _mean_and_error(xs)
    record.xbar.append(xbar)
    record.consensus_err_x.append(err)
    if ys is not None:
        ybar, err = _mean_and_error(ys)
        record.ybar.append(ybar)
        record.consensus_err_y.append(err)
    record.wall_time.append(time.perf_counter() - record.started)


def _evaluate(record, problem):
    """Fill the gap and gradient-norm columns from the recorded averages.

    One batched problem call per column on the stacked ``(R, d)`` averages;
    gaps are measured against ``record.meta["f_star"]``. Minimization runs
    get NaN saddle columns and None ``ybar`` entries.
    """
    xbars = np.array(record.xbar)
    f_star = record.meta["f_star"]
    if not record.ybar:
        record.f_gap = (problem.f(xbars) - f_star).tolist()
        record.grad_norm_x = row_norms(problem.grad_f(xbars)).tolist()
        record.consensus_err_y = [float("nan")] * len(record.ks)
        record.grad_norm_y = [float("nan")] * len(record.ks)
        record.ybar = [None] * len(record.ks)
        return
    ybars = np.array(record.ybar)
    record.f_gap = (problem.phi(xbars, problem.y_star_of(xbars)) - f_star).tolist()
    record.grad_norm_x = row_norms(problem.grad_x(xbars, ybars)).tolist()
    record.grad_norm_y = row_norms(problem.grad_y(xbars, ybars)).tolist()


def _check_finite(x, k, what):
    if not np.isfinite(x).all():
        raise DivergenceError(
            f"non-finite {what} at iteration {k}; "
            "step size is too large for this instance")


def _check_start(x0, name):
    """The stacked start as a float array, refused if its rows differ."""
    x0 = np.asarray(x0, dtype=float)
    if consensus_error(x0) > CONSENSUS_START_TOL * (1.0 + float(np.linalg.norm(x0))):
        raise ValueError(f"{name}: rows of the stacked start differ; every node must "
                         f"start from one point, e.g. average_projection({name})")
    return x0


def dgd_run(problem, model, config, x0):
    """Decentralized gradient descent with a gossip subroutine.

    Each iteration takes one oracle call per node on the stacked state,
    steps ``Z = X - gamma * G``, and replaces ``X`` by the gossip output of
    ``Z`` over ``config.rounds_schedule`` rounds.

    Parameters
    ----------
    problem
        A problem exposing ``grad_stacked``, ``f`` and ``grad_f``.
    model : topology.MixingModel
        Mixing sequence shared by all iterations (one round index per run).
    config : DGDConfig
    x0 : ndarray
        Stacked ``(n, d)`` start with equal rows; one whose rows differ is
        refused with a ValueError before any oracle call or gossip round.

    Returns
    -------
    (RunRecord, ndarray)
        The trace and the final stacked state.
    """
    x = _check_start(x0, "x0")
    record = RunRecord()
    record.meta.update(f_star=problem.f_star, stochastic=config.oracle.sigma > 0)
    t = 0  # global index of the next gossip round; a Python int, as JSON needs
    state = OracleState(config.oracle, x.shape, stream=0)
    rounds = int(config.rounds_schedule)
    skipped_cons = 0.0  # worst consensus error among unrecorded iterates
    for k in range(config.iterations):
        if k % config.record_every == 0:
            _record(record, k, x, comm_rounds=t)
        else:
            skipped_cons = max(skipped_cons, consensus_error(x))
        grad = perturb_gradient(problem.grad_stacked(x), state)
        z = x - config.gamma * grad
        x = run_consensus(z, rounds, model, t)
        t += rounds
        _check_finite(x, k + 1, "iterate")
    _record(record, config.iterations, x, comm_rounds=t)
    _evaluate(record, problem)
    record.extras["max_consensus_err_x"] = max(skipped_cons, *record.consensus_err_x)
    record.meta["total_comm_rounds"] = t
    return record, x


def mgda_run(problem, model, config, x0, y0, budget=None):
    """Multi-step gradient descent ascent with gossip after every step.

    Per outer iteration the inner loop ascends the stacked y-state
    ``inner_iterations`` times (gossiping after each step), then the outer
    x-state takes one descent step at the refreshed y and gossips. Both
    states gossip over ``model``, and one global round index orders x- and
    y-communication. ``x0`` and ``y0`` must each have equal rows; either
    one off consensus is refused, as in :func:`dgd_run`.

    When ``budget`` (a theory.SaddleBudget) is given, the run also tracks
    the invariants the budget relies on: the worst consensus error of every
    x- and y-state, the per-outer consensus-drift constant of the inner
    loop (recomputed online, with its realized maximum), and any outer
    iterations where the inner loop missed its target gap.

    Returns
    -------
    (RunRecord, (ndarray, ndarray))
        The trace and the final stacked pair.
    """
    x, y = _check_start(x0, "x0"), _check_start(y0, "y0")
    record = RunRecord()
    record.meta.update(f_star=problem.phi_star, stochastic=config.oracle.sigma > 0)
    t = 0  # global index of the next gossip round; a Python int, as JSON needs
    rounds_x, rounds_y = int(config.rounds_x), int(config.rounds_y)
    state_x = OracleState(config.oracle, x.shape, stream=0)
    state_y = OracleState(config.oracle, y.shape, stream=1)
    max_cons_x = max_cons_y = 0.0
    drift, misses = [], []
    for k in range(config.outer_iterations):
        if k % config.record_every == 0:
            _record(record, k, x, y, comm_rounds=t)
        ys = [y]
        for _ in range(config.inner_iterations):
            grad_y = perturb_gradient(problem.grad_y_stacked(x, ys[-1]), state_y)
            z_y = ys[-1] + config.gamma_y * grad_y
            ys.append(run_consensus(z_y, rounds_y, model, t))
            t += rounds_y
        _check_finite(ys[-1], k, "inner iterate")
        if budget is not None:
            # states entering this outer iteration; the final pair is added last
            constant, gap = _inner_tracking(problem, x, y, ys[-1], budget)
            drift.append(constant)
            if gap > budget.inner_target:
                misses.append(k)
            max_cons_x = max(max_cons_x, consensus_error(x))
            max_cons_y = max([max_cons_y, *map(consensus_error, ys[:-1])])
        y = ys[-1]
        grad_x = perturb_gradient(problem.grad_x_stacked(x, y), state_x)
        z_x = x - config.gamma_x * grad_x
        x = run_consensus(z_x, rounds_x, model, t)
        t += rounds_x
        _check_finite(x, k + 1, "iterate")
    _record(record, config.outer_iterations, x, y, comm_rounds=t)
    _evaluate(record, problem)
    if budget is not None:
        record.extras.update(max_consensus_err_x=max(max_cons_x, consensus_error(x)),
                             max_consensus_err_y=max(max_cons_y, consensus_error(y)),
                             inner_drift_constants=drift,
                             inner_drift_max=max(drift, default=None))
        if misses:
            record.extras["inner_target_misses"] = misses
    record.meta["total_comm_rounds"] = t
    return record, (x, y)


def _inner_tracking(problem, x_stack, y_in, y_out, budget):
    """The inner loop's drift constant at the outer point ``xbar`` (from the
    y-state entering the loop) and the gap ``phi(xbar, y*(xbar)) - phi(xbar,
    ybar)`` of the y-state it leaves, from one solve of ``y*(xbar)``."""
    xbar = x_stack.mean(axis=0)
    y_opt = problem.y_star_of(xbar)
    phi_opt = problem.phi(xbar, y_opt)
    grad_at_opt = problem.grad_y_stacked(np.tile(xbar, (problem.n, 1)),
                                         np.tile(y_opt, (problem.n, 1)))
    gap_in = problem.n * (phi_opt - problem.phi(xbar, y_in.mean(axis=0)))
    constant = budget.inner_drift(float(np.linalg.norm(grad_at_opt)), max(gap_in, 0.0))
    return constant, phi_opt - problem.phi(xbar, y_out.mean(axis=0))
