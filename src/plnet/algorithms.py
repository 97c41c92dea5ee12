"""
Decentralized gradient descent and multi-step gradient descent ascent.

Both methods alternate a local (possibly biased and noisy) gradient step
with a multi-round gossip call on the stacked state. Double stochasticity
of the mixing matrices makes the row mean follow the plain inexact
gradient method on the averaged objective, which is what the recorded
optimality gaps track. Centralized references without any communication
are provided for the full-graph equivalence checks.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .consensus import CommClock, average_projection, consensus_error, run_consensus
from .oracles import OracleSpec, OracleState, perturb_gradient

__all__ = [
    "DGDConfig",
    "MGDAConfig",
    "RunRecord",
    "DivergenceError",
    "dgd_run",
    "mgda_run",
    "centralized_gd",
    "centralized_gda",
]

CONSENSUS_START_TOL = 1e-12


class DivergenceError(RuntimeError):
    """A run produced a non-finite iterate (step size too large)."""


@dataclass(frozen=True)
class DGDConfig:
    """Settings for decentralized gradient descent.

    ``rounds_schedule`` is the number of gossip rounds per iteration,
    either a constant or a per-iteration sequence. With ``theory_mode`` the
    step size is checked against ``1/L_g`` of the problem at hand.
    """

    gamma: float
    iterations: int
    rounds_schedule: object = 1
    oracle: OracleSpec = OracleSpec()
    record_every: int = 1
    auto_project: bool = True
    theory_mode: bool = False
    store_mean_trajectory: bool = False
    measure_time: bool = False

    def rounds_at(self, k):
        if np.isscalar(self.rounds_schedule):
            return int(self.rounds_schedule)
        return int(self.rounds_schedule[k])

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("step size must be positive")
        if self.iterations < 0 or self.record_every < 1:
            raise ValueError("invalid iteration counts")


@dataclass(frozen=True)
class MGDAConfig:
    """Settings for multi-step gradient descent ascent.

    The inner loop ascends in y with ``gamma_y`` for ``inner_iterations``
    steps (each followed by ``rounds_y`` gossip rounds); the outer loop
    descends in x with ``gamma_x`` followed by ``rounds_x`` gossip rounds.
    """

    gamma_x: float
    gamma_y: float
    outer_iterations: int
    inner_iterations: int
    rounds_x: int = 1
    rounds_y: int = 1
    oracle: OracleSpec = OracleSpec()
    record_every: int = 1
    auto_project: bool = True
    store_mean_trajectory: bool = False
    measure_time: bool = False

    def __post_init__(self):
        if min(self.gamma_x, self.gamma_y) <= 0:
            raise ValueError("step sizes must be positive")
        if min(self.outer_iterations, self.inner_iterations) < 0 or self.record_every < 1:
            raise ValueError("invalid iteration counts")


@dataclass
class RunRecord:
    """Per-iteration trace of one run plus bookkeeping metadata."""

    ks: list = field(default_factory=list)
    f_gap: list = field(default_factory=list)
    consensus_err_x: list = field(default_factory=list)
    consensus_err_y: list = field(default_factory=list)
    grad_norm_x: list = field(default_factory=list)
    grad_norm_y: list = field(default_factory=list)
    comm_rounds: list = field(default_factory=list)
    wall_time: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def add(self, k, f_gap, cons_x, grad_x, cons_y=float("nan"), grad_y=float("nan"),
            comm_rounds=0, t_start=None):
        """Append one recorded iterate; the only writer of the trace columns.

        ``t_start`` is a ``time.perf_counter`` reading when wall time is
        measured; without it the wall-time column reads 0.
        """
        self.ks.append(k)
        self.f_gap.append(f_gap)
        self.consensus_err_x.append(cons_x)
        self.consensus_err_y.append(cons_y)
        self.grad_norm_x.append(grad_x)
        self.grad_norm_y.append(grad_y)
        self.comm_rounds.append(comm_rounds)
        self.wall_time.append(0.0 if t_start is None else time.perf_counter() - t_start)


def _check_finite(x, k, what):
    if not np.all(np.isfinite(x)):
        raise DivergenceError(
            f"non-finite {what} at iteration {k}; "
            "step size is too large for this instance")


def _prepare_start(x0, auto_project, record):
    err = consensus_error(x0)
    if err > CONSENSUS_START_TOL * (1.0 + float(np.linalg.norm(x0))):
        if not auto_project:
            raise ValueError(
                "starting state is not consensual; pass auto_project=True "
                "or project it first")
        record.meta["auto_projected"] = True
        return average_projection(x0)
    record.meta.setdefault("auto_projected", False)
    return np.asarray(x0, dtype=float)


def dgd_run(problem, model, config, x0):
    """Decentralized gradient descent with a gossip subroutine.

    Each iteration takes one oracle call per node on the stacked state,
    steps ``Z = X - gamma * G``, and replaces ``X`` by the gossip output of
    ``Z`` over the scheduled number of rounds.

    Parameters
    ----------
    problem
        A problem exposing ``grad_stacked``, ``f`` and ``grad_f``.
    model : topology.MixingModel
        Mixing sequence shared by all iterations (one clock per run).
    config : DGDConfig
    x0 : ndarray
        Stacked ``(n, d)`` start; must be consensual unless
        ``config.auto_project``.

    Returns
    -------
    (RunRecord, ndarray)
        The trace and the final stacked state.
    """
    record = RunRecord()
    x = _prepare_start(np.asarray(x0, dtype=float), config.auto_project, record)
    n, d = x.shape
    if config.theory_mode:
        limit = 1.0 / problem.profile.L_g
        if config.gamma > limit * (1.0 + 1e-12):
            raise ValueError(
                f"theory mode requires gamma <= 1/L_g = {limit:.6g}, "
                f"got {config.gamma}")
    f_star = problem.f_star
    record.meta.update(f_star=f_star, f_star_source="analytic",
                       gamma=config.gamma, algorithm="dgd",
                       stochastic=config.oracle.sigma > 0)
    clock = CommClock()
    state = OracleState(config.oracle, (n, d), stream=0)
    max_cons = consensus_error(x)
    mean_traj = [] if config.store_mean_trajectory else None
    t_start = time.perf_counter() if config.measure_time else None

    def observe(k, xs):
        xbar = xs.mean(axis=0)
        record.add(k, problem.f(xbar) - f_star, consensus_error(xs),
                   float(np.linalg.norm(problem.grad_f(xbar))),
                   comm_rounds=clock.t0, t_start=t_start)
        if mean_traj is not None:
            mean_traj.append(xbar.copy())

    for k in range(config.iterations):
        if k % config.record_every == 0:
            observe(k, x)
        grad = perturb_gradient(problem.grad_stacked(x), config.oracle, state)
        z = x - config.gamma * grad
        x = run_consensus(z, config.rounds_at(k), model, clock)
        _check_finite(x, k + 1, "iterate")
        max_cons = max(max_cons, consensus_error(x))
    observe(config.iterations, x)
    record.extras["max_consensus_err_x"] = max_cons
    if mean_traj is not None:
        record.extras["mean_trajectory"] = np.asarray(mean_traj)
    record.meta["total_comm_rounds"] = clock.t0
    return record, x


def mgda_run(problem, model_x, model_y, config, x0, y0, budget=None):
    """Multi-step gradient descent ascent with gossip after every step.

    Per outer iteration the inner loop ascends the stacked y-state
    ``inner_iterations`` times (gossiping after each step), then the outer
    x-state takes one descent step at the refreshed y and gossips. A single
    global clock orders x- and y-communication.

    When ``budget`` (a theory.SaddleBudget) is given, the per-outer
    consensus-drift constant of the inner loop is recomputed online and the
    realized maximum recorded, along with any outer iterations where the
    inner loop missed its target gap.

    Returns
    -------
    (RunRecord, (ndarray, ndarray))
        The trace and the final stacked pair.
    """
    record = RunRecord()
    x = _prepare_start(np.asarray(x0, dtype=float), config.auto_project, record)
    y = _prepare_start(np.asarray(y0, dtype=float), config.auto_project, record)
    n = x.shape[0]
    f_star = problem.phi_star
    record.meta.update(f_star=f_star, f_star_source="analytic",
                       gamma_x=config.gamma_x, gamma_y=config.gamma_y,
                       algorithm="mgda", stochastic=config.oracle.sigma > 0)
    clock = CommClock()
    state_x = OracleState(config.oracle, x.shape, stream=0)
    state_y = OracleState(config.oracle, y.shape, stream=1)
    max_cons_x = consensus_error(x)
    max_cons_y = consensus_error(y)
    mean_traj = [] if config.store_mean_trajectory else None
    t_start = time.perf_counter() if config.measure_time else None
    d_xy_values = []
    inner_misses = []

    def observe(k, xs, ys):
        xbar, ybar = xs.mean(axis=0), ys.mean(axis=0)
        inner = problem.y_star_of(xbar)
        record.add(k, problem.phi(xbar, inner) - f_star, consensus_error(xs),
                   float(np.linalg.norm(problem.grad_x(xbar, ybar))),
                   cons_y=consensus_error(ys),
                   grad_y=float(np.linalg.norm(problem.grad_y(xbar, ybar))),
                   comm_rounds=clock.t0, t_start=t_start)
        record.extras.setdefault("inner_gap", []).append(
            problem.phi(xbar, inner) - problem.phi(xbar, ybar))
        if mean_traj is not None:
            mean_traj.append((xbar.copy(), ybar.copy()))

    for k in range(config.outer_iterations):
        if k % config.record_every == 0:
            observe(k, x, y)
        if budget is not None:
            d_xy_values.append(_inner_drift_constant(problem, x, y, budget))
        y_hat = y
        for _ in range(config.inner_iterations):
            grad_y = perturb_gradient(problem.grad_y_stacked(x, y_hat),
                                      config.oracle, state_y)
            z_y = y_hat + config.gamma_y * grad_y
            y_hat = run_consensus(z_y, config.rounds_y, model_y, clock)
            max_cons_y = max(max_cons_y, consensus_error(y_hat))
        y = y_hat
        _check_finite(y, k, "inner iterate")
        if budget is not None and budget.inner_target is not None:
            xbar, ybar = x.mean(axis=0), y.mean(axis=0)
            gap = problem.phi(xbar, problem.y_star_of(xbar)) - problem.phi(xbar, ybar)
            if gap > budget.inner_target:
                inner_misses.append(k)
        grad_x = perturb_gradient(problem.grad_x_stacked(x, y),
                                  config.oracle, state_x)
        z_x = x - config.gamma_x * grad_x
        x = run_consensus(z_x, config.rounds_x, model_x, clock)
        _check_finite(x, k + 1, "iterate")
        max_cons_x = max(max_cons_x, consensus_error(x))
    observe(config.outer_iterations, x, y)
    record.extras["max_consensus_err_x"] = max_cons_x
    record.extras["max_consensus_err_y"] = max_cons_y
    if d_xy_values:
        record.extras["inner_drift_constants"] = d_xy_values
        record.extras["inner_drift_max"] = max(d_xy_values)
    if inner_misses:
        record.extras["inner_target_misses"] = inner_misses
    if mean_traj is not None:
        record.extras["mean_trajectory"] = mean_traj
    record.meta["total_comm_rounds"] = clock.t0
    return record, (x, y)


def _inner_drift_constant(problem, x_stack, y_stack, budget):
    """Online value of the inner-loop drift constant at the current outer point."""
    xbar = x_stack.mean(axis=0)
    ybar = y_stack.mean(axis=0)
    grad_norm = float(np.linalg.norm(problem.grad_y_stacked_at_inner_opt(xbar)))
    inner_gap_stacked = problem.n * (problem.phi(xbar, problem.y_star_of(xbar))
                                     - problem.phi(xbar, ybar))
    return budget.inner_drift(grad_norm, max(inner_gap_stacked, 0.0))


def centralized_gd(problem, gamma, iterations, x0=None, record_every=1):
    """Plain gradient descent on the averaged objective (no communication)."""
    x = np.zeros(problem.d) if x0 is None else np.asarray(x0, dtype=float)
    f_star = problem.f_star
    record = RunRecord()
    record.meta.update(f_star=f_star, f_star_source="analytic", gamma=gamma,
                       algorithm="centralized_gd", stochastic=False)
    traj = []

    def observe(k, xv):
        record.add(k, problem.f(xv) - f_star, 0.0,
                   float(np.linalg.norm(problem.grad_f(xv))))
        traj.append(xv.copy())

    for k in range(iterations):
        if k % record_every == 0:
            observe(k, x)
        x = x - gamma * problem.grad_f(x)
        _check_finite(x, k + 1, "iterate")
    observe(iterations, x)
    record.extras["trajectory"] = np.asarray(traj)
    return record, x


def centralized_gda(problem, gamma_x, gamma_y, outer_iterations, inner_iterations,
                    x0=None, y0=None, record_every=1):
    """Multi-step descent ascent on the averaged saddle objective."""
    x = np.zeros(problem.d_x) if x0 is None else np.asarray(x0, dtype=float)
    y = np.zeros(problem.d_y) if y0 is None else np.asarray(y0, dtype=float)
    f_star = problem.phi_star
    record = RunRecord()
    record.meta.update(f_star=f_star, f_star_source="analytic",
                       gamma_x=gamma_x, gamma_y=gamma_y,
                       algorithm="centralized_gda", stochastic=False)
    traj = []

    def observe(k, xv, yv):
        record.add(k, problem.phi(xv, problem.y_star_of(xv)) - f_star, 0.0,
                   float(np.linalg.norm(problem.grad_x(xv, yv))), cons_y=0.0,
                   grad_y=float(np.linalg.norm(problem.grad_y(xv, yv))))
        traj.append((xv.copy(), yv.copy()))

    for k in range(outer_iterations):
        if k % record_every == 0:
            observe(k, x, y)
        for _ in range(inner_iterations):
            y = y + gamma_y * problem.grad_y(x, y)
        _check_finite(y, k, "inner iterate")
        x = x - gamma_x * problem.grad_x(x, y)
        _check_finite(x, k + 1, "iterate")
    observe(outer_iterations, x, y)
    record.extras["trajectory"] = traj
    return record, (x, y)
