"""
Closed-form iteration, communication and noise-floor budgets.

Every quantity here is a pure function of smoothness constants, mixing
parameters and accuracy targets, so experiments can be configured from
theory and the resulting bounds overlaid on measured traces. Gap and
gradient-norm inputs follow the stacked scale: ``F_gap0`` is ``n`` times
the averaged initial optimality gap, and gradient norms are Frobenius
norms of stacked gradients. All logarithms are natural.

Minimization budgets come in a deterministic flavor (bias-only oracle,
drift constant assembled from a four-term square root) and a stochastic
flavor (bias plus noise, drift constant assembled from squared terms).
Saddle budgets do the same per variable block; the inner-loop drift
constant deliberately carries the extra ``n`` factor it is printed with,
so the discrepancy with the minimization constant stays measurable. The
inner-loop constant depends on the current outer point, so it can also be
recomputed online per outer iteration and its realized maximum validated
after the fact.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "TheoryBudget",
    "SaddleBudget",
    "OverlayResult",
    "budget_min_deterministic",
    "budget_min_stochastic",
    "budget_saddle",
    "overlay_bounds",
    "rounds_for_target",
    "iterations_for_target",
    "noise_floor",
]

OVERLAY_REL_TOL = 1e-9
# relative slack within which a step size counts as a budget's own step
STEP_REL_TOL = 1e-12


def rounds_for_target(drift, target_sq, tau, lam):
    """Gossip rounds per iteration that keep consensus error at the target.

    Returns ``tau * ceil(log(drift / target_sq) / (2 * lam))``, clamped to
    0 (with a note) when the drift already sits below the target, and
    ``None`` when the target is 0 and cannot be reached in finitely many
    rounds (unless one window averages exactly, i.e. ``lam == 1``).

    Returns
    -------
    (rounds, notes) : (int | None, tuple of str)
    """
    if target_sq < 0:
        raise ValueError("consensus target must be >= 0")
    if target_sq == 0.0:
        if lam >= 1.0:
            return tau, ("target 0 reached in one exact-averaging window",)
        return None, ("target 0 unreachable in finitely many rounds",)
    if drift <= target_sq:
        return 0, ("drift constant at or below target; rounds clamped to 0",)
    return tau * math.ceil(math.log(drift / target_sq) / (2.0 * lam)), ()


def iterations_for_target(kappa, gap, eps):
    """Outer iterations ``ceil(kappa * log(gap / eps))``, at least 1."""
    if eps <= 0:
        raise ValueError("accuracy target must be positive")
    if gap <= 0:
        return 1
    return max(1, math.ceil(kappa * math.log(gap / eps)))


def noise_floor(delta, sigma, gamma, mu, L):
    """Limiting optimality gap of the inexact gradient method.

    ``delta**2 / (2 mu) + L gamma sigma**2 / (2 mu)`` for an oracle whose
    bias norm is bounded by ``delta`` and noise second moment by
    ``sigma**2``, run with step size ``gamma <= 1/L``.
    """
    return delta ** 2 / (2.0 * mu) + L * gamma * sigma ** 2 / (2.0 * mu)


@dataclass(frozen=True)
class TheoryBudget:
    """Evaluated minimization budget.

    ``N`` outer iterations, ``T`` gossip rounds per iteration (``None``
    when the consensus target is unreachable), drift constant ``D``,
    aggregate gradient inexactness ``Delta`` and the limiting gap
    ``floor``, with the targets and step they were evaluated for. ``mu``
    is kept for the overlaid rate; the instance and network constants sit
    in the sidecar's ``constants`` block.
    """

    mode: str
    N: int
    T: int | None
    D: float
    Delta: float
    floor: float
    eps: float
    delta_prime: float
    gamma: float
    mu: float
    notes: tuple = ()

    @property
    def N_tot(self):
        return None if self.T is None else self.N * self.T

    @property
    def rate(self):
        return 1.0 - self.gamma * self.mu

    def bounds(self, ks, gap0):
        """Gap bound ``rate**k * gap0 + floor`` at each recorded iterate ``k``."""
        return self.rate ** np.asarray(ks) * gap0 + self.floor


def _drift(mode, gamma, grad_norm, delta_prime, Delta, mu, L, gap, n=1):
    """Consensus drift constant ``D`` of one variable block.

    The deterministic form squares a four-term sum. The stochastic form sums
    squared terms and takes ``Delta`` already squared, as the stochastic
    budgets assemble it. ``n`` scales the gap term under the square root;
    only the saddle's inner loop sets it, for its printed ``2n/mu_y``.
    """
    if mode == "deterministic":
        return (gamma * grad_norm + math.sqrt(delta_prime)
                + (gamma + 1.0 / mu) * Delta
                + gamma * L * math.sqrt((2.0 * n / mu) * (1.0 - mu / L) * gap)) ** 2
    return (6.0 * gamma ** 2 * grad_norm ** 2
            + 2.0 * delta_prime
            + 6.0 * (gamma ** 2 + 1.0 / mu ** 2) * Delta
            + (12.0 * gamma ** 2 * L ** 2 / mu) * (1.0 - mu / L) * gap)


def _budget_min(mode, profile, mixing, eps, delta_prime, gamma, kappa,
                Delta, Delta_sq, f0_gap, grad_at_opt_norm, notes):
    """Assemble a minimization budget from its inexactness aggregate."""
    mu, n = profile.mu, profile.n
    drift = _drift(mode, gamma, grad_at_opt_norm, delta_prime,
                   Delta if mode == "deterministic" else Delta_sq,
                   mu, profile.L_g, n * f0_gap)
    rounds, round_notes = rounds_for_target(drift, delta_prime, mixing.tau, mixing.lam)
    return TheoryBudget(
        mode=mode, N=iterations_for_target(kappa, f0_gap, eps),
        T=rounds, D=drift, Delta=Delta, floor=Delta_sq / (2.0 * mu * n),
        eps=eps, delta_prime=delta_prime, gamma=gamma, mu=mu,
        notes=notes + round_notes)


def _check_targets(eps, delta_prime, f0_gap):
    if eps <= 0:
        raise ValueError("eps must be positive")
    if delta_prime < 0:
        raise ValueError("delta_prime must be >= 0")
    if f0_gap < 0:
        raise ValueError("initial gap must be >= 0")


def budget_min_deterministic(profile, mixing, eps, delta_prime, delta_bias,
                             f0_gap, grad_at_opt_norm):
    """Budget for decentralized gradient descent with a bias-only oracle.

    Parameters
    ----------
    profile : problems.SmoothnessProfile
    mixing : topology.MixingModel
        Supplies ``tau`` and the contraction factor.
    eps : float
        Target accuracy on the averaged objective.
    delta_prime : float
        Target squared consensus error, kept invariant across iterations.
    delta_bias : float
        Oracle bias bound on the stacked gradient.
    f0_gap : float
        Initial averaged optimality gap ``f(xbar_0) - f*``.
    grad_at_opt_norm : float
        Stacked gradient norm at the consensual optimum.
    """
    _check_targets(eps, delta_prime, f0_gap)
    delta_tot = delta_bias + profile.L_l * math.sqrt(delta_prime)
    return _budget_min("deterministic", profile, mixing, eps, delta_prime,
                       1.0 / profile.L_g, profile.L_g / profile.mu,
                       delta_tot, delta_tot ** 2, f0_gap, grad_at_opt_norm, ())


def budget_min_stochastic(profile, mixing, eps, delta_prime, delta, sigma,
                          f0_gap, grad_at_opt_norm, gamma=None):
    """Budget for decentralized gradient descent with a biased noisy oracle.

    With the default step ``1/L_g`` the inexactness aggregate is
    ``Delta**2 = 18 (L_l**2 delta' + sigma**2 + delta**2)``. A smaller step
    trades iterations for a lower floor:
    ``Delta**2 = 2 delta**2 + L_l**2 delta'
    + L_g gamma (16 L_l**2 delta' + 18 sigma**2 + 16 delta**2)`` with the
    iteration count scaled by ``1 / (gamma L_g)``. The drift constant keeps
    the same expression either way. Guarantees are in expectation.
    """
    _check_targets(eps, delta_prime, f0_gap)
    mu, L_g, L_l = profile.mu, profile.L_g, profile.L_l
    notes = ("guarantees hold in expectation over oracle noise",)
    if gamma is None:
        gamma = 1.0 / L_g
    if gamma > 1.0 / L_g * (1.0 + STEP_REL_TOL):
        raise ValueError("step size must satisfy gamma <= 1/L_g")
    if gamma >= 1.0 / L_g * (1.0 - STEP_REL_TOL):
        delta_tot_sq = 18.0 * (L_l ** 2 * delta_prime + sigma ** 2 + delta ** 2)
        kappa = L_g / mu
    else:
        delta_tot_sq = (2.0 * delta ** 2 + L_l ** 2 * delta_prime
                        + L_g * gamma * (16.0 * L_l ** 2 * delta_prime
                                         + 18.0 * sigma ** 2 + 16.0 * delta ** 2))
        kappa = 1.0 / (gamma * mu)
        notes = notes + ("small-step variant: iteration count scaled by 1/(gamma L_g)",)
    return _budget_min("stochastic", profile, mixing, eps, delta_prime, gamma, kappa,
                       math.sqrt(delta_tot_sq), delta_tot_sq, f0_gap,
                       grad_at_opt_norm, notes)


@dataclass(frozen=True)
class SaddleBudget:
    """Evaluated saddle budget for multi-step gradient descent ascent.

    ``T_x``/``T_y`` are ``None`` when their consensus target is
    unreachable, and so is ``T_tot``. ``D_Y`` is a bound on the
    per-outer-iteration inner drift constants; the realized values can be
    recomputed online via :meth:`inner_drift` and checked against it
    afterwards.
    """

    mode: str
    N_x: int
    N_y: int
    T_x: int | None
    T_y: int | None
    D_X: float
    D_Y: float
    Delta_x: float
    Delta_y: float
    floor_x: float
    floor_y: float
    eps_x: float
    eps_y: float
    delta_prime_x: float
    delta_prime_y: float
    gamma_x: float
    gamma_y: float
    mu_y: float
    L_yy_g: float
    n: int
    notes: tuple = ()

    @property
    def T_tot(self):
        if None in (self.T_x, self.T_y):
            return None
        return self.N_x * self.T_x + self.N_x * self.N_y * self.T_y

    @property
    def inner_target(self):
        """Target gap of the inner maximization at the end of each outer step."""
        return self.eps_y + self.floor_y

    def inner_drift(self, grad_at_inner_opt_norm, inner_gap_stacked):
        """Inner-loop drift constant at one outer point.

        The deterministic form keeps the printed ``2n/mu_y`` factor under
        the square root (the minimization analogue carries ``2/mu``);
        stochastic runs use the squared-term form.
        """
        return _drift(self.mode, self.gamma_y, grad_at_inner_opt_norm, self.delta_prime_y,
                      self.Delta_y if self.mode == "deterministic" else self.Delta_y ** 2,
                      self.mu_y, self.L_yy_g, inner_gap_stacked, n=self.n)


def budget_saddle(profile, mixing, eps_x, eps_y, delta_prime_x, delta_prime_y,
                  delta=0.0, sigma=0.0, *, F_gap0, G_gap0, grad_F_at_opt,
                  grad_G_at_opt):
    """Budget for multi-step gradient descent ascent.

    Gap inputs are stacked-scale: ``F_gap0`` bounds the initial
    gap of the max-function summed over nodes, ``G_gap0`` the inner
    maximization gap summed over nodes. ``grad_F_at_opt`` is the stacked
    x-gradient norm at the saddle point, ``grad_G_at_opt`` the stacked
    y-gradient norm at the inner maximizer of the start. The budget is
    ``"stochastic"`` when ``sigma > 0`` and ``"deterministic"`` otherwise.
    """
    if min(eps_x, eps_y) <= 0:
        raise ValueError("accuracy targets must be positive")
    if min(delta_prime_x, delta_prime_y) < 0:
        raise ValueError("consensus targets must be >= 0")
    if profile.mu_y is None:
        raise ValueError("degenerate inner block: no PL constant for y")
    mode = "stochastic" if sigma > 0 else "deterministic"
    mu_x, mu_y, n = profile.mu_x, profile.mu_y, profile.n
    L_x = profile.L_x
    L_yy_g = profile.L_yy_g
    gamma_x, gamma_y = 1.0 / L_x, 1.0 / L_yy_g
    sdx, sdy = math.sqrt(delta_prime_x), math.sqrt(delta_prime_y)
    if mode == "deterministic":
        delta_y = delta + profile.L_yy_l * sdy + profile.L_yx_l * sdx
        delta_x = (delta + profile.L_xx_l * sdx
                   + profile.L_xy_l * (math.sqrt(eps_y / (2.0 * mu_y))
                                       + delta_y / (2.0 * mu_y * math.sqrt(n))
                                       + sdy))
    else:
        delta_y_sq = 19.0 * (profile.L_yy_l ** 2 * delta_prime_y
                             + profile.L_yx_l ** 2 * delta_prime_x
                             + sigma ** 2 + delta ** 2)
        delta_y = math.sqrt(delta_y_sq)
        delta_x = math.sqrt(
            22.0 * profile.L_xy_l ** 2 * delta_prime_y
            + 19.0 * profile.L_xx_l ** 2 * delta_prime_x
            + 19.0 * delta ** 2 + 18.0 * sigma ** 2
            + 6.0 * profile.L_xy_l ** 2 * (2.0 * eps_y / mu_y
                                           + delta_y_sq / (mu_y ** 2 * n)))
    d_x_const = _drift(mode, gamma_x, grad_F_at_opt, delta_prime_x,
                       delta_x if mode == "deterministic" else delta_x ** 2,
                       mu_x, L_x, F_gap0)
    t_x, notes_x = rounds_for_target(d_x_const, delta_prime_x, mixing.tau, mixing.lam)
    budget = SaddleBudget(
        mode=mode, N_x=iterations_for_target(L_x / mu_x, F_gap0, eps_x),
        N_y=iterations_for_target(L_yy_g / mu_y, G_gap0, eps_y),
        T_x=t_x, T_y=None, D_X=d_x_const, D_Y=None,
        Delta_x=delta_x, Delta_y=delta_y,
        floor_x=delta_x ** 2 / (2.0 * mu_x * n),
        floor_y=delta_y ** 2 / (2.0 * mu_y * n),
        eps_x=eps_x, eps_y=eps_y,
        delta_prime_x=delta_prime_x, delta_prime_y=delta_prime_y,
        gamma_x=gamma_x, gamma_y=gamma_y, mu_y=mu_y, L_yy_g=L_yy_g, n=n)
    # the inner drift constant is the budget's own formula, at the start
    d_y_const = budget.inner_drift(grad_G_at_opt, G_gap0)
    t_y, notes_y = rounds_for_target(d_y_const, delta_prime_y, mixing.tau, mixing.lam)
    return replace(budget, T_y=t_y, D_Y=d_y_const, notes=notes_x + notes_y)


@dataclass(frozen=True)
class OverlayResult:
    ks: np.ndarray
    measured: np.ndarray
    bounds: np.ndarray
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def overlay_bounds(record, budget):
    """Per-iterate convergence bound next to a measured gap trace.

    ``record`` is one RunRecord for deterministic budgets, or a list of
    RunRecords over seeds for stochastic budgets (their gap traces are
    averaged pointwise before comparison, matching the expectation-flavored
    guarantee). The bound at recorded iterate ``k`` is
    ``(1 - gamma mu)**k * gap_0 + floor``; entries exceeding it by more
    than ``OVERLAY_REL_TOL`` (relative) are flagged.
    """
    records = record if isinstance(record, (list, tuple)) else [record]
    stochastic_run = any(r.meta.get("stochastic", False) for r in records)
    if budget.mode == "deterministic" and stochastic_run:
        raise ValueError("deterministic budget overlaid on a stochastic run")
    if budget.mode == "stochastic" and len(records) == 1 and stochastic_run:
        raise ValueError(
            "stochastic bounds hold in expectation; pass records over seeds")
    ks = np.asarray(records[0].ks)
    for r in records[1:]:
        if not np.array_equal(np.asarray(r.ks), ks):
            raise ValueError("records must share the same recorded iterations")
    measured = np.mean([np.asarray(r.f_gap) for r in records], axis=0)
    gap0 = float(measured[0])
    bounds = budget.bounds(ks, gap0)
    violations = tuple(
        (int(k), float(m), float(b))
        for k, m, b in zip(ks, measured, bounds)
        if m > b * (1.0 + OVERLAY_REL_TOL) + 1e-15)
    return OverlayResult(ks=ks, measured=measured, bounds=bounds,
                         violations=violations)
