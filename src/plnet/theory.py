"""
Closed-form iteration, communication and noise-floor budgets.

Every quantity here is a pure function of smoothness constants, mixing
parameters and accuracy targets, so experiments can be configured from
theory and the resulting bounds overlaid on measured traces. Gap and
gradient-norm inputs follow the stacked scale: ``F_gap0`` is ``n`` times
the averaged initial optimality gap, and gradient norms are Frobenius
norms of stacked gradients. All logarithms are natural.

Both theorems budget a variable block alike, so one builder, :func:`_block`,
makes each :class:`TheoryBudget`: N from the PL rate, T from a drift
constant and ``lam``, the floor from the inexactness aggregate Delta, and
a refusal naming any input that overflows them. A minimization budget is
one block: deterministic (bias only, the drift constant a squared
four-term sum) or stochastic (bias plus noise, a sum of squared terms). A
saddle budget is an x-block and a y-block coupled through Delta_x, which
reads eps_y and Delta_y. Its formulas are kept as printed, and break
relations the minimization budget keeps:

- N compares stacked gaps (``F_gap0``, ``G_gap0``) with averaged targets;
- the inner drift constant has ``2n/mu_y`` under its root, not ``2/mu``;
- ``L_x = L_xx_g + L_xy_g / mu_y`` does not scale with the data;
- Delta_x adds the per-node ``sqrt(eps_y / (2 mu_y))`` to stacked terms.

Because of the third relation, the step ``1/L_x`` can leave the theorem's
range ``gamma_x L <= 1``, where L is the smoothness of the max-function
``f(x) = max_y phi(x, y)``. On robust least squares f is quadratic, so the
harness checks ``gamma_x`` against the exact curvature
``lambda_max(hessian)`` and refuses a larger step.

Float64 bounds the targets from below, with u = 2**-53 its unit roundoff.
A measured gap ``f(xbar) - f*`` is the difference of two values near f*,
each rounded at a few ``u |f*|``; the realized floor measured on a
least-squares path instance was 2.3 u |f*|. A consensus error
``||X - 1 xbar^T||`` of a state near the stacked optimum X* is rounded at
about ``u ||X*||`` in every gossip round; the realized floor there was
18 u ||X*||. The resolution floors keep a margin of 3.5x and 1.8x over
those measurements (``GAP_FLOOR_FACTOR``, ``CONSENSUS_FLOOR_FACTOR``). A
positive ``eps`` below ``8 u |f*|`` (``|phi*|`` for the saddle, and for
``eps_y``), or a positive ``delta_prime`` below ``(32 u ||X*||)**2``
(``||Y*||`` for ``delta_prime_y``), names a target no run can show it met,
and the harness refuses it.
"""

import math
from dataclasses import dataclass

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
# float64 unit roundoff, and the multiples of it that bound a resolvable gap
# (of |f*|) and a resolvable consensus error (of ||X*||); see above
UNIT_ROUNDOFF = 2.0 ** -53
GAP_FLOOR_FACTOR = 8
CONSENSUS_FLOOR_FACTOR = 32
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
    """Evaluated budget of one variable block (a minimization budget is one).

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


def _sq(value):
    """``value ** 2``, or inf where the square overflows (:func:`_block` refuses it)."""
    try:
        return value ** 2
    except OverflowError:
        return math.inf


def _drift(mode, gamma, grad_norm, delta_prime, Delta, mu, L, gap, n=1):
    """Consensus drift constant ``D`` of one variable block.

    The deterministic form squares a four-term sum; the stochastic form sums
    squared terms and takes ``Delta`` squared. ``n`` scales the gap term
    under the deterministic root (the saddle's inner loop sets it).
    """
    if mode == "deterministic":
        return _sq(gamma * grad_norm + math.sqrt(delta_prime)
                   + (gamma + 1.0 / mu) * Delta
                   + gamma * L * math.sqrt((2.0 * n / mu) * (1.0 - mu / L) * gap))
    return (6.0 * gamma ** 2 * grad_norm ** 2
            + 2.0 * delta_prime
            + 6.0 * (gamma ** 2 + 1.0 / mu ** 2) * Delta
            + (12.0 * gamma ** 2 * L ** 2 / mu) * (1.0 - mu / L) * gap)


def _block(mode, mixing, *, eps, delta_prime, mu, L, n, Delta, Delta_sq, gap, grad_norm,
           inputs, gamma=None, kappa=None, suffix="", gap_scale=1, drift_n=1, notes=()):
    """The budget of one variable block at step ``gamma`` (default ``1/L``).

    N is ``ceil(kappa log(gap / eps))`` (``kappa`` defaults to ``L/mu``). The
    drift constant reads ``gap_scale * gap`` (a minimization gap is averaged:
    ``n``) and ``drift_n`` under its root. A quantity that is not finite is
    refused with ``eps`` or ``delta_prime`` (named with ``suffix``) for N or
    T, and for Delta**2 or D with the entry of ``inputs`` (name: (value,
    power)) largest in its power, the one that drives a sum of powers.
    """
    gamma = 1.0 / L if gamma is None else gamma
    drift = _drift(mode, gamma, grad_norm, delta_prime,
                   Delta if mode == "deterministic" else Delta_sq,
                   mu, L, gap_scale * gap, n=drift_n)
    for what, value, names in (
            (f"log(gap / eps) of N{suffix}", gap / eps, {f"eps{suffix}": (eps, -1)}),
            (f"Delta{suffix}**2", Delta_sq, inputs),
            (f"D{suffix.upper()}", drift, inputs),
            (f"log(D / delta_prime) of T{suffix}", drift / delta_prime if delta_prime else 0.0,
             {f"delta_prime{suffix}": (delta_prime, -1)})):
        if not math.isfinite(value):
            logs = {key: p * math.log(v) for key, (v, p) in names.items() if v > 0}
            name = max(logs, key=logs.get, default=None)
            raise ValueError(f"{name}={names[name][0]!r} overflows {what}" if name
                             else f"{what} is not finite")
    rounds, round_notes = rounds_for_target(drift, delta_prime, mixing.tau, mixing.lam)
    return TheoryBudget(
        mode=mode, N=iterations_for_target(L / mu if kappa is None else kappa, gap, eps),
        T=rounds, D=drift, Delta=Delta, floor=Delta_sq / (2.0 * mu * n), eps=eps,
        delta_prime=delta_prime, gamma=gamma, mu=mu, notes=notes + round_notes)


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

    ``eps`` is the target accuracy on the averaged objective, ``delta_prime``
    the squared consensus error kept at every iteration, ``delta_bias`` the
    oracle's bias bound on the stacked gradient, ``f0_gap`` the initial
    averaged gap ``f(xbar_0) - f*`` and ``grad_at_opt_norm`` the stacked
    gradient norm at the consensual optimum. ``profile`` is a
    problems.SmoothnessProfile; ``mixing`` supplies ``tau`` and ``lam``.
    """
    _check_targets(eps, delta_prime, f0_gap)
    delta_tot = delta_bias + profile.L_l * math.sqrt(delta_prime)
    return _block("deterministic", mixing, eps=eps, delta_prime=delta_prime, mu=profile.mu,
                  L=profile.L_g, n=profile.n, Delta=delta_tot, Delta_sq=_sq(delta_tot),
                  gap=f0_gap, gap_scale=profile.n, grad_norm=grad_at_opt_norm,
                  inputs={"delta_prime": (delta_prime, 1), "delta": (delta_bias, 2)})


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
    gamma = 1.0 / L_g if gamma is None else gamma
    if gamma > 1.0 / L_g * (1.0 + STEP_REL_TOL):
        raise ValueError("step size must satisfy gamma <= 1/L_g")
    delta_sq, sigma_sq = _sq(delta), _sq(sigma)
    if gamma >= 1.0 / L_g * (1.0 - STEP_REL_TOL):
        delta_tot_sq = 18.0 * (L_l ** 2 * delta_prime + sigma_sq + delta_sq)
        kappa = None
    else:
        delta_tot_sq = (2.0 * delta_sq + L_l ** 2 * delta_prime
                        + L_g * gamma * (16.0 * L_l ** 2 * delta_prime
                                         + 18.0 * sigma_sq + 16.0 * delta_sq))
        kappa = 1.0 / (gamma * mu)
        notes = notes + ("small-step variant: iteration count scaled by 1/(gamma L_g)",)
    return _block("stochastic", mixing, eps=eps, delta_prime=delta_prime, gamma=gamma,
                  kappa=kappa, mu=mu, L=L_g, n=profile.n, Delta=math.sqrt(delta_tot_sq),
                  Delta_sq=delta_tot_sq, gap=f0_gap, gap_scale=profile.n,
                  grad_norm=grad_at_opt_norm, notes=notes,
                  inputs={"delta_prime": (delta_prime, 1), "delta": (delta, 2),
                          "sigma": (sigma, 2)})


@dataclass(frozen=True)
class SaddleBudget:
    """Evaluated saddle budget for multi-step gradient descent ascent.

    Block ``x`` budgets the outer descent, ``y`` the inner ascent; the inner
    drift constant also reads ``L_yy_g`` and ``n``. ``y.D`` bounds that
    constant at every outer point (:meth:`inner_drift` recomputes it).
    ``T_tot`` is ``None`` when either round count is.
    """

    x: TheoryBudget
    y: TheoryBudget
    L_yy_g: float
    n: int

    @property
    def mode(self):
        return self.x.mode

    @property
    def T_tot(self):
        x, y = self.x, self.y
        return None if None in (x.T, y.T) else x.N * x.T + x.N * y.N * y.T

    @property
    def inner_target(self):
        """Target gap of the inner maximization at the end of each outer step."""
        return self.y.eps + self.y.floor

    def inner_drift(self, grad_at_inner_opt_norm, inner_gap_stacked):
        """Inner-loop drift constant at one outer point, ``2n/mu_y`` as printed."""
        y = self.y
        return _drift(y.mode, y.gamma, grad_at_inner_opt_norm, y.delta_prime,
                      y.Delta if y.mode == "deterministic" else y.Delta ** 2,
                      y.mu, self.L_yy_g, inner_gap_stacked, n=self.n)


def budget_saddle(profile, mixing, eps_x, eps_y, delta_prime_x, delta_prime_y,
                  delta=0.0, sigma=0.0, *, F_gap0, G_gap0, grad_F_at_opt,
                  grad_G_at_opt):
    """Budget for multi-step gradient descent ascent.

    Gap inputs are stacked: ``F_gap0`` is the initial gap of the max-function
    and ``G_gap0`` that of the inner maximization, each summed over nodes.
    ``grad_F_at_opt`` is the stacked x-gradient norm at the saddle point,
    ``grad_G_at_opt`` the stacked y-gradient norm at the start's inner
    maximizer. The budget is ``"stochastic"`` exactly when ``sigma > 0``.
    """
    if min(eps_x, eps_y) <= 0:
        raise ValueError("accuracy targets must be positive")
    if min(delta_prime_x, delta_prime_y) < 0:
        raise ValueError("consensus targets must be >= 0")
    if profile.mu_y is None:
        raise ValueError("degenerate inner block: no PL constant for y")
    mode = "stochastic" if sigma > 0 else "deterministic"
    mu_x, mu_y, n, L_yy_g = profile.mu_x, profile.mu_y, profile.n, profile.L_yy_g
    sdx, sdy = math.sqrt(delta_prime_x), math.sqrt(delta_prime_y)
    delta_sq, sigma_sq = _sq(delta), _sq(sigma)
    if mode == "deterministic":
        delta_y = delta + profile.L_yy_l * sdy + profile.L_yx_l * sdx
        delta_x = (delta + profile.L_xx_l * sdx
                   + profile.L_xy_l * (math.sqrt(eps_y / (2.0 * mu_y))
                                       + delta_y / (2.0 * mu_y * math.sqrt(n))
                                       + sdy))
    else:
        delta_y_sq = 19.0 * (profile.L_yy_l ** 2 * delta_prime_y
                             + profile.L_yx_l ** 2 * delta_prime_x
                             + sigma_sq + delta_sq)
        delta_y = math.sqrt(delta_y_sq)
        delta_x = math.sqrt(
            22.0 * profile.L_xy_l ** 2 * delta_prime_y
            + 19.0 * profile.L_xx_l ** 2 * delta_prime_x
            + 19.0 * delta_sq + 18.0 * sigma_sq
            + 6.0 * profile.L_xy_l ** 2 * (2.0 * eps_y / mu_y
                                           + delta_y_sq / (mu_y ** 2 * n)))
    inputs = {"delta_prime_x": (delta_prime_x, 1), "delta_prime_y": (delta_prime_y, 1),
              "eps_y": (eps_y, 1), "delta": (delta, 2), "sigma": (sigma, 2)}
    x = _block(mode, mixing, eps=eps_x, delta_prime=delta_prime_x, mu=mu_x, L=profile.L_x,
               n=n, Delta=delta_x, Delta_sq=_sq(delta_x), gap=F_gap0,
               grad_norm=grad_F_at_opt, inputs=inputs, suffix="_x")
    y = _block(mode, mixing, eps=eps_y, delta_prime=delta_prime_y, mu=mu_y, L=L_yy_g,
               n=n, Delta=delta_y, Delta_sq=_sq(delta_y), gap=G_gap0,
               grad_norm=grad_G_at_opt, inputs=inputs, suffix="_y", drift_n=n)
    return SaddleBudget(x=x, y=y, L_yy_g=L_yy_g, n=n)


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
    than ``OVERLAY_REL_TOL`` (relative) plus the gap's float64 resolution
    ``GAP_FLOOR_FACTOR * u * |f*|`` (absolute, with f* read from
    ``records[0].meta["f_star"]``) are flagged.
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
    slack = GAP_FLOOR_FACTOR * UNIT_ROUNDOFF * abs(records[0].meta["f_star"])
    violations = tuple(
        (int(k), float(m), float(b))
        for k, m, b in zip(ks, measured, bounds)
        if m > b * (1.0 + OVERLAY_REL_TOL) + slack)
    return OverlayResult(ks=ks, measured=measured, bounds=bounds,
                         violations=violations)
