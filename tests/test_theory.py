import math
from dataclasses import dataclass

import numpy as np
import pytest

from plnet import (
    DGDConfig,
    LeastSquaresProblem,
    MixingModel,
    SaddleSmoothness,
    SmoothnessProfile,
    budget_min_deterministic,
    budget_min_stochastic,
    budget_saddle,
    build_least_squares,
    dgd_run,
    noise_floor,
    make_graph_sequence,
    overlay_bounds,
)
from plnet.theory import iterations_for_target, rounds_for_target


@dataclass(frozen=True)
class MixStub:
    tau: int
    lam: float


def profile_with(L_g, mu, L_l=None, n=2):
    L_l = L_g if L_l is None else L_l
    per_node = (L_l,) + (max((n * L_g - L_l) / (n - 1), 1e-9),) * (n - 1) \
        if n > 1 else (L_g,)
    return SmoothnessProfile(L_per_node=per_node, mu=mu)


def saddle_profile_with(l_xx=4.0, l_xy=2.0, l_yx=2.0, l_yy=3.0,
                        mu_x=0.5, mu_y=0.4, n=4):
    return SaddleSmoothness(
        L_xx_per_node=(l_xx,) * n, L_xy_per_node=(l_xy,) * n,
        L_yx_per_node=(l_yx,) * n, L_yy_per_node=(l_yy,) * n,
        mu_x=mu_x, mu_y=mu_y)


def test_iteration_count_ceiling():
    # kappa = 10, gap/eps = 100: ceil(10 ln 100) = 47
    assert iterations_for_target(10.0, 100.0, 1.0) == 47


@pytest.mark.parametrize("gap", [0.0, -1e-12])
def test_iteration_count_at_a_gap_already_closed(gap):
    assert iterations_for_target(10.0, gap, 1e-3) == 1


def test_exact_consensus_on_an_exactly_averaging_window():
    # a complete graph averages in one round (lam 1), so delta_prime 0 is
    # reached in one window of tau rounds
    assert rounds_for_target(5.0, 0.0, tau=3, lam=1.0) == (
        3, ("target 0 reached in one exact-averaging window",))
    complete = MixingModel(make_graph_sequence(4, "static", topology="complete"))
    assert complete.lam == 1.0
    budget = budget_min_deterministic(profile_with(L_g=4.0, mu=1.0, n=4), complete,
                                      eps=1e-3, delta_prime=0.0, delta_bias=0.0,
                                      f0_gap=1.0, grad_at_opt_norm=2.0)
    assert budget.T == 1


def test_deterministic_budget_zero_inexactness():
    profile = profile_with(L_g=4.0, mu=1.0, L_l=6.0, n=3)
    budget = budget_min_deterministic(profile, MixStub(1, 0.5), eps=1e-3,
                                      delta_prime=0.0, delta_bias=0.0,
                                      f0_gap=1.0, grad_at_opt_norm=2.0)
    assert budget.Delta == 0.0
    assert budget.floor == 0.0
    assert budget.T is None  # exact consensus unreachable on a lossy graph
    assert any("unreachable" in note for note in budget.notes)


def test_complete_graph_rounds_small():
    profile = profile_with(L_g=4.0, mu=1.0, n=2)
    budget = budget_min_deterministic(profile, MixStub(1, 1.0), eps=1e-3,
                                      delta_prime=1e-6, delta_bias=0.01,
                                      f0_gap=1.0, grad_at_opt_norm=2.0)
    expected = math.ceil(0.5 * math.log(budget.D / 1e-6))
    assert budget.T == expected
    assert budget.T <= 20


def test_noise_floor_value():
    # delta^2 = 0.01, sigma = 0, gamma = mu = L = 1: floor = 0.005
    assert noise_floor(delta=0.1, sigma=0.0, gamma=1.0, mu=1.0, L=1.0) \
        == pytest.approx(0.005)


def test_stochastic_drift_reduces_when_clean():
    profile = profile_with(L_g=5.0, mu=1.25, L_l=8.0, n=4)
    g, gap = 3.0, 2.0
    budget = budget_min_stochastic(profile, MixStub(1, 0.6), eps=1e-4,
                                   delta_prime=0.0, delta=0.0, sigma=0.0,
                                   f0_gap=gap, grad_at_opt_norm=g)
    gamma = 1.0 / 5.0
    expected = 6.0 * gamma ** 2 * g ** 2 \
        + (12.0 * gamma ** 2 * 25.0 / 1.25) * (1.0 - 1.25 / 5.0) * (4 * gap)
    assert budget.D == pytest.approx(expected, rel=1e-12)
    assert budget.Delta == 0.0


def test_small_step_variant_formulas():
    profile = profile_with(L_g=4.0, mu=1.0, L_l=6.0, n=3)
    mix = MixStub(1, 0.5)
    delta, sigma, dp = 0.02, 0.3, 1e-5
    base = budget_min_stochastic(profile, mix, 1e-3, dp, delta, sigma,
                                 f0_gap=1.0, grad_at_opt_norm=2.0)
    half = budget_min_stochastic(profile, mix, 1e-3, dp, delta, sigma,
                                 f0_gap=1.0, grad_at_opt_norm=2.0,
                                 gamma=1.0 / 8.0)
    ll, lg = 6.0, 4.0
    expected_sq = (2 * delta ** 2 + ll ** 2 * dp
                   + lg * (1 / 8) * (16 * ll ** 2 * dp + 18 * sigma ** 2
                                     + 16 * delta ** 2))
    assert half.Delta ** 2 == pytest.approx(expected_sq, rel=1e-12)
    assert half.Delta < base.Delta  # the point of the small step: lower floor
    # iteration count scales with 1/(gamma L_g), here a factor of 2
    assert half.N == pytest.approx(2 * base.N, abs=2)
    with pytest.raises(ValueError):
        budget_min_stochastic(profile, mix, 1e-3, dp, delta, sigma,
                              f0_gap=1.0, grad_at_opt_norm=2.0, gamma=0.5)


def test_budget_input_errors_and_clamps():
    profile = profile_with(L_g=4.0, mu=1.0, n=2)
    mix = MixStub(1, 0.5)
    with pytest.raises(ValueError):
        budget_min_deterministic(profile, mix, eps=0.0, delta_prime=1e-6,
                                 delta_bias=0.0, f0_gap=1.0, grad_at_opt_norm=1.0)
    with pytest.raises(ValueError):
        budget_min_deterministic(profile, mix, eps=1e-3, delta_prime=-1.0,
                                 delta_bias=0.0, f0_gap=1.0, grad_at_opt_norm=1.0)
    # drift below target: rounds clamp to zero with a note
    rounds, notes = rounds_for_target(1e-9, 1e-3, tau=2, lam=0.5)
    assert rounds == 0 and notes


def test_saddle_inexactness_cancellation():
    profile = saddle_profile_with()
    eps_y = 1e-2
    budget = budget_saddle(profile, MixStub(1, 0.5), eps_x=1e-3, eps_y=eps_y,
                           delta_prime_x=0.0, delta_prime_y=0.0,
                           F_gap0=10.0, G_gap0=8.0, grad_F_at_opt=4.0, grad_G_at_opt=3.0)
    assert budget.y.Delta == 0.0
    expected = profile.L_xy_l * math.sqrt(eps_y / (2.0 * profile.mu_y))
    assert budget.x.Delta == pytest.approx(expected, rel=1e-12)
    # inner inexactness alone drives the outer bias
    assert budget.x.Delta > 0


def full_saddle_budget(sigma=0.0, eps_scale=1.0):
    return budget_saddle(
        saddle_profile_with(l_xx=6.0, l_xy=3.0, l_yx=3.0, l_yy=5.0,
                            mu_x=0.2, mu_y=0.2, n=4),
        MixStub(2, 0.4), eps_x=1e-4 * eps_scale, eps_y=1e-4 * eps_scale,
        delta_prime_x=1e-7, delta_prime_y=1e-7, delta=0.01, sigma=sigma,
        F_gap0=10.0, G_gap0=8.0, grad_F_at_opt=4.0, grad_G_at_opt=3.0)


def test_saddle_budget_complete_and_total_rounds():
    budget = full_saddle_budget()
    assert budget.T_tot is not None
    assert budget.x.T % 2 == 0 and budget.y.T % 2 == 0  # multiples of tau
    assert budget.T_tot == budget.x.N * budget.x.T \
        + budget.x.N * budget.y.N * budget.y.T


@pytest.mark.parametrize("sigma", [0.0, 0.02])
def test_saddle_x_block_bounds_are_the_outer_overlay(sigma):
    budget = full_saddle_budget(sigma=sigma)
    ks, gap0 = np.arange(0, 50, 7), 10.0
    expected = (1.0 - budget.x.gamma * 0.2) ** ks * gap0 + budget.x.floor
    assert budget.x.gamma == 1.0 / (6.0 + 3.0 / 0.2)  # 1/L_x, L_x = L_xx_g + L_xy_g/mu_y
    assert np.array_equal(budget.x.bounds(ks, gap0), expected)


def test_complexity_log_squared_scaling():
    b1 = full_saddle_budget(eps_scale=1.0)
    b2 = full_saddle_budget(eps_scale=0.1)
    actual = (b2.x.N * b2.y.N) / (b1.x.N * b1.y.N)
    l1 = math.log(10.0 / 1e-4)
    predicted = ((l1 + math.log(10.0)) / l1) ** 2
    assert abs(actual / predicted - 1.0) <= 0.1


def test_inner_drift_carries_extra_n_factor():
    # the inner-loop drift constant is printed with 2n/mu under the root
    # where the outer constant has 2/mu; the difference must be observable
    budget_n4 = full_saddle_budget()
    prof1 = saddle_profile_with(l_xx=6.0, l_xy=3.0, l_yx=3.0, l_yy=5.0,
                                mu_x=0.2, mu_y=0.2, n=1)
    budget_n1 = budget_saddle(prof1, MixStub(2, 0.4), eps_x=1e-4, eps_y=1e-4,
                              delta_prime_x=1e-7, delta_prime_y=1e-7,
                              delta=0.01, sigma=0.0, F_gap0=10.0, G_gap0=8.0,
                              grad_F_at_opt=4.0, grad_G_at_opt=3.0)
    same_args = (3.0, 8.0)
    assert budget_n4.inner_drift(*same_args) > budget_n1.inner_drift(*same_args)


def test_stochastic_saddle_mode_formulas():
    # a positive sigma selects the stochastic budget
    budget = full_saddle_budget(sigma=0.02)
    assert budget.mode == "stochastic"
    prof = saddle_profile_with(l_xx=6.0, l_xy=3.0, l_yx=3.0, l_yy=5.0,
                               mu_x=0.2, mu_y=0.2, n=4)
    dy_sq = 19.0 * (prof.L_yy_l ** 2 * 1e-7 + prof.L_yx_l ** 2 * 1e-7
                    + 0.02 ** 2 + 0.01 ** 2)
    assert budget.y.Delta ** 2 == pytest.approx(dy_sq, rel=1e-12)
    dx_sq = (22.0 * prof.L_xy_l ** 2 * 1e-7 + 19.0 * prof.L_xx_l ** 2 * 1e-7
             + 19.0 * 0.01 ** 2 + 18.0 * 0.02 ** 2
             + 6.0 * prof.L_xy_l ** 2 * (2.0 * 1e-4 / prof.mu_y
                                         + dy_sq / (prof.mu_y ** 2 * 4)))
    assert budget.x.Delta ** 2 == pytest.approx(dx_sq, rel=1e-12)


def test_budgets_bit_stable():
    profile = profile_with(L_g=4.0, mu=0.5, L_l=7.0, n=3)
    mix = MixStub(2, 0.3)
    args = dict(eps=1e-5, delta_prime=1e-6, delta_bias=0.05, f0_gap=3.0,
                grad_at_opt_norm=1.7)
    assert budget_min_deterministic(profile, mix, **args) \
        == budget_min_deterministic(profile, mix, **args)
    assert full_saddle_budget() == full_saddle_budget()


def test_budget_monotonicities_random_sweep():
    rng = np.random.default_rng(0)
    for _ in range(100):
        l_l = float(rng.uniform(2.0, 20.0))
        l_g = float(rng.uniform(1.0, l_l))
        mu = float(rng.uniform(0.05, l_g))
        profile = profile_with(L_g=l_g, mu=mu, L_l=l_l, n=3)
        mix = MixStub(int(rng.integers(1, 4)), float(rng.uniform(0.05, 1.0)))
        eps = float(rng.uniform(1e-8, 1e-2))
        dp = float(rng.uniform(1e-9, 1e-3))
        delta = float(rng.uniform(0.0, 0.5))
        sigma = float(rng.uniform(0.0, 0.5))
        gap = float(rng.uniform(0.5, 50.0))
        g = float(rng.uniform(0.0, 10.0))
        b = budget_min_stochastic(profile, mix, eps, dp, delta, sigma, gap, g)
        # N nonincreasing in eps
        b_eps = budget_min_stochastic(profile, mix, 4.0 * eps, dp, delta,
                                      sigma, gap, g)
        assert b_eps.N <= b.N
        # T nondecreasing in the drift constant, nonincreasing in the target
        t_hi, _ = rounds_for_target(b.D * 7.0, dp, mix.tau, mix.lam)
        t_lo, _ = rounds_for_target(b.D, dp * 5.0, mix.tau, mix.lam)
        assert t_hi >= (b.T or 0)
        assert t_lo <= (b.T if b.T is not None else t_lo)
        # floor nondecreasing in delta and sigma
        b_noise = budget_min_stochastic(profile, mix, eps, dp, delta + 0.1,
                                        sigma + 0.1, gap, g)
        assert b_noise.floor >= b.floor


def test_overlay_bound_holds_on_exact_run():
    problem, prof = build_least_squares(4, 3, seed=50)
    model = MixingModel(make_graph_sequence(4, "static", topology="path"))
    x0 = np.zeros(3)
    f0_gap = problem.f(x0) - problem.f_star
    budget = budget_min_deterministic(
        profile=prof, mixing=model, eps=1e-5 * f0_gap, delta_prime=1e-8,
        delta_bias=0.0, f0_gap=f0_gap,
        grad_at_opt_norm=float(np.linalg.norm(problem.grad_stacked_at_opt())))
    config = DGDConfig(gamma=budget.gamma, iterations=budget.N,
                       rounds_schedule=budget.T)
    record, _ = dgd_run(problem, model, config, np.zeros((4, 3)))
    result = overlay_bounds(record, budget)
    assert result.ok, result.violations
    # at k = 0 the bound is the measured gap plus the floor
    assert result.bounds[0] >= result.measured[0]


def test_overlay_tolerates_gaps_within_float64_resolution_of_f_star():
    # y0 scaled by 100 puts |f*| near 1964: the exact run's gaps settle at a
    # few ULPs of f* (up to 2.3e-13), which a fixed 1e-15 slack flagged
    base, _ = build_least_squares(4, 2, seed=1)
    problem = LeastSquaresProblem(base.A, 100.0 * base.y0)
    model = MixingModel(make_graph_sequence(4, "static", topology="complete"))
    f0_gap = problem.f(np.zeros(2)) - problem.f_star
    budget = budget_min_deterministic(
        problem.profile, model, eps=1e-6 * f0_gap, delta_prime=0.0, delta_bias=0.0,
        f0_gap=f0_gap, grad_at_opt_norm=float(np.linalg.norm(problem.grad_stacked_at_opt())))
    config = DGDConfig(gamma=budget.gamma, iterations=400, rounds_schedule=budget.T)
    record, _ = dgd_run(problem, model, config, np.zeros((4, 2)))
    result = overlay_bounds(record, budget)
    assert result.ok, result.violations[:3]
    assert max(result.measured[-50:]) > 0.0


def test_overlay_mode_mismatch_rejected():
    problem, prof = build_least_squares(3, 2, seed=51)
    model = MixingModel(make_graph_sequence(3, "static", topology="ring"))
    from plnet import OracleSpec
    config = DGDConfig(gamma=1.0 / prof.L_g, iterations=5, rounds_schedule=2,
                       oracle=OracleSpec(sigma=0.2, seed=0))
    record, _ = dgd_run(problem, model, config, np.zeros((3, 2)))
    x0 = np.zeros(2)
    budget = budget_min_deterministic(
        prof, model, eps=1e-3, delta_prime=1e-6, delta_bias=0.0,
        f0_gap=problem.f(x0) - problem.f_star,
        grad_at_opt_norm=float(np.linalg.norm(problem.grad_stacked_at_opt())))
    with pytest.raises(ValueError, match="stochastic"):
        overlay_bounds(record, budget)
