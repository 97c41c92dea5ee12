import warnings

import numpy as np
import pytest

from plnet import (
    LeastSquaresProblem,
    RobustLeastSquaresProblem,
    build_least_squares,
    build_robust_ls,
    pl_qg_report,
)
from plnet.problems import row_norms

from helpers import central_diff, centralized_gd, centralized_gda, rel_err


def test_single_node_identity_instance():
    problem = LeastSquaresProblem(np.eye(1).reshape(1, 1, 1), np.zeros((1, 1)))
    np.testing.assert_allclose(problem.minimizer, [0.0])
    assert problem.f_star == 0.0
    prof = problem.profile
    assert prof.mu == prof.L_l == prof.L_g == 1.0


def test_rank_deficient_sum_uses_smallest_nonzero_eig():
    # (1/2)(A1'A1 + A2'A2) = diag(1/2, 0): PL constant is 1/2, not 0
    a = np.array([[[1.0, 0.0]], [[0.0, 0.0]]])
    problem = LeastSquaresProblem(a, np.zeros((2, 1)))
    assert problem.profile.mu == pytest.approx(0.5)


def test_one_dimensional_instances_build_with_mu_equal_to_L_g():
    # at d = 1 mu and L_g are the same number; rounding used to put mu one
    # ULP above L_g, and the profile check then refused the instance
    problem, prof = build_least_squares(3, 1, seed=0)
    assert prof.mu == prof.L_g
    for n in range(1, 13):
        for seed in range(40):
            _, prof = build_least_squares(n, 1, seed=seed)
            assert prof.mu <= prof.L_g
            assert prof.mu == pytest.approx(prof.L_g, rel=1e-12)


def test_minimizer_matches_long_run_gd_oracle():
    problem, prof = build_least_squares(3, 3, seed=21)
    _, x_gd = centralized_gd(problem, gamma=1.0 / prof.L_g, iterations=8000,
                             record_every=8000)
    assert problem.f(x_gd) - problem.f_star <= 1e-8
    np.testing.assert_allclose(problem.grad_f(problem.minimizer),
                               np.zeros(3), atol=1e-10)


def test_profile_recomputed_from_eigenvalues():
    problem, prof = build_least_squares(4, 3, seed=22)
    per_node = [float(np.linalg.eigvalsh(problem.A[i].T @ problem.A[i])[-1])
                for i in range(4)]
    assert max(per_node) == pytest.approx(prof.L_l, abs=1e-10)
    assert np.mean(per_node) == pytest.approx(prof.L_g, abs=1e-10)
    normal = sum(problem.A[i].T @ problem.A[i] for i in range(4)) / 4
    eigs = np.linalg.eigvalsh(normal)
    assert eigs[eigs > 1e-10][0] == pytest.approx(prof.mu, abs=1e-10)
    assert prof.L_l >= prof.L_g >= prof.mu > 0


def test_robust_gradients_match_finite_differences():
    problem, _ = build_robust_ls(3, 3, 2, alpha=2.5, seed=23)
    rng = np.random.default_rng(24)
    for _ in range(10):
        x = rng.standard_normal(3)
        y = rng.standard_normal(2)
        fd_x = central_diff(lambda v: problem.phi(v, y), x)
        fd_y = central_diff(lambda v: problem.phi(x, v), y)
        assert rel_err(problem.grad_x(x, y), fd_x) <= 1e-5
        assert rel_err(problem.grad_y(x, y), fd_y) <= 1e-5


def test_zero_coupling_reduces_to_least_squares():
    rng = np.random.default_rng(25)
    a = rng.standard_normal((3, 2, 2))
    y0 = rng.standard_normal((3, 2))
    saddle_problem = RobustLeastSquaresProblem(a, np.zeros((3, 2, 2)), y0, alpha=2.0)
    ls = LeastSquaresProblem(a, y0)
    rng2 = np.random.default_rng(26)
    for _ in range(5):
        x = rng2.standard_normal(2)
        y = rng2.standard_normal(2)
        np.testing.assert_allclose(saddle_problem.grad_y(x, y), np.zeros(2))
        np.testing.assert_allclose(saddle_problem.grad_x(x, y), ls.grad_f(x),
                                   atol=1e-14)
    s = saddle_problem.saddle
    np.testing.assert_allclose(s.x, ls.minimizer, atol=1e-10)
    np.testing.assert_allclose(s.y, np.zeros(2), atol=1e-12)  # minimum norm
    assert s.min_norm


def test_scalar_saddle_closed_form():
    # phi = 0.5 (a x - y0 - b y)^2 - (alpha/2) b^2 y^2
    # stationarity forces the residual to 0 and then y = 0, x = y0 / a
    a, b, y0, alpha = 2.0, 3.0, 1.5, 2.0
    problem = RobustLeastSquaresProblem(
        np.array([[[a]]]), np.array([[[b]]]), np.array([[y0]]), alpha)
    s = problem.saddle
    assert s.x[0] == pytest.approx(y0 / a, abs=1e-12)
    assert s.y[0] == pytest.approx(0.0, abs=1e-12)
    assert s.value == pytest.approx(0.0, abs=1e-12)


def test_saddle_stationarity_residuals():
    problem, _ = build_robust_ls(4, 3, 2, alpha=2.0, seed=27)
    s = problem.saddle
    assert np.linalg.norm(problem.grad_x(s.x, s.y)) <= 1e-10
    assert np.linalg.norm(problem.grad_y(s.x, s.y)) <= 1e-10
    assert not s.min_norm


def test_saddle_matches_damped_gda_oracle():
    problem, _ = build_robust_ls(3, 2, 2, alpha=2.0, seed=28)
    _, (x, y) = centralized_gda(problem, gamma_x=2e-2, gamma_y=2e-2,
                                outer_iterations=40000, inner_iterations=1,
                                record_every=40000)
    s = problem.saddle
    assert np.linalg.norm(x - s.x) <= 1e-6
    assert np.linalg.norm(y - s.y) <= 1e-6


def test_inner_objective_solve_and_consistency():
    problem, _ = build_robust_ls(3, 2, 2, alpha=2.0, seed=29)
    rng = np.random.default_rng(30)
    for _ in range(5):
        x = rng.standard_normal(2)
        y_star, g_star = problem.y_star_of(x), problem.f(x)
        assert np.linalg.norm(problem.grad_y(x, y_star)) <= 1e-10
        assert g_star - problem.phi(x, y_star) == pytest.approx(0.0, abs=1e-12)
        # maximizer: random deviations never beat it
        for _ in range(10):
            y = y_star + 0.5 * rng.standard_normal(2)
            assert problem.phi(x, y) <= g_star + 1e-12
    s = problem.saddle
    assert problem.f(s.x) == pytest.approx(problem.f_star, abs=1e-10)


def test_danskin_gradient_matches_finite_differences():
    # grad_f is the gradient of f on both families; on robust least squares
    # f is the max-function and grad_f its Danskin gradient
    rng = np.random.default_rng(32)
    for problem in (build_robust_ls(3, 3, 2, alpha=2.0, seed=31)[0],
                    build_least_squares(3, 3, d_i=2, seed=31)[0]):
        for _ in range(10):
            x = rng.standard_normal(3)
            fd = central_diff(problem.f, x)
            assert rel_err(problem.grad_f(x), fd) <= 1e-4


@pytest.mark.parametrize("problem", [
    build_least_squares(5, 3, d_i=2, seed=45)[0],
    build_least_squares(4, 3, seed=46, identity=True)[0],
    build_robust_ls(5, 3, 2, d_i=4, alpha=2.0, seed=47)[0]],
    ids=["least_squares", "quadratic", "robust_ls"])
def test_every_family_answers_the_problem_interface(problem):
    # the harness, the runners and pl_qg_report read these names alone, on
    # every family
    x_star = problem.optimum[0]
    assert problem.f(x_star) == pytest.approx(problem.f_star, rel=1e-12, abs=0)
    assert np.linalg.norm(problem.grad_f(x_star)) <= 1e-10
    assert np.linalg.norm(problem.grad_stacked_at_opt().sum(axis=0)) <= 1e-10
    h, prof = problem.hessian, problem.profile
    np.testing.assert_allclose(h, h.T, rtol=0, atol=1e-12 * np.abs(h).max())
    eigs = np.linalg.eigvalsh(h)
    assert eigs[eigs > 1e-10 * eigs[-1]][0] >= getattr(prof, prof.SIDECAR[0]) * (1 - 1e-12)
    assert prof.SIDECAR[0] in ("mu", "mu_x")
    for name in prof.SIDECAR:
        value = getattr(prof, name)
        assert isinstance(value, float) and np.isfinite(value), name


@pytest.mark.parametrize("problem", [
    build_least_squares(5, 3, d_i=2, seed=45)[0],
    build_least_squares(4, 3, seed=46, identity=True)[0],
    build_robust_ls(5, 3, 2, d_i=4, alpha=2.0, seed=47)[0]],
    ids=["least_squares", "quadratic", "robust_ls"])
def test_value_and_grad_is_f_and_grad_f_bit_for_bit(problem):
    xs = 2.0 * np.random.default_rng(48).standard_normal((7, problem.optimum[0].size))
    for x in (xs[0], xs):
        value, grad = problem.value_and_grad(x)
        assert type(value) is type(problem.f(x))
        np.testing.assert_array_equal(value, problem.f(x))
        np.testing.assert_array_equal(grad, problem.grad_f(x))


def test_node_smoothness_constants_sampled():
    problem, prof = build_robust_ls(3, 2, 2, alpha=2.0, seed=33)
    rng = np.random.default_rng(34)
    for i in range(problem.n):
        lxx = prof.L_xx_per_node[i]
        lxy = prof.L_xy_per_node[i]
        lyx = prof.L_yx_per_node[i]
        lyy = prof.L_yy_per_node[i]
        for _ in range(20):
            x1, x2 = rng.standard_normal((2, 2))
            y1, y2 = rng.standard_normal((2, 2))
            dx = np.linalg.norm(problem.node_grad_x(i, x1, y1)
                                - problem.node_grad_x(i, x2, y2))
            assert dx <= lxx * np.linalg.norm(x1 - x2) \
                + lxy * np.linalg.norm(y1 - y2) + 1e-10
            dy = np.linalg.norm(problem.node_grad_y(i, x1, y1)
                                - problem.node_grad_y(i, x2, y2))
            assert dy <= lyx * np.linalg.norm(x1 - x2) \
                + lyy * np.linalg.norm(y1 - y2) + 1e-10


def test_ls_node_smoothness_sampled():
    problem, prof = build_least_squares(3, 3, seed=35)
    rng = np.random.default_rng(36)
    for i in range(problem.n):
        li = prof.L_per_node[i]
        for _ in range(20):
            x1, x2 = rng.standard_normal((2, 3))
            diff = np.linalg.norm(problem.node_grad(i, x1) - problem.node_grad(i, x2))
            assert diff <= li * np.linalg.norm(x1 - x2) + 1e-10


def test_pl_qg_sampling_on_instances():
    ls, _ = build_least_squares(4, 3, seed=37)
    saddle, _ = build_robust_ls(3, 2, 2, alpha=2.0, seed=38)
    for problem in (ls, saddle):
        report = pl_qg_report(problem, num_points=60, seed=39)
        assert report.ok(), report


def test_alpha_at_most_one_rejected():
    rng = np.random.default_rng(40)
    with pytest.raises(ValueError, match="alpha"):
        RobustLeastSquaresProblem(rng.standard_normal((2, 2, 2)),
                                  rng.standard_normal((2, 2, 2)),
                                  rng.standard_normal((2, 2)), alpha=1.0)
    with pytest.raises(ValueError):
        build_robust_ls(2, 2, 2, alpha=0.5, seed=0)


def test_saddle_smoothness_formula_consistency():
    _, prof = build_robust_ls(3, 2, 2, alpha=2.0, seed=41)
    assert prof.L_x == pytest.approx(prof.L_xx_g + prof.L_xy_g / prof.mu_y,
                                     abs=1e-12)


class _Untouchable:
    """Stands in for a raw data array; any use of it raises."""

    def __getattr__(self, name):
        raise AssertionError(f"raw data read through .{name}")

    def __getitem__(self, key):
        raise AssertionError("raw data indexed")

    def __array__(self, *args, **kwargs):
        raise AssertionError("raw data converted to an array")


def test_stacked_gradients_use_only_the_per_node_blocks():
    ls, _ = build_least_squares(5, 3, d_i=4, seed=42)
    saddle, _ = build_robust_ls(5, 2, 3, d_i=4, alpha=1.5, seed=42)
    rng = np.random.default_rng(43)
    x, xs, ys = (rng.standard_normal(shape) for shape in ((5, 3), (5, 2), (5, 3)))
    before = (ls.grad_stacked(x), saddle.grad_x_stacked(xs, ys),
              saddle.grad_y_stacked(xs, ys))
    ls.A = ls.y0 = _Untouchable()
    saddle.A = saddle.B = saddle.y0 = _Untouchable()
    after = (ls.grad_stacked(x), saddle.grad_x_stacked(xs, ys),
             saddle.grad_y_stacked(xs, ys))
    for old, new in zip(before, after):
        np.testing.assert_array_equal(new, old)
    with pytest.raises(ValueError):
        ls.grad_stacked(np.zeros((5, 2)))
    # widths that only add up, x and y swapped, are refused as well
    for grad in (saddle.grad_x_stacked, saddle.grad_y_stacked):
        with pytest.raises(ValueError):
            grad(ys, xs)


def _per_point(fn, *stacks):
    return np.array([fn(*rows) for rows in zip(*stacks)])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", [(20, 4, 2, 4), (10, 2, 2, 6), (5, 3, 4, 2)])
def test_batched_evaluation_equals_per_point_calls(seed, shape):
    n, d_x, d_y, d_i = shape
    rng = np.random.default_rng(seed)
    ls, _ = build_least_squares(n, d_x, d_i=d_i, seed=seed)
    saddle, _ = build_robust_ls(n, d_x, d_y, d_i=d_i, alpha=2.0, seed=seed)
    xs = 3.0 * rng.standard_normal((60, d_x))
    ys = 3.0 * rng.standard_normal((60, d_y))
    cases = [(ls.f, (xs,)), (ls.grad_f, (xs,)), (saddle.phi, (xs, ys)),
             (saddle.grad_x, (xs, ys)), (saddle.grad_y, (xs, ys)),
             (saddle.y_star_of, (xs,))]
    for fn, stacks in cases:
        np.testing.assert_array_equal(fn(*stacks), _per_point(fn, *stacks),
                                      err_msg=fn.__name__)
        # one row is a batch of one, not a single point
        np.testing.assert_array_equal(fn(*(s[:1] for s in stacks)),
                                      _per_point(fn, *(s[:1] for s in stacks)))
    # the max-function value at the batched inner maximizers, as a trace
    # measures saddle gaps
    np.testing.assert_array_equal(
        saddle.phi(xs, saddle.y_star_of(xs)),
        _per_point(lambda x: saddle.phi(x, saddle.y_star_of(x)), xs))
    grads = saddle.grad_y(xs, ys)
    np.testing.assert_array_equal(row_norms(grads),
                                  [np.linalg.norm(g) for g in grads])
    assert type(ls.f(xs[0])) is float
    assert type(saddle.phi(xs[0], ys[0])) is float
    # a single point is still one flat sum over all nodes' residuals
    for x, y in zip(xs[:10], ys[:10]):
        by = np.einsum("nij,j->ni", saddle.B, y)
        r = np.einsum("nij,j->ni", saddle.A, x) - saddle.y0 - by
        assert saddle.phi(x, y) == 0.5 * float(
            np.sum(r * r) - saddle.alpha * np.sum(by * by)) / n
        r = np.einsum("nij,j->ni", ls.A, x) - ls.y0
        assert ls.f(x) == 0.5 * float(np.sum(r * r)) / n
    assert ls.f(xs).shape == saddle.phi(xs, ys).shape == (60,)


def test_batched_inner_maximizers_at_large_d_y_agree_to_rounding():
    # LAPACK may round a solve with many right-hand sides differently from
    # a solve with one (with OpenBLAS 0.3.31's SkylakeX kernels the two part
    # from d_y = 8 on); the batched maximizers then agree with the per-point
    # ones to rounding only
    saddle, _ = build_robust_ls(7, 3, 9, d_i=12, alpha=2.0, seed=4)
    xs = np.random.default_rng(4).standard_normal((50, 3))
    np.testing.assert_allclose(saddle.y_star_of(xs),
                               _per_point(saddle.y_star_of, xs), rtol=1e-12, atol=0)


def _per_node_constants(problem):
    """Per-node smoothness constants, one node at a time."""
    if isinstance(problem, LeastSquaresProblem):
        return (tuple(float(np.linalg.eigvalsh(problem.A[i].T @ problem.A[i])[-1])
                      for i in range(problem.n)),)
    lxx, cross, lyy = [], [], []
    for i in range(problem.n):
        a, b = problem.A[i], problem.B[i]
        lxx.append(float(np.linalg.eigvalsh(a.T @ a)[-1]))
        lyy.append((problem.alpha - 1.0) * float(np.linalg.eigvalsh(b.T @ b)[-1]))
        cross.append(float(np.linalg.svd(a.T @ b, compute_uv=False)[0]))
    return tuple(lxx), tuple(cross), tuple(cross), tuple(lyy)


@pytest.mark.parametrize("n", [1, 5, 40])
@pytest.mark.parametrize("d", [1, 3, 9])
@pytest.mark.parametrize("d_i_of", [lambda d: 1, lambda d: d + 3],
                         ids=["d_i=1", "d_i=d+3"])
def test_stacked_constants_equal_per_node_loop(n, d, d_i_of):
    # the profiles take every per-node constant from one stacked call; each
    # must be the number the node's own decomposition gives
    ls, prof = build_least_squares(n, d, d_i_of(d), seed=n + d)
    assert (prof.L_per_node,) == _per_node_constants(ls)
    saddle, sprof = build_robust_ls(n, d, max(1, d - 1), d_i_of(d), seed=n * d)
    assert (sprof.L_xx_per_node, sprof.L_xy_per_node, sprof.L_yx_per_node,
            sprof.L_yy_per_node) == _per_node_constants(saddle)


def _per_sample_pl_qg(problem, num_points, seed):
    """``pl_qg_report``'s ratios, one sample and one eigendecomposition at a time."""
    rng = np.random.default_rng(seed)

    def dist_sq(h, v):
        w, vecs = np.linalg.eigh(h)
        coords = vecs[:, w > w[-1] * 1e-10].T @ v
        return float(coords @ coords) if w[-1] > 0 else 0.0

    def ratios(gap, grad, dist, mu):
        grad_sq = float(np.sum(grad ** 2))
        return ((2.0 * mu * gap) / grad_sq if grad_sq > 1e-12 else 0.0,
                (mu * dist) / (2.0 * gap) if gap > 1e-12 else 0.0)

    worst = np.zeros(4)
    if isinstance(problem, LeastSquaresProblem):
        for _ in range(num_points):
            x = problem.minimizer + rng.standard_normal(problem.d)
            worst[:2] = np.maximum(worst[:2], ratios(
                problem.f(x) - problem.f_star, problem.grad_f(x),
                dist_sq(problem.hessian, x - problem.minimizer), problem.profile.mu))
        return list(worst[:2])
    prof, s = problem.profile, problem.saddle
    for _ in range(num_points):
        x = s.x + rng.standard_normal(problem.d_x)
        worst[:2] = np.maximum(worst[:2], ratios(
            problem.f(x) - s.value, problem.grad_f(x),
            dist_sq(problem.hessian, x - s.x), prof.mu_x))
        y_star = problem.y_star_of(x)
        y = y_star + rng.standard_normal(problem.d_y)
        worst[2:] = np.maximum(worst[2:], ratios(
            problem.phi(x, y_star) - problem.phi(x, y), problem.grad_y(x, y),
            dist_sq(problem.y_hessian_neg(), y - y_star), prof.mu_y))
    return list(worst)


@pytest.mark.parametrize("num_points", [1, 60])
def test_pl_qg_report_equals_per_sample_loop(num_points):
    # the report draws every sample at once and evaluates them in batched
    # calls; it must read the generator's stream as a per-sample loop does
    for problem in (build_least_squares(6, 4, d_i=3, seed=41)[0],
                    build_robust_ls(5, 3, 2, d_i=6, alpha=2.0, seed=42)[0]):
        report = pl_qg_report(problem, num_points=num_points, seed=43)
        got = [report.max_pl_ratio, report.max_qg_ratio,
               report.max_pl_ratio_y, report.max_qg_ratio_y]
        ref = _per_sample_pl_qg(problem, num_points, seed=43)
        assert got[:len(ref)] == pytest.approx(ref, rel=1e-12, abs=0)
        assert max(ref) > 0


def test_empty_problems_rejected_at_construction():
    # zero nodes or an empty variable block used to build, warn about a
    # division by zero and fail later in the profile
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least one"):
            LeastSquaresProblem(np.zeros((0, 2, 3)), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="at least one"):
            LeastSquaresProblem(np.zeros((2, 2, 0)), np.zeros((2, 2)))
        rng = np.random.default_rng(44)
        for n, d_x, d_y in ((0, 2, 2), (2, 0, 2), (2, 2, 0)):
            with pytest.raises(ValueError, match="at least one"):
                RobustLeastSquaresProblem(rng.standard_normal((n, 3, d_x)),
                                          rng.standard_normal((n, 3, d_y)),
                                          rng.standard_normal((n, 3)), 2.0)
