import numpy as np
import pytest

from plnet import (
    LeastSquaresProblem,
    OracleSpec,
    OracleState,
    build_least_squares,
)
from plnet.consensus import average_projection
from plnet.oracles import perturb_gradient

from helpers import central_diff, rel_err


def unit_quadratic(n, d):
    """f_i(x) = 0.5 ||x||^2 via identity data and zero targets."""
    return LeastSquaresProblem(np.tile(np.eye(d), (n, 1, 1)), np.zeros((n, d)))


def test_exact_gradient_of_unit_quadratic_is_state():
    problem = unit_quadratic(4, 3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(problem.grad_stacked(x), x)


def test_exact_gradient_matches_finite_differences():
    problem, _ = build_least_squares(3, 4, seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4))
    grads = problem.grad_stacked(x)
    for i in range(3):
        fd = central_diff(lambda v: problem.node_value(i, v), x[i])
        assert rel_err(grads[i], fd) <= 1e-5


def test_consensual_gradient_rows_average_to_mean_gradient():
    problem, _ = build_least_squares(5, 3, seed=3)
    x = np.tile(np.linspace(0.0, 1.0, 3), (5, 1))
    grads = problem.grad_stacked(x)
    np.testing.assert_allclose(grads.mean(axis=0), problem.grad_f(x[0]), atol=1e-12)


def test_zero_spec_returns_exact_bit_identical():
    problem, _ = build_least_squares(3, 2, seed=4)
    spec = OracleSpec(delta=0.0, sigma=0.0)
    state = OracleState(spec, (3, 2))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 2))
    sampled = perturb_gradient(problem.grad_stacked(x), state)
    np.testing.assert_array_equal(sampled, problem.grad_stacked(x))


def test_fixed_direction_bias_norm_exact():
    problem, _ = build_least_squares(3, 2, seed=6)
    spec = OracleSpec(delta=0.1, sigma=0.0, bias_mode="fixed-direction")
    state = OracleState(spec, (3, 2))
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 2))
    diff = perturb_gradient(problem.grad_stacked(x), state) \
        - problem.grad_stacked(x)
    assert np.linalg.norm(diff) == pytest.approx(0.1, rel=1e-12)
    # the direction is frozen per run: two calls leave the same bias
    diff2 = perturb_gradient(problem.grad_stacked(x), state) \
        - problem.grad_stacked(x)
    np.testing.assert_array_equal(diff, diff2)


def test_gradient_aligned_bias_norm():
    problem, _ = build_least_squares(3, 2, seed=8)
    spec = OracleSpec(delta=0.35, sigma=0.0, bias_mode="gradient-aligned")
    state = OracleState(spec, (3, 2))
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 2))
    exact = problem.grad_stacked(x)
    diff = perturb_gradient(problem.grad_stacked(x), state) - exact
    assert np.linalg.norm(diff) == pytest.approx(0.35, rel=1e-12)
    cosine = np.sum(diff * exact) / (np.linalg.norm(diff) * np.linalg.norm(exact))
    assert cosine == pytest.approx(1.0, abs=1e-12)


def test_bias_bound_holds_every_call():
    problem, _ = build_least_squares(4, 3, seed=10)
    rng = np.random.default_rng(11)
    for mode, delta in (("fixed-direction", 0.2), ("gradient-aligned", 0.2),
                        ("fixed-direction", 0.0), ("gradient-aligned", 0.0)):
        spec = OracleSpec(delta=delta, sigma=0.0, bias_mode=mode)
        state = OracleState(spec, (4, 3))
        for _ in range(20):
            x = rng.standard_normal((4, 3))
            diff = perturb_gradient(problem.grad_stacked(x), state) \
                - problem.grad_stacked(x)
            assert np.linalg.norm(diff) <= delta * (1.0 + 1e-12)


def test_noise_mean_and_second_moment_monte_carlo():
    n, d = 3, 2
    problem = unit_quadratic(n, d)
    spec = OracleSpec(delta=0.0, sigma=1.0, seed=12)
    state = OracleState(spec, (n, d))
    x = np.ones((n, d))
    exact = problem.grad_stacked(x)
    samples = 10_000
    total = np.zeros_like(exact)
    sq_norms = np.empty(samples)
    for s in range(samples):
        g = perturb_gradient(problem.grad_stacked(x), state)
        total += g
        sq_norms[s] = np.sum((g - exact) ** 2)
    mean_err = np.linalg.norm(total / samples - exact)
    assert mean_err <= 5.0 * np.sqrt(d * n) / 100.0
    second_moment = sq_norms.mean()
    assert second_moment <= 1.1 * spec.sigma ** 2
    # construction targets the bound with equality
    assert 0.9 * spec.sigma ** 2 <= sq_norms[:1000].mean() <= 1.1 * spec.sigma ** 2


def test_identical_seeds_identical_streams():
    problem, _ = build_least_squares(3, 2, seed=13)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 2))
    spec = OracleSpec(delta=0.05, sigma=0.7, seed=42)
    a = [perturb_gradient(problem.grad_stacked(x), OracleState(spec, (3, 2)))
         for _ in range(1)]
    s1, s2 = OracleState(spec, (3, 2)), OracleState(spec, (3, 2))
    for _ in range(5):
        np.testing.assert_array_equal(
            perturb_gradient(problem.grad_stacked(x), s1),
            perturb_gradient(problem.grad_stacked(x), s2))


def test_averaged_oracle_bias_within_lemma_bound():
    # with ||X - Xbar||^2 held at delta', the averaged oracle's bias against
    # the mean-point gradient obeys (2 delta^2 + 2 L_l^2 delta') / n
    problem, profile = build_least_squares(4, 3, seed=15)
    n = problem.n
    delta, delta_prime = 0.1, 1e-3
    rng = np.random.default_rng(16)
    xbar = rng.standard_normal(3)
    dev = rng.standard_normal((4, 3))
    dev -= dev.mean(axis=0)
    dev *= np.sqrt(delta_prime) / np.linalg.norm(dev)
    x = np.tile(xbar, (4, 1)) + dev
    spec = OracleSpec(delta=delta, sigma=0.0, seed=17)
    state = OracleState(spec, (4, 3))
    sampled_mean = perturb_gradient(problem.grad_stacked(x), state).mean(axis=0)
    bias_sq = float(np.sum((sampled_mean - problem.grad_f(xbar)) ** 2))
    bound = (2.0 * delta ** 2 + 2.0 * profile.L_l ** 2 * delta_prime) / n
    assert bias_sq <= bound * (1.0 + 1e-9)


def test_mean_projection_of_noise_small():
    # isotropic noise contributes only sigma^2/n^2 to the averaged oracle
    n, d = 4, 3
    problem = unit_quadratic(n, d)
    spec = OracleSpec(delta=0.0, sigma=0.8, seed=18)
    state = OracleState(spec, (n, d))
    x = np.zeros((n, d))
    sq = []
    for _ in range(4000):
        g = perturb_gradient(problem.grad_stacked(x), state)
        sq.append(np.sum(average_projection(g).mean(axis=0) ** 2))
    assert np.mean(sq) <= 1.2 * spec.sigma ** 2 / n ** 2


def test_spec_validation():
    with pytest.raises(ValueError):
        OracleSpec(delta=-1.0)
    with pytest.raises(ValueError):
        OracleSpec(bias_mode="martian")
    with pytest.raises(ValueError):
        OracleSpec(sigma=-1.0)
    with pytest.raises(ValueError):
        OracleSpec(bias_mode="zero")  # bias is off only at delta = 0


def test_dimension_mismatch_rejected():
    problem, _ = build_least_squares(3, 2, seed=19)
    with pytest.raises(ValueError):
        problem.grad_stacked(np.zeros((3, 5)))
    spec = OracleSpec(delta=0.1, sigma=0.0, seed=0)
    state = OracleState(spec, (4, 2))
    with pytest.raises(ValueError, match="shape"):
        perturb_gradient(problem.grad_stacked(np.zeros((3, 2))), state)


def _reference_perturb(grad, spec, bias_dir, rng):
    """The oracle formula as first written, with every term formed per call."""
    out = grad.copy()
    if spec.delta > 0:
        if spec.bias_mode == "fixed-direction":
            out += spec.delta * bias_dir
        else:  # gradient-aligned
            norm = np.linalg.norm(grad)
            if norm > 0:
                out += (spec.delta / norm) * grad
    if spec.sigma > 0:
        scale = spec.sigma / np.sqrt(grad.size)
        out += scale * rng.standard_normal(grad.shape)
    return out


# the case ids name the bias and noise each case switches on ("zero": off,
# through delta = 0 or sigma = 0)
@pytest.mark.parametrize("bias_mode, delta", [("fixed-direction", 0.3),
                                              ("gradient-aligned", 0.3),
                                              ("fixed-direction", 0.0)],
                         ids=["fixed-direction", "gradient-aligned", "zero"])
@pytest.mark.parametrize("sigma", [0.7, 0.0], ids=["gaussian-isotropic", "zero"])
def test_precomputed_oracle_terms_return_the_reference_bits(bias_mode, delta, sigma):
    # OracleState precomputes delta * bias_dir and sigma / sqrt(size); two
    # consecutive calls must equal the per-call formula, noise stream included
    spec = OracleSpec(delta=delta, sigma=sigma, bias_mode=bias_mode, seed=11)
    shape = (5, 3)
    state = OracleState(spec, shape, stream=1)
    rng = np.random.default_rng([spec.seed, 1])
    bias_dir = None
    if bias_mode == "fixed-direction" and delta > 0:
        v = rng.standard_normal(shape)
        bias_dir = v / np.linalg.norm(v)
    grads = np.random.default_rng(4).standard_normal((2,) + shape)
    for grad in grads:
        expected = _reference_perturb(grad, spec, bias_dir, rng)
        np.testing.assert_array_equal(perturb_gradient(grad, state), expected)
