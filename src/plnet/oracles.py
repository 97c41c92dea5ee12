"""
Biased and noisy gradient oracles for stacked per-node gradients.

An oracle perturbs the exact stacked gradient ``G`` with a bias term of
Frobenius norm at most ``delta`` and zero-mean noise whose expected squared
Frobenius norm is exactly ``sigma**2``. Bias and noise budgets are
interpreted on the full stacked gradient. With ``delta = sigma = 0`` the
oracle returns the exact gradient bit-identically.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["OracleSpec", "OracleState", "perturb_gradient"]

BIAS_MODES = ("fixed-direction", "gradient-aligned", "zero")
NOISE_MODES = ("gaussian-isotropic", "zero")


@dataclass(frozen=True)
class OracleSpec:
    """Bias/noise model for a gradient oracle.

    ``delta`` bounds the bias norm (attained exactly by the non-zero bias
    modes), ``sigma**2`` is the noise second moment. ``fixed-direction``
    bias uses one unit direction drawn from the seed per run;
    ``gradient-aligned`` scales the normalized current gradient, giving a
    persistent adversarial bias.
    """

    delta: float = 0.0
    sigma: float = 0.0
    bias_mode: str = "fixed-direction"
    noise_mode: str = "gaussian-isotropic"
    seed: int = 0

    def __post_init__(self):
        if self.delta < 0 or self.sigma < 0:
            raise ValueError("delta and sigma must be >= 0")
        if self.bias_mode not in BIAS_MODES:
            raise ValueError(f"bias_mode must be one of {BIAS_MODES}")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}")

    @property
    def exact(self):
        return self.delta == 0.0 and self.sigma == 0.0


class OracleState:
    """Per-run RNG stream and fixed bias direction for one gradient shape.

    ``stream`` separates independent oracles inside one run (e.g. the two
    variable blocks of a saddle problem) while staying reproducible from the
    single spec seed.
    """

    def __init__(self, spec, shape, stream=0):
        self.spec = spec
        self.shape = tuple(shape)
        self.rng = np.random.default_rng([spec.seed, stream])
        if spec.bias_mode == "fixed-direction" and spec.delta > 0:
            v = self.rng.standard_normal(self.shape)
            self.bias_dir = v / np.linalg.norm(v)
        else:
            self.bias_dir = None


def perturb_gradient(grad, spec, state):
    """One oracle call: a spec's bias and noise on an exact stacked gradient.

    The bias norm is at most ``spec.delta`` deterministically; the noise is
    isotropic Gaussian scaled so its expected squared norm equals
    ``spec.sigma**2``. Identical seeds reproduce identical streams.
    """
    if spec.exact:
        return grad
    if state.shape != grad.shape:
        raise ValueError(f"oracle state shape {state.shape} != gradient shape {grad.shape}")
    out = grad.copy()
    if spec.delta > 0 and spec.bias_mode != "zero":
        if spec.bias_mode == "fixed-direction":
            out += spec.delta * state.bias_dir
        else:  # gradient-aligned
            norm = np.linalg.norm(grad)
            if norm > 0:
                out += (spec.delta / norm) * grad
    if spec.sigma > 0 and spec.noise_mode != "zero":
        scale = spec.sigma / np.sqrt(grad.size)
        out += scale * state.rng.standard_normal(grad.shape)
    return out
