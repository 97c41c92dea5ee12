"""
Biased and noisy gradient oracles for stacked per-node gradients.

An oracle perturbs the exact stacked gradient ``G`` with a bias term of
Frobenius norm at most ``delta`` and zero-mean noise whose expected squared
Frobenius norm is exactly ``sigma**2``. Bias and noise budgets are
interpreted on the full stacked gradient. With ``delta = sigma = 0`` the
oracle returns the exact gradient bit-identically.

:class:`OracleState` computes once per run what every call reuses: the
fixed-direction bias ``delta * direction`` as an array, and the noise scale
``sigma / sqrt(size)`` of the gradient shape. :func:`perturb_gradient` adds
them in the order it always has, so it returns the same bits and draws the
same noise stream as when it formed them on every call.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["OracleSpec", "OracleState", "perturb_gradient"]

BIAS_MODES = ("fixed-direction", "gradient-aligned")


@dataclass(frozen=True)
class OracleSpec:
    """Bias/noise model for a gradient oracle.

    ``delta`` bounds the bias norm and ``sigma**2`` is the noise second
    moment; bias is off exactly when ``delta == 0`` and noise exactly when
    ``sigma == 0``, the test the theory budgets apply. ``fixed-direction``
    bias uses one unit direction drawn from the seed per run;
    ``gradient-aligned`` scales the normalized current gradient, giving a
    persistent adversarial bias.
    """

    delta: float = 0.0
    sigma: float = 0.0
    bias_mode: str = "fixed-direction"
    seed: int = 0

    def __post_init__(self):
        if self.delta < 0 or self.sigma < 0:
            raise ValueError("delta and sigma must be >= 0")
        if self.bias_mode not in BIAS_MODES:
            raise ValueError(f"bias_mode must be one of {BIAS_MODES}")

    @property
    def exact(self):
        return self.delta == 0.0 and self.sigma == 0.0


class OracleState:
    """Per-run RNG stream and fixed bias direction for one gradient shape.

    ``stream`` separates independent oracles inside one run (e.g. the two
    variable blocks of a saddle problem) while staying reproducible from the
    single spec seed. ``bias`` is ``delta`` times a unit direction drawn
    from the stream (None unless the fixed-direction bias is on) and
    ``noise_scale`` is ``sigma / sqrt(size)`` (None unless the noise is on).
    """

    def __init__(self, spec, shape, stream=0):
        self.spec = spec
        self.shape = tuple(shape)
        self.rng = np.random.default_rng([spec.seed, stream])
        self.bias = self.noise_scale = None
        if spec.bias_mode == "fixed-direction" and spec.delta > 0:
            v = self.rng.standard_normal(self.shape)
            self.bias = spec.delta * (v / np.linalg.norm(v))
        if spec.sigma > 0:
            self.noise_scale = spec.sigma / np.sqrt(np.prod(self.shape))


def perturb_gradient(grad, state):
    """One oracle call: the bias and noise of ``state.spec`` on a stacked gradient.

    The bias norm is at most ``spec.delta`` deterministically; the noise is
    isotropic Gaussian scaled so its expected squared norm equals
    ``spec.sigma**2``. Identical seeds reproduce identical streams.
    """
    spec = state.spec
    if spec.exact:
        return grad
    if state.shape != grad.shape:
        raise ValueError(f"oracle state shape {state.shape} != gradient shape {grad.shape}")
    out = grad.copy()
    if state.bias is not None:
        out += state.bias
    elif spec.delta > 0:  # gradient-aligned
        norm = np.linalg.norm(grad)
        if norm > 0:
            out += (spec.delta / norm) * grad
    if state.noise_scale is not None:
        out += state.noise_scale * state.rng.standard_normal(grad.shape)
    return out
