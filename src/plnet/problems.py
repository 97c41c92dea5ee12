"""
Distributed problem instances with exact gradients and analytic solutions.

Two families are provided, both with standard-normal data split across
``n`` nodes:

* least squares -- node ``i`` holds ``0.5 * ||A_i x - y0_i||**2``; the
  average objective satisfies the PL condition with the smallest nonzero
  eigenvalue of the averaged normal matrix, and the minimizer comes from
  the pseudoinverse.
* robust least squares with a soft constraint -- node ``i`` holds
  ``0.5 * ||A_i x - y0_i - B_i y||**2 - 0.5 * alpha * ||B_i y||**2`` with
  ``alpha > 1``, a convex-concave saddle problem whose stationarity system
  is linear and solved in closed form.

Both answer one interface in x: ``f``, ``grad_f``, ``value_and_grad``
(both at once, from one residual or one inner solve), its constant
``hessian``, ``f_star``, ``optimum`` (one point per block), ``profile``
and ``grad_stacked_at_opt()``. On robust least squares ``f`` is the
max-function ``max_y phi(x, y)``, PL in x under the two-sided PL condition.

Smoothness and PL constants are computed from eigenvalues. PL constants
are normalized by ``1/n`` so they match the averaged objective exactly.
Per-node smoothness constants come from one stacked ``eigvalsh`` or ``svd``
call over the per-node blocks, and ``pl_qg_report`` draws all its samples
at once and makes one batched call per quantity.

The stacked gradients, one row per node, are what the decentralized
runners call on every local step. Both families are quadratic, so row
``i`` is an affine map of node ``i``'s state, and each constructor
precomputes its per-node blocks once: the Gram block ``A_i^T A_i`` and
``A_i^T y0_i`` for least squares; for robust least squares the blocks of
``A_i^T A_i``, ``A_i^T B_i``, ``(alpha - 1) B_i^T B_i`` acting on the
concatenated state ``[x_i, y_i]``, plus ``A_i^T y0_i`` and ``B_i^T y0_i``.
A stacked gradient is then one batched matrix product whose cost does not
depend on the number of data rows ``d_i``. Objective values, averaged
gradients and per-node gradients stay on the raw data: a Gram-form value
would cancel badly in ``f - f*``.

Objective values and averaged gradients (``f``, ``grad_f``,
``value_and_grad``, ``phi``, ``grad_x``, ``grad_y``) and ``y_star_of``
broadcast over leading axes: an ``(R, d)`` stack of points gives ``R``
values or an ``(R, d)`` stack of gradients, each equal bit for bit to the
call on its row (``y_star_of`` only while ``d_y`` is small; see there),
while a single point keeps giving a Python float from ``f`` and ``phi``. The runners use this to evaluate a
whole trace in one call per column.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "LeastSquaresProblem",
    "RobustLeastSquaresProblem",
    "SmoothnessProfile",
    "SaddleSmoothness",
    "SaddlePoint",
    "SingularSystemError",
    "build_least_squares",
    "build_robust_ls",
    "pl_qg_report",
    "row_norms",
]

EIG_RELATIVE_TOL = 1e-10
MU_CLAMP_RELATIVE_TOL = 1e-12
SADDLE_RESIDUAL_TOL = 1e-9  # relative gradient residual of an analytic saddle
SAMPLE_SPREAD = 1.0  # scale of pl_qg_report's Gaussian samples around the optimum
PL_QG_TOL = 1e-9  # sampled ratio excess above 1 that PLQGReport.ok reads as rounding


class SingularSystemError(np.linalg.LinAlgError):
    """Raised when a stationarity system has no stationary point."""


def _smallest_nonzero_eig(h):
    """Smallest nonzero eigenvalue of a symmetric PSD matrix, or None."""
    eigs = np.linalg.eigvalsh(h)
    top = eigs[-1]
    if top <= 0:
        return None
    nz = eigs[eigs > top * EIG_RELATIVE_TOL]
    return float(nz[0]) if nz.size else None


def _range_distance_sq(h, v):
    """Squared norms of the row projections of v onto the range of symmetric h.

    One ``eigh`` serves every row; a vanishing ``h`` gives norms of 0.
    """
    eigvals, eigvecs = np.linalg.eigh(h)
    coords = eigvecs[:, eigvals > eigvals[-1] * EIG_RELATIVE_TOL].T @ v[..., None]
    return (coords.transpose(0, 2, 1) @ coords)[:, 0, 0]


def _value(v):
    """A Python float for one point; the array of values for a batch."""
    return float(v) if np.ndim(v) == 0 else v


def row_norms(g):
    """Euclidean norms of ``g`` along its last axis.

    Each norm is summed as ``np.linalg.norm`` sums a single vector, by a
    BLAS dot, so entry ``r`` equals ``np.linalg.norm(g[r])`` bit for bit
    (``np.linalg.norm(g, axis=-1)`` can differ from it by an ULP).
    """
    g = np.asarray(g, dtype=float)
    return np.sqrt(np.matmul(g[..., None, :], g[..., :, None]))[..., 0, 0]


def _affine_rows(state, blocks, shift):
    """Row-wise ``state_i @ blocks_i + shift_i``: one batched matrix product.

    ``state`` is ``(n, d_in)``, ``blocks`` ``(n, d_in, d_out)`` and ``shift``
    ``(n, d_out)``.
    """
    n, _, d_out = blocks.shape
    return np.matmul(state[:, None, :], blocks).reshape(n, d_out) + shift


@dataclass(frozen=True)
class SmoothnessProfile:
    """Per-node and aggregate smoothness constants plus the PL constant.

    ``L_l`` is the largest per-node gradient Lipschitz constant, ``L_g``
    their mean, and ``mu`` the PL constant of the averaged objective.
    ``SIDECAR`` names the constants a run's sidecar lists, the PL constant
    of ``f`` first.
    """

    SIDECAR = ("mu", "L_l", "L_g")

    L_per_node: tuple
    mu: float

    @property
    def n(self):
        return len(self.L_per_node)

    @property
    def L_l(self):
        return max(self.L_per_node)

    @property
    def L_g(self):
        return sum(self.L_per_node) / len(self.L_per_node)

    def __post_init__(self):
        if not (self.L_l >= self.L_g >= self.mu > 0):
            raise ValueError(
                f"expected L_l >= L_g >= mu > 0, got "
                f"{self.L_l} >= {self.L_g} >= {self.mu}")


@dataclass(frozen=True)
class SaddleSmoothness:
    """Block smoothness constants and two-sided PL constants.

    Per-node constants come from operator norms of the data blocks; ``_l``
    values are maxima over nodes and ``_g`` values means. ``mu_x`` and
    ``mu_y`` are smallest nonzero eigenvalues of the averaged curvature
    blocks (``mu_y`` includes the ``alpha - 1`` concavity factor). ``mu_y``
    is ``None`` for the degenerate case of vanishing coupling blocks.
    ``SIDECAR`` names the constants a run's sidecar lists, the PL constant
    ``mu_x`` of the max-function first.
    """

    SIDECAR = ("mu_x", "mu_y", "L_x", "L_xx_g", "L_xy_g", "L_yx_g", "L_yy_g",
               "L_xx_l", "L_xy_l", "L_yx_l", "L_yy_l")

    L_xx_per_node: tuple
    L_xy_per_node: tuple
    L_yx_per_node: tuple
    L_yy_per_node: tuple
    mu_x: float
    mu_y: float | None

    @property
    def n(self):
        return len(self.L_xx_per_node)

    def local(self, ab):
        return max(getattr(self, f"L_{ab}_per_node"))

    def mean(self, ab):
        vals = getattr(self, f"L_{ab}_per_node")
        return sum(vals) / len(vals)

    @property
    def L_xx_l(self):
        return self.local("xx")

    @property
    def L_xy_l(self):
        return self.local("xy")

    @property
    def L_yx_l(self):
        return self.local("yx")

    @property
    def L_yy_l(self):
        return self.local("yy")

    @property
    def L_xx_g(self):
        return self.mean("xx")

    @property
    def L_xy_g(self):
        return self.mean("xy")

    @property
    def L_yx_g(self):
        return self.mean("yx")

    @property
    def L_yy_g(self):
        return self.mean("yy")

    @property
    def L_x(self):
        """Smoothness constant of the max-function, from the block constants."""
        if self.mu_y is None:
            return self.L_xx_g
        return self.L_xx_g + self.L_xy_g / self.mu_y


@dataclass(frozen=True)
class SaddlePoint:
    x: np.ndarray
    y: np.ndarray
    value: float
    min_norm: bool


class LeastSquaresProblem:
    """Distributed least squares: node i holds 0.5*||A_i x - y0_i||^2."""

    def __init__(self, A, y0):
        self.A = np.asarray(A, dtype=float)
        self.y0 = np.asarray(y0, dtype=float)
        if self.A.ndim != 3 or self.y0.shape != self.A.shape[:2]:
            raise ValueError("A must be (n, d_i, d) and y0 (n, d_i)")
        self.n, self.d_i, self.d = self.A.shape
        if 0 in (self.n, self.d):
            raise ValueError("need at least one node and one variable")
        self.hessian = np.einsum("nij,nik->jk", self.A, self.A) / self.n
        self._rhs = np.einsum("nij,ni->j", self.A, self.y0) / self.n
        # node i's gradient is x_i @ A_i^T A_i - A_i^T y0_i (Gram blocks are
        # symmetric, so the row form equals A_i^T A_i x_i)
        self._gram = self.A.transpose(0, 2, 1) @ self.A
        self._gram_shift = -(self.y0[:, None, :] @ self.A)[:, 0]

    # objective and gradients -------------------------------------------------

    def _residual(self, x):
        return np.einsum("nij,...j->...ni", self.A, x) - self.y0

    def _value_of(self, r):
        return _value(0.5 * np.sum(r * r, axis=(-2, -1)) / self.n)

    def _grad_of(self, r):
        return np.einsum("nij,...ni->...j", self.A, r) / self.n

    def f(self, x):
        return self._value_of(self._residual(x))

    def grad_f(self, x):
        return self._grad_of(self._residual(x))

    def value_and_grad(self, x):
        """``(f(x), grad_f(x))``, the same bits, from one residual."""
        r = self._residual(x)
        return self._value_of(r), self._grad_of(r)

    def node_value(self, i, x):
        r = self.A[i] @ x - self.y0[i]
        return 0.5 * float(r @ r)

    def node_grad(self, i, x):
        return self.A[i].T @ (self.A[i] @ x - self.y0[i])

    def grad_stacked(self, x_stack):
        if x_stack.shape != (self.n, self.d):
            raise ValueError(f"stacked state must be ({self.n}, {self.d})")
        return _affine_rows(x_stack, self._gram, self._gram_shift)

    # analytic solution -------------------------------------------------------

    @cached_property
    def minimizer(self):
        return np.linalg.pinv(self.hessian) @ self._rhs

    @cached_property
    def f_star(self):
        return self.f(self.minimizer)

    @property
    def optimum(self):
        return (self.minimizer,)

    def grad_stacked_at_opt(self):
        return self.grad_stacked(np.tile(self.minimizer, (self.n, 1)))

    @cached_property
    def profile(self):
        per_node = tuple(np.linalg.eigvalsh(self._gram)[:, -1].tolist())
        mu = _smallest_nonzero_eig(self.hessian)
        if mu is None:
            raise ValueError("objective is identically constant; no PL constant")
        # mu <= L_g always holds; at d = 1 they are equal and eigenvalue
        # rounding can put mu an ULP above L_g
        L_g = sum(per_node) / len(per_node)
        if L_g < mu <= L_g * (1.0 + MU_CLAMP_RELATIVE_TOL):
            mu = L_g
        return SmoothnessProfile(L_per_node=per_node, mu=mu)


class RobustLeastSquaresProblem:
    """Distributed robust least squares with a soft constraint.

    Node i holds
    ``0.5*||A_i x - y0_i - B_i y||^2 - 0.5*alpha*||B_i y||^2`` for a
    coefficient ``alpha > 1``, convex in x and concave in y.
    """

    def __init__(self, A, B, y0, alpha):
        if alpha <= 1:
            raise ValueError("alpha must be > 1 for concavity in y")
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.y0 = np.asarray(y0, dtype=float)
        self.alpha = float(alpha)
        if self.A.ndim != 3 or self.B.ndim != 3:
            raise ValueError("A and B must be (n, d_i, d_x) and (n, d_i, d_y)")
        if self.A.shape[:2] != self.B.shape[:2] or self.y0.shape != self.A.shape[:2]:
            raise ValueError("A, B and y0 must agree on (n, d_i)")
        self.n, self.d_i, self.d_x = self.A.shape
        self.d_y = self.B.shape[2]
        if 0 in (self.n, self.d_x, self.d_y):
            raise ValueError("need at least one node and one variable per block")
        # aggregated data blocks (plain sums over nodes)
        self.SA = np.einsum("nij,nik->jk", self.A, self.A)
        self.SB = np.einsum("nij,nik->jk", self.B, self.B)
        self.SAB = np.einsum("nij,nik->jk", self.A, self.B)
        self.a_vec = np.einsum("nij,ni->j", self.A, self.y0)
        self.b_vec = np.einsum("nij,ni->j", self.B, self.y0)
        if not np.isfinite(self.alpha * float(np.linalg.norm(self.SB))):  # SB >= each B_i^T B_i
            raise ValueError(f"alpha={self.alpha!r} overflows its products with B_i^T B_i")
        # per-node blocks acting on the concatenated row s_i = [x_i, y_i]:
        #   grad_x row i = s_i @ [A_i^T A_i; -B_i^T A_i] - A_i^T y0_i
        #   grad_y row i = s_i @ [-A_i^T B_i; -(alpha - 1) B_i^T B_i] + B_i^T y0_i
        # all cut from the Gram blocks of the joint data [A_i, B_i]
        joint = np.concatenate((self.A, self.B), axis=2)
        gram = joint.transpose(0, 2, 1) @ joint
        rhs = (self.y0[:, None, :] @ joint)[:, 0]
        d_x = self.d_x
        ata, atb = gram[:, :d_x, :d_x], gram[:, :d_x, d_x:]
        bta, btb = gram[:, d_x:, :d_x], gram[:, d_x:, d_x:]
        self._x_blocks = np.concatenate((ata, -bta), axis=1)
        self._y_blocks = np.concatenate((-atb, (1.0 - self.alpha) * btb), axis=1)
        self._x_shift = -rhs[:, :d_x]
        self._y_shift = rhs[:, d_x:]

    # objective and gradients -------------------------------------------------

    def _residual(self, x, y):
        return (np.einsum("nij,...j->...ni", self.A, x) - self.y0
                - np.einsum("nij,...j->...ni", self.B, y))

    def phi(self, x, y):
        r = self._residual(x, y)
        by = np.einsum("nij,...j->...ni", self.B, y)
        return _value(0.5 * (np.sum(r * r, axis=(-2, -1))
                             - self.alpha * np.sum(by * by, axis=(-2, -1))) / self.n)

    def grad_x(self, x, y):
        r = self._residual(x, y)
        return np.einsum("nij,...ni->...j", self.A, r) / self.n

    def grad_y(self, x, y):
        r = self._residual(x, y)
        by = np.einsum("nij,...j->...ni", self.B, y)
        return -(np.einsum("nij,...ni->...j", self.B, r)
                 + self.alpha * np.einsum("nij,...ni->...j", self.B, by)) / self.n

    def node_grad_x(self, i, x, y):
        return self.A[i].T @ (self.A[i] @ x - self.y0[i] - self.B[i] @ y)

    def node_grad_y(self, i, x, y):
        r = self.A[i] @ x - self.y0[i] - self.B[i] @ y
        return -self.B[i].T @ r - self.alpha * self.B[i].T @ (self.B[i] @ y)

    def _joint_rows(self, x_stack, y_stack):
        """The rows ``[x_i, y_i]`` the stacked-gradient blocks act on."""
        if x_stack.shape != (self.n, self.d_x) or y_stack.shape != (self.n, self.d_y):
            raise ValueError(f"stacked states must be ({self.n}, {self.d_x}) "
                             f"and ({self.n}, {self.d_y})")
        return np.concatenate((x_stack, y_stack), axis=1)

    def grad_x_stacked(self, x_stack, y_stack):
        return _affine_rows(self._joint_rows(x_stack, y_stack),
                            self._x_blocks, self._x_shift)

    def grad_y_stacked(self, x_stack, y_stack):
        return _affine_rows(self._joint_rows(x_stack, y_stack),
                            self._y_blocks, self._y_shift)

    # inner maximization and the max-function ---------------------------------

    def y_star_of(self, x):
        """Maximizer of phi(x, .), minimum-norm when the system is singular.

        A stack of points is solved as one least-squares system with one
        right-hand side per point. LAPACK may round that solve differently
        from a one-point solve once ``d_y`` is large (from 8 on with
        OpenBLAS 0.3.31), so there the rows match the per-point maximizers
        to rounding only. The result is C-contiguous: ``einsum`` can round a
        strided operand differently, so ``phi`` of a transposed solution
        would not match the per-point values.
        """
        rhs = self.b_vec - (self.SAB.T @ np.asarray(x)[..., None])[..., 0]
        sol, *_ = np.linalg.lstsq((self.alpha - 1.0) * self.SB,
                                  rhs.reshape(-1, self.d_y).T, rcond=None)
        return np.ascontiguousarray(sol.T).reshape(rhs.shape)

    def f(self, x):
        """Value of the max-function f(x) = max_y phi(x, y)."""
        return self.phi(x, self.y_star_of(x))

    def grad_f(self, x):
        """Gradient of the max-function via the inner maximizer (Danskin)."""
        return self.grad_x(x, self.y_star_of(x))

    def value_and_grad(self, x):
        """``(f(x), grad_f(x))``, the same bits, from one inner solve."""
        y = self.y_star_of(x)
        return self.phi(x, y), self.grad_x(x, y)

    @cached_property
    def hessian(self):
        """Hessian of the max-function (constant for this quadratic family)."""
        c = self.SAB.T  # d_y x d_x coupling block
        return (self.SA + c.T @ (np.linalg.pinv((self.alpha - 1.0) * self.SB) @ c)) / self.n

    def y_hessian_neg(self):
        """Hessian of the concavity gap -phi(x, .) (x-independent)."""
        return (self.alpha - 1.0) * self.SB / self.n

    # analytic saddle ----------------------------------------------------------

    @cached_property
    def saddle(self):
        """Solve the joint stationarity system of the instance.

        The system is linear and symmetric; a minimum-norm solution is taken
        (and flagged) when it is singular. Raises ``SingularSystemError`` if no
        stationary point exists at all.
        """
        d_x, d_y = self.d_x, self.d_y
        m = np.zeros((d_x + d_y, d_x + d_y))
        m[:d_x, :d_x] = self.SA
        m[:d_x, d_x:] = -self.SAB
        m[d_x:, :d_x] = -self.SAB.T
        m[d_x:, d_x:] = (1.0 - self.alpha) * self.SB
        rhs = np.concatenate([self.a_vec, -self.b_vec])
        sol, _, rank, _ = np.linalg.lstsq(m, rhs, rcond=None)
        x_star, y_star = sol[:d_x], sol[d_x:]
        res_x = float(np.linalg.norm(self.grad_x(x_star, y_star)))
        res_y = float(np.linalg.norm(self.grad_y(x_star, y_star)))
        scale = max(1.0, float(np.linalg.norm(rhs)) / self.n)
        if max(res_x, res_y) > SADDLE_RESIDUAL_TOL * scale:
            raise SingularSystemError(
                f"stationarity system inconsistent: gradient residuals "
                f"({res_x:.3e}, {res_y:.3e})")
        return SaddlePoint(x=x_star, y=y_star, value=self.phi(x_star, y_star),
                           min_norm=rank < d_x + d_y)

    @property
    def f_star(self):
        """The max-function's minimum, phi at the saddle."""
        return self.saddle.value

    @property
    def optimum(self):
        return (self.saddle.x, self.saddle.y)

    def grad_stacked_at_opt(self):
        """Stacked x-gradients at the saddle, where f has its minimizer."""
        s = self.saddle
        return self.grad_x_stacked(np.tile(s.x, (self.n, 1)),
                                   np.tile(s.y, (self.n, 1)))

    def grad_y_stacked_at_inner_opt(self, x):
        """Stacked y-gradients at (x, y*(x)); rows are nonzero, their mean is 0."""
        ys = self.y_star_of(x)
        return self.grad_y_stacked(np.tile(x, (self.n, 1)),
                                   np.tile(ys, (self.n, 1)))

    @cached_property
    def profile(self):
        a_t = self.A.transpose(0, 2, 1)
        btb = self.B.transpose(0, 2, 1) @ self.B
        lxx = tuple(np.linalg.eigvalsh(a_t @ self.A)[:, -1].tolist())
        lyy = tuple(((self.alpha - 1.0) * np.linalg.eigvalsh(btb)[:, -1]).tolist())
        cross = tuple(np.linalg.svd(a_t @ self.B, compute_uv=False)[:, 0].tolist())
        mu_x = _smallest_nonzero_eig(self.SA / self.n)
        if mu_x is None:
            raise ValueError("x-block curvature vanishes; no PL constant")
        mu_y = _smallest_nonzero_eig(self.y_hessian_neg())
        return SaddleSmoothness(
            L_xx_per_node=lxx, L_xy_per_node=cross,
            L_yx_per_node=cross, L_yy_per_node=lyy,
            mu_x=mu_x, mu_y=mu_y)

    def dist_to_saddle(self, x, y):
        s = self.saddle
        return float(np.sqrt(np.linalg.norm(x - s.x) ** 2
                             + np.linalg.norm(y - s.y) ** 2))


def build_least_squares(n, d, d_i=None, seed=0, identity=False):
    """Generate a distributed least squares instance and its profile.

    Data matrices and targets are standard normal; ``identity=True``
    replaces every ``A_i`` with the identity, giving the unit quadratic
    family (all smoothness constants and the PL constant equal 1).

    Returns
    -------
    (LeastSquaresProblem, SmoothnessProfile)
    """
    if n < 1 or d < 1:
        raise ValueError("dimensions must be positive")
    d_i = d if d_i is None else d_i
    rng = np.random.default_rng(seed)
    if identity:
        if d_i != d:
            raise ValueError("identity instance requires d_i == d")
        A = np.tile(np.eye(d), (n, 1, 1))
    else:
        A = rng.standard_normal((n, d_i, d))
    y0 = rng.standard_normal((n, d_i))
    problem = LeastSquaresProblem(A, y0)
    return problem, problem.profile


def build_robust_ls(n, d_x, d_y, d_i=None, alpha=2.0, seed=0):
    """Generate a robust least squares saddle instance and its profile.

    All data is standard normal; ``alpha`` must exceed 1 so the objective
    is concave in the adversarial variable.

    Returns
    -------
    (RobustLeastSquaresProblem, SaddleSmoothness)
    """
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    if min(n, d_x, d_y) < 1:
        raise ValueError("dimensions must be positive")
    d_i = d_x if d_i is None else d_i
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d_i, d_x))
    B = rng.standard_normal((n, d_i, d_y))
    y0 = rng.standard_normal((n, d_i))
    problem = RobustLeastSquaresProblem(A, B, y0, alpha)
    return problem, problem.profile


@dataclass
class PLQGReport:
    """Largest sampled violation ratios for the PL and QG inequalities."""

    max_pl_ratio: float
    max_qg_ratio: float
    max_pl_ratio_y: float | None = None
    max_qg_ratio_y: float | None = None

    def ok(self):
        vals = [self.max_pl_ratio, self.max_qg_ratio,
                self.max_pl_ratio_y, self.max_qg_ratio_y]
        return all(v is None or v <= 1.0 + PL_QG_TOL for v in vals)


def pl_qg_report(problem, num_points=100, seed=0):
    """Sample the PL and QG inequalities on a built instance.

    The x-side checks run on ``f`` (the max-function of a saddle instance,
    its inner problem solved exactly per sample) with the profile's PL
    constant, around the minimizer ``optimum[0]``. A saddle instance with a
    y-side PL constant adds the y-side checks, on the concave inner
    objective at each sampled x. All samples are drawn at once, one row per
    sample (the columns of ``x``, then of ``y`` if there is a y-side), and
    every quantity is one batched call over them. Ratios at most 1 mean the
    inequalities hold; tiny excursions above 1 are floating point noise.
    """
    rng = np.random.default_rng(seed)
    tiny = 1e-12

    def worst(gap, grad, h, disp, mu):
        grad_sq = np.sum(grad ** 2, axis=-1)
        dist_sq = _range_distance_sq(h, disp)
        pl = np.divide(2.0 * mu * gap, grad_sq, out=np.zeros_like(gap),
                       where=grad_sq > tiny)
        qg = np.divide(mu * dist_sq, 2.0 * gap, out=np.zeros_like(gap),
                       where=gap > tiny)
        return float(np.max(pl, initial=0.0)), float(np.max(qg, initial=0.0))

    prof, (x_star, *y_block) = problem.profile, problem.optimum
    y_side = bool(y_block) and prof.mu_y is not None
    d_x = x_star.size
    draws = rng.standard_normal((num_points, d_x + (y_block[0].size if y_side else 0)))
    xs = x_star + SAMPLE_SPREAD * draws[:, :d_x]
    f_xs, grad_xs = problem.value_and_grad(xs)
    report = PLQGReport(*worst(f_xs - problem.f_star, grad_xs, problem.hessian,
                               xs - x_star, getattr(prof, prof.SIDECAR[0])))
    if y_side:
        ys_star = problem.y_star_of(xs)
        ys = ys_star + SAMPLE_SPREAD * draws[:, d_x:]
        report.max_pl_ratio_y, report.max_qg_ratio_y = worst(
            f_xs - problem.phi(xs, ys), problem.grad_y(xs, ys),
            problem.y_hessian_neg(), ys - ys_star, prof.mu_y)
    return report
