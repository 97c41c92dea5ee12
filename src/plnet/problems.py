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

Smoothness and PL constants are computed from eigenvalues. PL constants
are normalized by ``1/n`` so they match the averaged objective exactly;
the unnormalized values (eigenvalues of the plain sums) are recorded
alongside.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LeastSquaresProblem",
    "RobustLeastSquaresProblem",
    "SmoothnessProfile",
    "SaddleSmoothness",
    "SaddlePoint",
    "InnerObjective",
    "SingularSystemError",
    "build_least_squares",
    "build_robust_ls",
    "analytic_saddle",
    "inner_objective",
    "pl_qg_report",
]

EIG_RELATIVE_TOL = 1e-10


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
    """Squared norm of the projection of v onto the range of symmetric h."""
    eigvals, eigvecs = np.linalg.eigh(h)
    top = eigvals[-1]
    if top <= 0:
        return 0.0
    mask = eigvals > top * EIG_RELATIVE_TOL
    coords = eigvecs[:, mask].T @ v
    return float(coords @ coords)


@dataclass(frozen=True)
class SmoothnessProfile:
    """Per-node and aggregate smoothness constants plus the PL constant.

    ``L_l`` is the largest per-node gradient Lipschitz constant, ``L_g``
    their mean, and ``mu`` the PL constant of the averaged objective.
    ``mu_unnormalized`` is the same eigenvalue without the ``1/n`` factor.
    """

    L_per_node: tuple
    mu: float
    mu_unnormalized: float

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
    blocks (``mu_y`` includes the ``alpha - 1`` concavity factor); both are
    also recorded without the ``1/n`` normalization. ``mu_y`` is ``None``
    for the degenerate case of vanishing coupling blocks.
    """

    L_xx_per_node: tuple
    L_xy_per_node: tuple
    L_yx_per_node: tuple
    L_yy_per_node: tuple
    mu_x: float
    mu_y: float | None
    mu_x_unnormalized: float
    mu_y_unnormalized: float | None

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
    residual_x: float
    residual_y: float


class LeastSquaresProblem:
    """Distributed least squares: node i holds 0.5*||A_i x - y0_i||^2."""

    kind = "least_squares"

    def __init__(self, A, y0):
        self.A = np.asarray(A, dtype=float)
        self.y0 = np.asarray(y0, dtype=float)
        if self.A.ndim != 3 or self.y0.shape != self.A.shape[:2]:
            raise ValueError("A must be (n, d_i, d) and y0 (n, d_i)")
        self.n, self.d_i, self.d = self.A.shape
        self._normal = np.einsum("nij,nik->jk", self.A, self.A) / self.n
        self._rhs = np.einsum("nij,ni->j", self.A, self.y0) / self.n
        self._minimizer = None
        self._profile = None

    # objective and gradients -------------------------------------------------

    def f(self, x):
        r = np.einsum("nij,j->ni", self.A, x) - self.y0
        return 0.5 * float(np.sum(r * r)) / self.n

    def grad_f(self, x):
        r = np.einsum("nij,j->ni", self.A, x) - self.y0
        return np.einsum("nij,ni->j", self.A, r) / self.n

    def node_value(self, i, x):
        r = self.A[i] @ x - self.y0[i]
        return 0.5 * float(r @ r)

    def node_grad(self, i, x):
        return self.A[i].T @ (self.A[i] @ x - self.y0[i])

    def grad_stacked(self, x_stack):
        if x_stack.shape != (self.n, self.d):
            raise ValueError(f"stacked state must be ({self.n}, {self.d})")
        r = np.einsum("nij,nj->ni", self.A, x_stack) - self.y0
        return np.einsum("nij,ni->nj", self.A, r)

    # analytic solution -------------------------------------------------------

    @property
    def minimizer(self):
        if self._minimizer is None:
            self._minimizer = np.linalg.pinv(self._normal) @ self._rhs
        return self._minimizer

    @property
    def f_star(self):
        return self.f(self.minimizer)

    def dist_to_opt_sq(self, x):
        """Squared distance to the nearest minimizer (range-projected)."""
        return _range_distance_sq(self._normal, x - self.minimizer)

    def grad_stacked_at_opt(self):
        return self.grad_stacked(np.tile(self.minimizer, (self.n, 1)))

    @property
    def profile(self):
        if self._profile is None:
            per_node = tuple(
                float(np.linalg.eigvalsh(self.A[i].T @ self.A[i])[-1])
                for i in range(self.n)
            )
            mu = _smallest_nonzero_eig(self._normal)
            if mu is None:
                raise ValueError("objective is identically constant; no PL constant")
            self._profile = SmoothnessProfile(
                L_per_node=per_node, mu=mu, mu_unnormalized=mu * self.n)
        return self._profile


class RobustLeastSquaresProblem:
    """Distributed robust least squares with a soft constraint.

    Node i holds
    ``0.5*||A_i x - y0_i - B_i y||^2 - 0.5*alpha*||B_i y||^2`` for a
    coefficient ``alpha > 1``, convex in x and concave in y.
    """

    kind = "robust_ls"

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
        # aggregated data blocks (plain sums over nodes)
        self.SA = np.einsum("nij,nik->jk", self.A, self.A)
        self.SB = np.einsum("nij,nik->jk", self.B, self.B)
        self.SAB = np.einsum("nij,nik->jk", self.A, self.B)
        self.a_vec = np.einsum("nij,ni->j", self.A, self.y0)
        self.b_vec = np.einsum("nij,ni->j", self.B, self.y0)
        self._saddle = None
        self._profile = None
        self._x_hessian = None

    # objective and gradients -------------------------------------------------

    def _residual(self, x, y):
        return (np.einsum("nij,j->ni", self.A, x) - self.y0
                - np.einsum("nij,j->ni", self.B, y))

    def phi(self, x, y):
        r = self._residual(x, y)
        by = np.einsum("nij,j->ni", self.B, y)
        return 0.5 * float(np.sum(r * r) - self.alpha * np.sum(by * by)) / self.n

    def grad_x(self, x, y):
        r = self._residual(x, y)
        return np.einsum("nij,ni->j", self.A, r) / self.n

    def grad_y(self, x, y):
        r = self._residual(x, y)
        by = np.einsum("nij,j->ni", self.B, y)
        return -(np.einsum("nij,ni->j", self.B, r)
                 + self.alpha * np.einsum("nij,ni->j", self.B, by)) / self.n

    def node_grad_x(self, i, x, y):
        return self.A[i].T @ (self.A[i] @ x - self.y0[i] - self.B[i] @ y)

    def node_grad_y(self, i, x, y):
        r = self.A[i] @ x - self.y0[i] - self.B[i] @ y
        return -self.B[i].T @ r - self.alpha * self.B[i].T @ (self.B[i] @ y)

    def grad_x_stacked(self, x_stack, y_stack):
        r = (np.einsum("nij,nj->ni", self.A, x_stack) - self.y0
             - np.einsum("nij,nj->ni", self.B, y_stack))
        return np.einsum("nij,ni->nj", self.A, r)

    def grad_y_stacked(self, x_stack, y_stack):
        r = (np.einsum("nij,nj->ni", self.A, x_stack) - self.y0
             - np.einsum("nij,nj->ni", self.B, y_stack))
        by = np.einsum("nij,nj->ni", self.B, y_stack)
        return -(np.einsum("nij,ni->nj", self.B, r)
                 + self.alpha * np.einsum("nij,ni->nj", self.B, by))

    # inner maximization and the max-function ---------------------------------

    def y_star_of(self, x):
        """Maximizer of phi(x, .), minimum-norm when the system is singular."""
        rhs = self.b_vec - self.SAB.T @ x
        sol, *_ = np.linalg.lstsq((self.alpha - 1.0) * self.SB, rhs, rcond=None)
        return sol

    def f_of_max(self, x):
        """Value of the max-function f(x) = max_y phi(x, y)."""
        return self.phi(x, self.y_star_of(x))

    def danskin_grad(self, x):
        """Gradient of the max-function via the inner maximizer."""
        return self.grad_x(x, self.y_star_of(x))

    def x_hessian_of_max(self):
        """Hessian of the max-function (constant for this quadratic family)."""
        if self._x_hessian is None:
            c = self.SAB.T  # d_y x d_x coupling block
            h = self.SA + c.T @ (np.linalg.pinv((self.alpha - 1.0) * self.SB) @ c)
            self._x_hessian = h / self.n
        return self._x_hessian

    def y_hessian_neg(self):
        """Hessian of the concavity gap -phi(x, .) (x-independent)."""
        return (self.alpha - 1.0) * self.SB / self.n

    # analytic saddle ----------------------------------------------------------

    @property
    def saddle(self):
        if self._saddle is None:
            self._saddle = analytic_saddle(self)
        return self._saddle

    @property
    def phi_star(self):
        return self.saddle.value

    def grad_x_stacked_at_saddle(self):
        s = self.saddle
        return self.grad_x_stacked(np.tile(s.x, (self.n, 1)),
                                   np.tile(s.y, (self.n, 1)))

    def grad_y_stacked_at_inner_opt(self, x):
        """Stacked y-gradients at (x, y*(x)); rows are nonzero, their mean is 0."""
        ys = self.y_star_of(x)
        return self.grad_y_stacked(np.tile(x, (self.n, 1)),
                                   np.tile(ys, (self.n, 1)))

    @property
    def saddle_profile(self):
        if self._profile is None:
            lxx, lxy, lyx, lyy = [], [], [], []
            for i in range(self.n):
                ata = self.A[i].T @ self.A[i]
                btb = self.B[i].T @ self.B[i]
                cross = float(np.linalg.svd(self.A[i].T @ self.B[i],
                                            compute_uv=False)[0]) if self.d_y else 0.0
                lxx.append(float(np.linalg.eigvalsh(ata)[-1]))
                lyy.append((self.alpha - 1.0) * float(np.linalg.eigvalsh(btb)[-1]))
                lxy.append(cross)
                lyx.append(cross)
            mu_x = _smallest_nonzero_eig(self.SA / self.n)
            if mu_x is None:
                raise ValueError("x-block curvature vanishes; no PL constant")
            mu_y = _smallest_nonzero_eig(self.y_hessian_neg())
            self._profile = SaddleSmoothness(
                L_xx_per_node=tuple(lxx), L_xy_per_node=tuple(lxy),
                L_yx_per_node=tuple(lyx), L_yy_per_node=tuple(lyy),
                mu_x=mu_x, mu_y=mu_y,
                mu_x_unnormalized=mu_x * self.n,
                mu_y_unnormalized=None if mu_y is None else mu_y * self.n,
            )
        return self._profile

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
    return problem, problem.saddle_profile


def analytic_saddle(problem, residual_tol=1e-9):
    """Solve the joint stationarity system of a robust least squares instance.

    The system is linear and symmetric; a minimum-norm solution is taken
    (and flagged) when it is singular. Raises ``SingularSystemError`` if no
    stationary point exists at all.
    """
    d_x, d_y = problem.d_x, problem.d_y
    m = np.zeros((d_x + d_y, d_x + d_y))
    m[:d_x, :d_x] = problem.SA
    m[:d_x, d_x:] = -problem.SAB
    m[d_x:, :d_x] = -problem.SAB.T
    m[d_x:, d_x:] = (1.0 - problem.alpha) * problem.SB
    rhs = np.concatenate([problem.a_vec, -problem.b_vec])
    sol, _, rank, _ = np.linalg.lstsq(m, rhs, rcond=None)
    x_star, y_star = sol[:d_x], sol[d_x:]
    res_x = float(np.linalg.norm(problem.grad_x(x_star, y_star)))
    res_y = float(np.linalg.norm(problem.grad_y(x_star, y_star)))
    scale = max(1.0, float(np.linalg.norm(rhs)) / problem.n)
    if max(res_x, res_y) > residual_tol * scale:
        raise SingularSystemError(
            f"stationarity system inconsistent: gradient residuals "
            f"({res_x:.3e}, {res_y:.3e})")
    return SaddlePoint(x=x_star, y=y_star,
                       value=problem.phi(x_star, y_star),
                       min_norm=rank < d_x + d_y,
                       residual_x=res_x, residual_y=res_y)


@dataclass
class InnerObjective:
    """The maximization problem in y at a fixed outer point x."""

    problem: RobustLeastSquaresProblem
    x: np.ndarray
    y_star: np.ndarray = field(init=False)
    g_star: float = field(init=False)
    degenerate: bool = field(init=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y_star = self.problem.y_star_of(self.x)
        self.g_star = self.problem.phi(self.x, self.y_star)
        top = float(np.linalg.eigvalsh(self.problem.SB)[-1]) if self.problem.d_y else 0.0
        self.degenerate = top <= 0 or (
            np.linalg.matrix_rank(self.problem.SB) < self.problem.d_y)

    def value(self, y):
        return self.problem.phi(self.x, y)

    def grad(self, y):
        return self.problem.grad_y(self.x, y)

    def gap(self, y):
        return self.g_star - self.value(y)


def inner_objective(problem, x):
    """Expose g_x(y) = phi(x, y) with its analytic maximizer and optimum."""
    return InnerObjective(problem, x)


@dataclass
class PLQGReport:
    """Largest sampled violation ratios for the PL and QG inequalities."""

    max_pl_ratio: float
    max_qg_ratio: float
    max_pl_ratio_y: float | None = None
    max_qg_ratio_y: float | None = None

    def ok(self, tol=1e-9):
        vals = [self.max_pl_ratio, self.max_qg_ratio,
                self.max_pl_ratio_y, self.max_qg_ratio_y]
        return all(v is None or v <= 1.0 + tol for v in vals)


def pl_qg_report(problem, num_points=100, seed=0, spread=1.0):
    """Sample the PL and QG inequalities on a built instance.

    For least squares the checks run on the averaged objective with its
    stored PL constant. For saddle instances the x-side checks run on the
    max-function (inner problem solved exactly per sample) and the y-side
    checks on the concave inner objective at each sampled x. Ratios at most
    1 mean the inequalities hold; tiny excursions above 1 are floating
    point noise.
    """
    rng = np.random.default_rng(seed)
    tiny = 1e-12

    def ratios(gap, grad_sq, dist_sq, mu):
        pl = (2.0 * mu * gap) / grad_sq if grad_sq > tiny else 0.0
        qg = (mu * dist_sq) / (2.0 * gap) if gap > tiny else 0.0
        return pl, qg

    if problem.kind == "least_squares":
        mu = problem.profile.mu
        x_star = problem.minimizer
        f_star = problem.f_star
        max_pl = max_qg = 0.0
        for _ in range(num_points):
            x = x_star + spread * rng.standard_normal(problem.d)
            gap = problem.f(x) - f_star
            grad_sq = float(np.sum(problem.grad_f(x) ** 2))
            pl, qg = ratios(gap, grad_sq, problem.dist_to_opt_sq(x), mu)
            max_pl, max_qg = max(max_pl, pl), max(max_qg, qg)
        return PLQGReport(max_pl_ratio=max_pl, max_qg_ratio=max_qg)

    prof = problem.saddle_profile
    s = problem.saddle
    f_star = s.value
    h_x = problem.x_hessian_of_max()
    h_y = problem.y_hessian_neg()
    max_pl = max_qg = 0.0
    max_pl_y = max_qg_y = 0.0
    for _ in range(num_points):
        x = s.x + spread * rng.standard_normal(problem.d_x)
        gap = problem.f_of_max(x) - f_star
        grad_sq = float(np.sum(problem.danskin_grad(x) ** 2))
        dist_sq = _range_distance_sq(h_x, x - s.x)
        pl, qg = ratios(gap, grad_sq, dist_sq, prof.mu_x)
        max_pl, max_qg = max(max_pl, pl), max(max_qg, qg)
        if prof.mu_y is not None:
            inner = InnerObjective(problem, x)
            y = inner.y_star + spread * rng.standard_normal(problem.d_y)
            gap_y = inner.gap(y)
            grad_sq_y = float(np.sum(inner.grad(y) ** 2))
            dist_sq_y = _range_distance_sq(h_y, y - inner.y_star)
            pl_y, qg_y = ratios(gap_y, grad_sq_y, dist_sq_y, prof.mu_y)
            max_pl_y, max_qg_y = max(max_pl_y, pl_y), max(max_qg_y, qg_y)
    return PLQGReport(
        max_pl_ratio=max_pl, max_qg_ratio=max_qg,
        max_pl_ratio_y=max_pl_y if prof.mu_y is not None else None,
        max_qg_ratio_y=max_qg_y if prof.mu_y is not None else None,
    )
