"""Independent oracles shared by the test modules."""

import numpy as np

from plnet import algorithms


def central_diff(fn, x, h=None):
    """Central finite differences of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return grad


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    denom = max(np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def bfs_connected(n, edges):
    """Brute-force BFS connectivity oracle on an undirected edge set."""
    if n <= 1:
        return True
    adj = {i: set() for i in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == n


def edge_list(edges):
    """Edge endpoint arrays ``(i, j)`` as a list of ``(int, int)`` pairs."""
    i, j = edges
    return list(zip(i.tolist(), j.tolist()))


def node_value(problem, i, x):
    """Node ``i``'s least-squares term ``||A_i x - y0_i||^2 / 2``."""
    r = problem.A[i] @ x - problem.y0[i]
    return 0.5 * float(r @ r)


def node_grad(problem, i, x):
    """Gradient of :func:`node_value` in x."""
    return problem.A[i].T @ (problem.A[i] @ x - problem.y0[i])


def node_grad_x(problem, i, x, y):
    """Gradient in x of node ``i``'s robust least-squares term
    ``(||A_i x - y0_i - B_i y||^2 - alpha ||B_i y||^2) / 2``."""
    return problem.A[i].T @ (problem.A[i] @ x - problem.y0[i] - problem.B[i] @ y)


def node_grad_y(problem, i, x, y):
    """Gradient in y of the term of :func:`node_grad_x`."""
    r = problem.A[i] @ x - problem.y0[i] - problem.B[i] @ y
    return -problem.B[i].T @ r - problem.alpha * problem.B[i].T @ (problem.B[i] @ y)


def centralized_gd(problem, gamma, iterations, record_every=1):
    """Plain gradient descent on the averaged objective from zero (no communication).

    The centralized reference of the full-graph equivalence checks; it records
    through ``algorithms._record`` and ``algorithms._evaluate`` as the runners do.
    """
    x = np.zeros(problem.d)
    record = algorithms.RunRecord()
    record.meta.update(f_star=problem.f_star, stochastic=False)
    for k in range(iterations):
        if k % record_every == 0:
            algorithms._record(record, k, x[None])
        x = x - gamma * problem.grad_f(x)
        algorithms._check_finite(x, k + 1, "iterate")
    algorithms._record(record, iterations, x[None])
    algorithms._evaluate(record, problem)
    return record, x


def centralized_gda(problem, gamma_x, gamma_y, outer_iterations, inner_iterations,
                    record_every=1):
    """Multi-step descent ascent on the averaged saddle objective from zero."""
    x, y = np.zeros(problem.d_x), np.zeros(problem.d_y)
    record = algorithms.RunRecord()
    record.meta.update(f_star=problem.f_star, stochastic=False)
    for k in range(outer_iterations):
        if k % record_every == 0:
            algorithms._record(record, k, x[None], y[None])
        for _ in range(inner_iterations):
            y = y + gamma_y * problem.grad_y(x, y)
        algorithms._check_finite(y, k, "inner iterate")
        x = x - gamma_x * problem.grad_x(x, y)
        algorithms._check_finite(x, k + 1, "iterate")
    algorithms._record(record, outer_iterations, x[None], y[None])
    algorithms._evaluate(record, problem)
    return record, (x, y)
