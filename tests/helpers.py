"""Independent oracles shared by the test modules."""

import numpy as np


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
