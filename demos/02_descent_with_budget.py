"""Decentralized gradient descent configured entirely from theory.

A random least squares instance is split over ten nodes talking over a
path graph. The budget calculator turns the target accuracy and the
consensus target into an iteration count N and a per-iteration gossip
round count T; running the method with exactly that schedule must land
below eps plus the inexactness floor while every iterate keeps its
consensus error under sqrt(delta').
"""

import numpy as np

from plnet import (
    DGDConfig,
    MixingModel,
    budget_min_deterministic,
    build_least_squares,
    dgd_run,
    make_graph_sequence,
    overlay_bounds,
)

n, d = 10, 4
problem, profile = build_least_squares(n, d, seed=42)
model = MixingModel(make_graph_sequence(n, "static", topology="path"))

x0 = np.zeros(d)
gap0 = problem.f(x0) - problem.f_star
eps = 1e-6 * gap0
delta_prime = 1e-6

budget = budget_min_deterministic(
    profile, model, eps=eps, delta_prime=delta_prime, delta_bias=0.0,
    f0_gap=gap0,
    grad_at_opt_norm=float(np.linalg.norm(problem.grad_stacked_at_opt())))

print(f"instance: n={n}, d={d}, L_l={profile.L_l:.3f}, "
      f"L_g={profile.L_g:.3f}, mu={profile.mu:.3f}")
print(f"graph: path, tau={model.tau}, lam={model.lam:.4f}")
print(f"budget: N={budget.N} iterations, T={budget.T} rounds each, "
      f"{budget.N_tot} rounds total")
print(f"        drift constant D={budget.D:.3f}, floor={budget.floor:.3e}")
print()

config = DGDConfig(gamma=budget.gamma, iterations=budget.N,
                   rounds_schedule=budget.T, record_every=max(1, budget.N // 8))
record, _ = dgd_run(problem, model, config, np.zeros((n, d)))

result = overlay_bounds(record, budget)
print(f"{'k':>5} {'measured gap':>14} {'bound':>14} {'consensus err':>14}")
for k, gap, bound, cons in zip(record.ks, record.f_gap, result.bounds,
                               record.consensus_err_x):
    print(f"{k:>5} {gap:>14.3e} {bound:>14.3e} {cons:>14.3e}")

print()
print(f"final gap {record.f_gap[-1]:.3e} <= eps + floor = "
      f"{budget.eps + budget.floor:.3e}")
print(f"worst consensus error {record.extras['max_consensus_err_x']:.3e} "
      f"<= sqrt(delta') = {np.sqrt(delta_prime):.3e}")
assert result.ok and record.f_gap[-1] <= budget.eps + budget.floor
assert record.extras["max_consensus_err_x"] <= np.sqrt(delta_prime)
