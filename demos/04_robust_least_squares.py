"""Robust least squares by multi-step gradient descent ascent.

Each node holds a block of a least squares problem plus an adversarial
perturbation variable, softly penalized with coefficient alpha = 2. The
method ascends the adversarial block ten times per descent step, with
ten gossip rounds after every step, from zero initialization and fixed
step sizes 1e-3. Larger networks at a fixed per-node degree mix worse,
so their gradient norms plateau higher.

This is the demo-sized version (3000 outer iterations) of the full
experiment; the acceptance suite runs 10^4, at which point every run is
plateau-limited and the degradation with n is strictly monotone.
"""

import numpy as np

from plnet import (
    MGDAConfig,
    MixingModel,
    build_robust_ls,
    make_graph_sequence,
    mgda_run,
)

outer, inner, rounds = 3000, 10, 10
print(f"MGDA: {outer} outer x {inner} inner iterations, "
      f"{rounds} gossip rounds per step, step sizes 1e-3")
print(f"{'n':>3} {'|grad_x|':>12} {'|grad_y|':>12} {'dist to saddle':>15}")

for n in (5, 10, 20):
    model = MixingModel(make_graph_sequence(n, "static", topology="random",
                                            degree=6, seed=0))
    grad_x, grad_y, dists = [], [], []
    for seed in (0, 1, 2):
        problem, _ = build_robust_ls(n, d_x=2, d_y=2, d_i=6, alpha=2.0,
                                     seed=seed)
        config = MGDAConfig(gamma_x=1e-3, gamma_y=1e-3,
                            outer_iterations=outer, inner_iterations=inner,
                            rounds_x=rounds, rounds_y=rounds,
                            record_every=outer)
        record, (x, y) = mgda_run(problem, model, config,
                                  np.zeros((n, 2)), np.zeros((n, 2)))
        grad_x.append(record.grad_norm_x[-1])
        grad_y.append(record.grad_norm_y[-1])
        dists.append(problem.dist_to_saddle(x.mean(axis=0), y.mean(axis=0)))
    print(f"{n:>3} {np.mean(grad_x):>12.3e} {np.mean(grad_y):>12.3e} "
          f"{np.mean(dists):>15.3e}")

print("\nthe same experiment is available through the harness:")
print("  plnet run demos/configs/robust_ls.json")
print("  plnet sweep demos/configs/robust_ls.json --axis n --values 5,10,20")
