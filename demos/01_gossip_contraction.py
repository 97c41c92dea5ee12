"""Gossip averaging on time-varying graphs.

Builds the three supported graph-sequence kinds, shows their Metropolis
mixing matrices, measures the per-window contraction factor, and checks
the measured consensus-error decay against the geometric envelope
(1 - lam)^floor(T / tau).
"""

import numpy as np

from plnet import (
    MixingModel,
    consensus_error,
    estimate_lambda,
    make_graph_sequence,
    metropolis_matrix,
    run_consensus,
)

rng = np.random.default_rng(0)

# -- a static path on three nodes: the classic worst case ---------------------
path = make_graph_sequence(3, "static", topology="path")
w = metropolis_matrix(path, 0)
print("Metropolis matrix of the 3-node path:")
print(w)
print()

# -- contraction factors across kinds -----------------------------------------
sequences = {
    "static path (n=3)": make_graph_sequence(3, "static", topology="path"),
    "static ring (n=8)": make_graph_sequence(8, "static", topology="ring"),
    "static complete (n=5)": make_graph_sequence(5, "static", topology="complete"),
    "random connected each round (n=8)":
        make_graph_sequence(8, "per-step-connected", degree=3, seed=1),
    "ring split over tau=3 rounds (n=6)":
        make_graph_sequence(6, "tau-connected", tau=3, topology="ring"),
}
models = {}
print(f"{'sequence':<38} {'tau':>3} {'lam':>8}")
for name, seq in sequences.items():
    model = MixingModel(seq)
    models[name] = model
    print(f"{name:<38} {model.tau:>3} {model.lam:>8.4f}")
print()

# -- measured decay against the geometric envelope ----------------------------
# one eight-round gossip call per sequence, worst case over 20 random starts
print(f"{'sequence':<38} {'measured':>10} {'envelope':>10}")
rounds = 8
for name, model in models.items():
    worst = 0.0
    for _ in range(20):
        z = rng.standard_normal((model.n, 4))
        out = run_consensus(z, rounds, model)
        worst = max(worst, consensus_error(out) / consensus_error(z))
    envelope = (1.0 - model.lam) ** (rounds // model.tau)
    assert worst <= envelope + 1e-10
    print(f"{name:<38} {worst:>10.2e} {envelope:>10.2e}")
print("\nevery measured decay sits below its envelope")
