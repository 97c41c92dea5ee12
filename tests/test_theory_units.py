"""Metamorphic tests of the theory budgets.

Each transformation leaves the problem unchanged, with the matching change
to the targets and the oracle:

- data scaled by c: every data block times c, so objectives scale by c**2,
  and so do eps, eps_y, delta and sigma;
- variable scaled by s: x = s x' (and y = s y'), so A_i (and B_i) times s;
  delta and sigma scale by s, delta_prime and delta_prime_y by 1/s**2;
- every node replicated on the complete graph, whose contraction factor is
  1 at every n: averaged gaps and targets stay, stacked ones double, so
  delta_prime and delta_prime_y scale by 2, delta and sigma by sqrt(2).

A budget that keeps its units keeps N and T, and scales D (stacked squared
distances) and the floor (objective values) as their units say. The DGD
budgets do. The saddle budget does not; its relations are pinned as they
stand, so a change to them shows. Budgets are read as the sidecar writes
them, through the harness's own budget path.
"""

import math

import numpy as np
import pytest

from plnet import harness, problems, topology

C = S = 10.0
TARGETS = {"eps": 1e-3, "eps_y": 1e-4, "delta_prime": 1e-6, "delta_prime_y": 1e-6,
           "delta": 0.01}


def _scaled(targets, **factors):
    return {key: value * factors.get(key, 1.0) for key, value in targets.items()}


def _scale_data(data, targets):
    return (tuple(C * block for block in data),
            _scaled(targets, eps=C ** 2, eps_y=C ** 2, delta=C ** 2, sigma=C ** 2))


def _scale_variable(data, targets):
    return ((*(S * block for block in data[:-1]), data[-1]),
            _scaled(targets, delta_prime=S ** -2, delta_prime_y=S ** -2, delta=S, sigma=S))


def _replicate(data, targets):
    root2 = math.sqrt(2.0)
    return (tuple(np.concatenate((block, block)) for block in data),
            _scaled(targets, delta_prime=2.0, delta_prime_y=2.0, delta=root2, sigma=root2))


# transformation: (function, graph, unit of D, unit of the floor)
TRANSFORMS = {"data": (_scale_data, "ring", 1.0, C ** 2),
              "variable": (_scale_variable, "ring", S ** -2, 1.0),
              "replicate": (_replicate, "complete", 2.0, 1.0)}


def _data(saddle, n=6):
    """``(A, y0)``, or ``(A, B, y0)`` for robust LS: d 3, d_y 2, 3 rows per node."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, 3, 3))
    B = rng.standard_normal((n, 3, 2))
    y0 = rng.standard_normal((n, 3))
    return (A, B, y0) if saddle else (A, y0)


def _budget(data, graph, targets):
    """The sidecar budget of an instance on a static ``graph``."""
    saddle = len(data) == 3
    problem = (problems.RobustLeastSquaresProblem(*data, alpha=2.0) if saddle
               else problems.LeastSquaresProblem(*data))
    model = topology.MixingModel(
        topology.make_graph_sequence(problem.n, "static", topology=graph))
    keys = ("eps", "delta_prime") + (("eps_y", "delta_prime_y") if saddle else ())
    cfg = {"algorithm": {"kind": "mgda" if saddle else "dgd",
                         **{key: targets[key] for key in keys}},
           "oracle": {"delta": targets["delta"], "sigma": targets["sigma"]}}
    return harness._budget_dict(harness._theory_budget(cfg, problem, model))


def _pair(saddle, name, sigma):
    """The budgets before and after one transformation, and its units."""
    transform, graph, d_unit, floor_unit = TRANSFORMS[name]
    data, targets = _data(saddle), dict(TARGETS, sigma=sigma)
    before = _budget(data, graph, targets)
    new_data, new_targets = transform(data, targets)
    after = _budget(new_data, graph, new_targets)
    assert before["mode"] == after["mode"] == ("stochastic" if sigma else "deterministic")
    return before, after, d_unit, floor_unit


@pytest.mark.parametrize("sigma", [0.0, 0.01])
@pytest.mark.parametrize("name", TRANSFORMS)
def test_dgd_budgets_keep_their_units(name, sigma):
    before, after, d_unit, floor_unit = _pair(False, name, sigma)
    assert (after["N"], after["T"]) == (before["N"], before["T"])
    assert after["D"] == pytest.approx(d_unit * before["D"], rel=1e-9)
    assert after["floor"] == pytest.approx(floor_unit * before["floor"], rel=1e-9)


# (N_x before, after), (N_y before, after), then D_X, D_Y, floor_x and floor_y
# after over before, each divided by its unit (1.0 where the unit holds)
SADDLE = {
    # L_x = L_xx_g + L_xy_g / mu_y: its second term keeps neither unit
    ("data", 0.0): ((32, 25), (17, 17), (1.23019, 1.0, 1.0, 1.0)),
    ("data", 0.01): ((32, 25), (17, 17), (1.22085, 1.0, 1.0, 1.0)),
    ("variable", 0.0): ((32, 25), (17, 17), (1.23019, 1.0, 1.0, 1.0)),
    ("variable", 0.01): ((32, 25), (17, 17), (1.22085, 1.0, 1.0, 1.0)),
    # N reads stacked gaps against averaged targets; the deterministic D_Y
    # carries 2n/mu_y; Delta_x adds a per-node term to stacked ones
    ("replicate", 0.0): ((32, 36), (17, 18), (0.989454, 1.50545, 0.69215, 1.0)),
    ("replicate", 0.01): ((32, 36), (17, 18), (0.991885, 1.0, 0.570341, 1.0)),
}


@pytest.mark.parametrize("name, sigma", SADDLE)
def test_saddle_budget_relations_as_printed(name, sigma):
    before, after, d_unit, floor_unit = _pair(True, name, sigma)
    n_x, n_y, ratios = SADDLE[name, sigma]
    assert (before["N_x"], after["N_x"]) == n_x
    assert (before["N_y"], after["N_y"]) == n_y
    assert (after["T_x"], after["T_y"]) == (before["T_x"], before["T_y"])
    units = (d_unit, d_unit, floor_unit, floor_unit)
    measured = tuple(after[key] / before[key] / unit
                     for key, unit in zip(("D_X", "D_Y", "floor_x", "floor_y"), units))
    assert measured == pytest.approx(ratios, rel=1e-5)
