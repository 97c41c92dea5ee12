"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -v tests/test_acceptance.py`` to get one line per
criterion; the prints add the measured runtime against each budget.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from plnet import (
    DGDConfig,
    LeastSquaresProblem,
    MGDAConfig,
    MixingModel,
    OracleSpec,
    RobustLeastSquaresProblem,
    SmoothnessProfile,
    build_least_squares,
    build_robust_ls,
    consensus_error,
    dgd_run,
    estimate_lambda,
    noise_floor,
    make_graph_sequence,
    metropolis_matrix,
    mgda_run,
    overlay_bounds,
    pl_qg_report,
    run_consensus,
)
from plnet.theory import budget_min_deterministic, budget_min_stochastic, \
    iterations_for_target, rounds_for_target

from helpers import central_diff, centralized_gd, node_grad, node_value, rel_err


class stopwatch:
    def __init__(self, name, limit_s):
        self.name, self.limit = name, limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.1f}s, budget {self.limit}s)")
        assert elapsed < self.limit, f"{self.name} exceeded runtime budget"


def test_criterion_1_mixing_validity():
    with stopwatch("1 mixing validity", 5):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(2, 51))
            degree = int(rng.integers(2, 7))
            seq = make_graph_sequence(n, "static", topology="random",
                                      degree=degree, seed=trial)
            w = metropolis_matrix(seq, 0)
            i, j = seq.edges_at(0)
            on_graph = np.eye(n, dtype=bool)
            on_graph[i, j] = on_graph[j, i] = True
            assert not w[~on_graph].any(), trial
            assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12, trial
            assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12, trial
            assert w.min() >= 0.0, trial


def test_criterion_2_contraction_decay():
    with stopwatch("2 contraction", 10):
        models = {
            "path3": MixingModel(make_graph_sequence(3, "static", topology="path")),
            "ring6": MixingModel(make_graph_sequence(6, "static", topology="ring")),
            "complete5": MixingModel(make_graph_sequence(5, "static",
                                                         topology="complete")),
            "rotring6": MixingModel(make_graph_sequence(6, "tau-connected",
                                                        tau=3, topology="ring")),
        }
        lam3 = estimate_lambda(models["path3"])
        assert abs(lam3 - 1.0 / 3.0) <= 1e-10
        rng = np.random.default_rng(7)
        for name, model in models.items():
            lam = model.lam
            for rounds in (2, 5, 12):
                factor = (1.0 - lam) ** (rounds // model.tau)
                for _ in range(30):
                    z = rng.standard_normal((model.n, 3))
                    out = run_consensus(z, rounds, model)
                    assert consensus_error(out) <= \
                        factor * consensus_error(z) + 1e-10, (name, rounds)


def test_criterion_3_gradient_correctness():
    with stopwatch("3 gradients", 30):
        rng = np.random.default_rng(11)
        ls, _ = build_least_squares(4, 3, seed=61)
        for _ in range(50):
            x = 2.0 * rng.standard_normal(3)
            assert rel_err(ls.grad_f(x), central_diff(ls.f, x)) <= 1e-5
            i = int(rng.integers(0, 4))
            assert rel_err(node_grad(ls, i, x),
                           central_diff(lambda v: node_value(ls, i, v), x)) <= 1e-5
        saddle, _ = build_robust_ls(3, 3, 2, alpha=2.0, seed=62)
        for _ in range(50):
            x = 2.0 * rng.standard_normal(3)
            y = 2.0 * rng.standard_normal(2)
            assert rel_err(saddle.grad_x(x, y),
                           central_diff(lambda v: saddle.phi(v, y), x)) <= 1e-5
            assert rel_err(saddle.grad_y(x, y),
                           central_diff(lambda v: saddle.phi(x, v), y)) <= 1e-5
        for _ in range(50):
            x = 2.0 * rng.standard_normal(3)
            assert rel_err(saddle.grad_f(x),
                           central_diff(saddle.f, x)) <= 1e-4


def test_criterion_4_deterministic_budget_end_to_end():
    with stopwatch("4 theorem budget end-to-end", 60):
        problem, prof = build_least_squares(10, 4, seed=42)
        model = MixingModel(make_graph_sequence(10, "static", topology="path"))
        delta_prime = 1e-6
        x0 = np.zeros(4)
        gap0 = problem.f(x0) - problem.f_star
        budget = budget_min_deterministic(
            prof, model, eps=1e-6 * gap0, delta_prime=delta_prime,
            delta_bias=0.0, f0_gap=gap0,
            grad_at_opt_norm=float(np.linalg.norm(problem.grad_stacked_at_opt())))
        config = DGDConfig(gamma=budget.gamma, iterations=budget.N,
                           rounds_schedule=budget.T)
        record, _ = dgd_run(problem, model, config, np.zeros((10, 4)))
        assert record.f_gap[-1] <= budget.eps + budget.floor
        # the consensus target holds at every iterate, not only the last
        assert record.extras["max_consensus_err_x"] <= math.sqrt(delta_prime)
        result = overlay_bounds(record, budget)
        assert result.ok, result.violations[:3]


def test_criterion_5_noise_floor():
    with stopwatch("5 noise floor", 120):
        n, d = 2, 2
        problem = LeastSquaresProblem(
            np.tile(np.eye(d), (n, 1, 1)),
            np.random.default_rng(5).standard_normal((n, d)))
        prof = problem.profile
        assert prof.mu == prof.L_g == 1.0  # mu = L known by construction
        model = MixingModel(make_graph_sequence(n, "static", topology="complete"))
        iterations, trail = 100, 20
        trailing = {}
        records = {}
        for delta in (0.0, 0.1):
            for sigma in (0.1, 0.5):
                gaps, recs = [], []
                for seed in range(30):
                    spec = OracleSpec(delta=delta, sigma=sigma, seed=seed)
                    config = DGDConfig(gamma=1.0, iterations=iterations,
                                       rounds_schedule=1, oracle=spec)
                    record, _ = dgd_run(problem, model, config,
                                        np.zeros((n, d)))
                    gaps.extend(record.f_gap[-trail:])
                    recs.append(record)
                trailing[(delta, sigma)] = float(np.mean(gaps))
                records[(delta, sigma)] = recs
        for (delta, sigma), measured in trailing.items():
            floor = noise_floor(delta, sigma, gamma=1.0, mu=1.0, L=1.0)
            assert measured <= floor, (delta, sigma, measured, floor)
        # floors are ordered and non-vacuous: the sigma=0.5 runs sit above
        # the sigma=0.1 floor
        for delta in (0.0, 0.1):
            low_floor = noise_floor(delta, 0.1, gamma=1.0, mu=1.0, L=1.0)
            assert trailing[(delta, 0.5)] > low_floor
        # seed-averaged stochastic bound overlay stays valid
        budget = budget_min_stochastic(
            prof, model, eps=1e-6, delta_prime=1e-12, delta=0.1, sigma=0.5,
            f0_gap=records[(0.1, 0.5)][0].f_gap[0],
            grad_at_opt_norm=float(np.linalg.norm(problem.grad_stacked_at_opt())))
        result = overlay_bounds(records[(0.1, 0.5)], budget)
        assert result.ok, result.violations[:3]


def test_criterion_6_full_graph_equivalence():
    with stopwatch("6 full-graph equivalence", 30):
        problem, prof = build_least_squares(6, 3, seed=77)
        model = MixingModel(make_graph_sequence(6, "static", topology="complete"))
        config = DGDConfig(gamma=1.0 / prof.L_g, iterations=100,
                           rounds_schedule=1)
        record, _ = dgd_run(problem, model, config, np.zeros((6, 3)))
        central, _ = centralized_gd(problem, 1.0 / prof.L_g, 100)
        for k, (xbar, x) in enumerate(zip(record.xbar, central.xbar)):
            assert np.linalg.norm(xbar - x) <= 1e-10, k


def test_criterion_7_robust_ls_reproduction():
    with stopwatch("7 robust LS reproduction", 600):
        sizes = (5, 10, 20)
        seeds = (0, 1, 2)
        mean_grad_x, mean_grad_y = {}, {}
        for n in sizes:
            seq = make_graph_sequence(n, "static", topology="random",
                                      degree=6, seed=0)
            model = MixingModel(seq)
            gx, gy = [], []
            for seed in seeds:
                problem, _ = build_robust_ls(n, 2, 2, d_i=6, alpha=2.0,
                                             seed=seed)
                config = MGDAConfig(gamma_x=1e-3, gamma_y=1e-3,
                                    outer_iterations=10_000,
                                    inner_iterations=10,
                                    rounds_x=10, rounds_y=10,
                                    record_every=2000)
                record, (x, y) = mgda_run(problem, model, config,
                                          np.zeros((n, 2)), np.zeros((n, 2)))
                assert record.grad_norm_x[-1] < 1e-3, (n, seed)
                assert record.grad_norm_y[-1] < 1e-3, (n, seed)
                s = problem.saddle
                dist = problem.dist_to_saddle(x.mean(axis=0), y.mean(axis=0))
                assert dist < 1e-2, (n, seed, dist)
                gx.append(record.grad_norm_x[-1])
                gy.append(record.grad_norm_y[-1])
            mean_grad_x[n] = float(np.mean(gx))
            mean_grad_y[n] = float(np.mean(gy))
        print("seed-averaged final gradient norms:",
              {n: (mean_grad_x[n], mean_grad_y[n]) for n in sizes})
        # fixed budget, growing network: quality degrades with n
        assert mean_grad_x[5] <= mean_grad_x[10] <= mean_grad_x[20]
        assert mean_grad_y[5] <= mean_grad_y[10] <= mean_grad_y[20]


@dataclass(frozen=True)
class MixStub:
    tau: int
    lam: float


def test_criterion_8_budget_determinism_and_monotonicity():
    with stopwatch("8 budget properties", 5):
        rng = np.random.default_rng(808)
        for _ in range(100):
            l_l = float(rng.uniform(2.0, 20.0))
            l_g = float(rng.uniform(1.0, l_l))
            mu = float(rng.uniform(0.05, l_g))
            n = int(rng.integers(2, 12))
            per_node = (l_l,) + (max((n * l_g - l_l) / (n - 1), 1e-9),) * (n - 1)
            profile = SmoothnessProfile(L_per_node=per_node, mu=mu)
            mix = MixStub(int(rng.integers(1, 4)),
                          float(rng.uniform(0.05, 1.0)))
            args = dict(eps=float(rng.uniform(1e-8, 1e-2)),
                        delta_prime=float(rng.uniform(1e-9, 1e-3)),
                        delta=float(rng.uniform(0.0, 0.5)),
                        sigma=float(rng.uniform(0.0, 0.5)),
                        f0_gap=float(rng.uniform(0.5, 50.0)),
                        grad_at_opt_norm=float(rng.uniform(0.0, 10.0)))
            budget = budget_min_stochastic(profile, mix, **args)
            assert budget == budget_min_stochastic(profile, mix, **args)
            wider = dict(args, eps=10.0 * args["eps"])
            assert budget_min_stochastic(profile, mix, **wider).N <= budget.N
            t_up, _ = rounds_for_target(budget.D * 3.0, args["delta_prime"],
                                        mix.tau, mix.lam)
            t_down, _ = rounds_for_target(budget.D, 3.0 * args["delta_prime"],
                                          mix.tau, mix.lam)
            assert t_up >= budget.T
            assert t_down <= budget.T
            noisier = dict(args, delta=args["delta"] + 0.2,
                           sigma=args["sigma"] + 0.2)
            assert budget_min_stochastic(profile, mix, **noisier).floor \
                >= budget.floor


def test_criterion_9_pl_qg_sampling():
    with stopwatch("9 PL/QG sampling", 10):
        rng = np.random.default_rng(9)
        instances = [
            LeastSquaresProblem(np.tile(np.eye(2), (3, 1, 1)),
                                rng.standard_normal((3, 2))),
            build_least_squares(4, 3, seed=11)[0],
            LeastSquaresProblem(np.array([[[1.0, 0.0]], [[0.0, 0.0]]]),
                                np.array([[0.3], [-0.2]])),
            build_robust_ls(3, 2, 2, alpha=2.0, seed=5)[0],
            build_robust_ls(5, 3, 2, alpha=3.0, seed=7)[0],
            RobustLeastSquaresProblem(rng.standard_normal((3, 2, 2)),
                                      np.zeros((3, 2, 2)),
                                      rng.standard_normal((3, 2)), alpha=2.0),
        ]
        for idx, problem in enumerate(instances):
            report = pl_qg_report(problem, num_points=100, seed=100 + idx)
            assert report.ok(), (idx, report)
