import json

import numpy as np
import pytest

from plnet import (
    DGDConfig,
    DivergenceError,
    LeastSquaresProblem,
    MGDAConfig,
    MixingModel,
    OracleSpec,
    RobustLeastSquaresProblem,
    average_projection,
    build_least_squares,
    build_robust_ls,
    consensus_error,
    dgd_run,
    make_graph_sequence,
    mgda_run,
    run_consensus,
)
from plnet import algorithms, harness
from plnet.oracles import OracleState, perturb_gradient

from helpers import centralized_gd, centralized_gda


def unit_quadratic(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return LeastSquaresProblem(np.tile(np.eye(d), (n, 1, 1)),
                               rng.standard_normal((n, d)))


def complete_model(n):
    return MixingModel(make_graph_sequence(n, "static", topology="complete"))


def test_unit_quadratic_converges_in_one_step():
    # f_i(x) = 0.5 ||x||^2, gamma = 1: one step lands on the optimum
    problem = LeastSquaresProblem(np.tile(np.eye(2), (3, 1, 1)), np.zeros((3, 2)))
    config = DGDConfig(gamma=1.0, iterations=1, rounds_schedule=1)
    record, x = dgd_run(problem, complete_model(3), config,
                        np.tile([4.0, -2.0], (3, 1)))
    np.testing.assert_allclose(x.mean(axis=0), np.zeros(2), atol=1e-14)
    assert record.f_gap[-1] <= 1e-12


def test_dgd_per_iterate_rate_bound_path_graph():
    # exact oracle, step 1/L_g, 20 gossip rounds: the measured gap stays
    # within one percent of the linear-rate envelope at every iterate
    problem, prof = build_least_squares(4, 5, d_i=2, seed=5)
    model = MixingModel(make_graph_sequence(4, "static", topology="path"))
    config = DGDConfig(gamma=1.0 / prof.L_g, iterations=40, rounds_schedule=20)
    record, _ = dgd_run(problem, model, config, np.zeros((4, 5)))
    rate = 1.0 - prof.mu / prof.L_g
    gap0 = record.f_gap[0]
    for k, gap in zip(record.ks, record.f_gap):
        assert gap <= rate ** k * gap0 * (1.0 + 1e-2)


def test_dgd_noise_floor_quick():
    # identity quadratic, mu = L = 1, gamma = 1: trailing gap under the floor
    problem = unit_quadratic(3, 2, seed=1)
    model = complete_model(3)
    sigma = 0.4
    gaps = []
    for seed in range(10):
        spec = OracleSpec(delta=0.0, sigma=sigma, seed=seed)
        config = DGDConfig(gamma=1.0, iterations=80, rounds_schedule=1,
                           oracle=spec)
        record, _ = dgd_run(problem, model, config, np.zeros((3, 2)))
        gaps.extend(record.f_gap[-16:])
    assert np.mean(gaps) <= sigma ** 2 / 2.0


def test_full_graph_matches_centralized_trajectory():
    problem, prof = build_least_squares(5, 3, seed=6)
    config = DGDConfig(gamma=1.0 / prof.L_g, iterations=60, rounds_schedule=1)
    record, _ = dgd_run(problem, complete_model(5), config, np.zeros((5, 3)))
    central, _ = centralized_gd(problem, 1.0 / prof.L_g, 60)
    for xbar, x in zip(record.xbar, central.xbar):
        assert np.linalg.norm(xbar - x) <= 1e-10


def test_mean_trajectory_follows_averaged_gradient():
    # double stochasticity: xbar_{k+1} = xbar_k - gamma * mean sampled gradient
    problem, prof = build_least_squares(4, 3, seed=7)
    model = MixingModel(make_graph_sequence(4, "static", topology="ring"))
    spec = OracleSpec(delta=0.05, sigma=0.3, seed=3)
    state = OracleState(spec, (4, 3))
    gamma = 1.0 / prof.L_g
    x = np.zeros((4, 3))
    for step in range(25):
        grad = perturb_gradient(problem.grad_stacked(x), state)
        z = x - gamma * grad
        x_next = run_consensus(z, 3, model, 3 * step)
        predicted = x.mean(axis=0) - gamma * grad.mean(axis=0)
        assert np.linalg.norm(x_next.mean(axis=0) - predicted) <= 1e-10
        x = x_next


def test_monotone_descent_once_consensus_tight():
    problem, prof = build_least_squares(4, 3, seed=8)
    model = MixingModel(make_graph_sequence(4, "static", topology="ring"))
    config = DGDConfig(gamma=1.0 / prof.L_g, iterations=60, rounds_schedule=40)
    record, _ = dgd_run(problem, model, config, np.zeros((4, 3)))
    for idx in range(1, len(record.ks)):
        if record.consensus_err_x[idx - 1] <= 1e-6:
            assert record.f_gap[idx] <= record.f_gap[idx - 1] + 1e-9


def test_identical_config_identical_records():
    problem, prof = build_least_squares(4, 3, seed=9)
    model = MixingModel(make_graph_sequence(4, "static", topology="ring"))
    spec = OracleSpec(delta=0.1, sigma=0.5, seed=21)
    config = DGDConfig(gamma=0.5 / prof.L_g, iterations=30, rounds_schedule=2,
                       oracle=spec)
    rec1, x1 = dgd_run(problem, model, config, np.zeros((4, 3)))
    rec2, x2 = dgd_run(problem, model, config, np.zeros((4, 3)))
    assert rec1.f_gap == rec2.f_gap
    assert rec1.consensus_err_x == rec2.consensus_err_x
    np.testing.assert_array_equal(x1, x2)


def test_divergent_step_size_aborts_with_diagnostic():
    problem, prof = build_least_squares(4, 3, seed=10)
    config = DGDConfig(gamma=1e6, iterations=400, rounds_schedule=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="step size"):
            dgd_run(problem, complete_model(4), config, np.zeros((4, 3)))


def test_nonconsensual_start_handling(monkeypatch):
    # runs and budgets start every node from one point: a start whose rows
    # differ is refused before any gossip round, not projected
    calls = _gossip_outputs(monkeypatch)
    problem, prof = build_least_squares(3, 2, seed=11)
    rng = np.random.default_rng(12)
    x0 = rng.standard_normal((3, 2))
    config = DGDConfig(gamma=1.0 / prof.L_g, iterations=2, rounds_schedule=1)
    with pytest.raises(ValueError, match="x0: "):
        dgd_run(problem, complete_model(3), config, x0)
    assert not calls
    saddle, _ = build_robust_ls(3, 2, 2, alpha=2.0, seed=11)
    mgda_config = MGDAConfig(gamma_x=0.01, gamma_y=0.01, outer_iterations=2,
                             inner_iterations=2)
    y0 = rng.standard_normal((3, 2))
    assert consensus_error(x0) > 0 and consensus_error(y0) > 0
    with pytest.raises(ValueError, match="x0: "):
        mgda_run(saddle, complete_model(3), mgda_config, x0, average_projection(y0))
    with pytest.raises(ValueError, match="y0: "):
        mgda_run(saddle, complete_model(3), mgda_config, average_projection(x0), y0)
    assert not calls
    # the projected start is one call away and runs from consensus
    record, _ = dgd_run(problem, complete_model(3), config, average_projection(x0))
    assert record.consensus_err_x[0] == 0.0
    record, _ = mgda_run(saddle, complete_model(3), mgda_config,
                         average_projection(x0), average_projection(y0))
    assert record.consensus_err_x[0] == record.consensus_err_y[0] == 0.0
    assert set(record.meta) == {"f_star", "stochastic", "total_comm_rounds"}
    assert calls


@pytest.mark.parametrize("key, value", [
    ("rounds_x", -1), ("rounds_y", -2), ("rounds_x", 1.5), ("rounds_y", None)])
def test_mgda_config_rejects_bad_round_counts(key, value):
    # a negative count used to pass construction and stop mgda_run mid-way
    # with run_consensus's "round count must be >= 0"
    with pytest.raises(ValueError, match=f"{key}: needs a nonnegative integer"):
        MGDAConfig(gamma_x=0.01, gamma_y=0.01, outer_iterations=2,
                   inner_iterations=3, **{key: value})
    MGDAConfig(gamma_x=0.01, gamma_y=0.01, outer_iterations=2, inner_iterations=3,
               **{key: np.int64(0)})


def test_numpy_round_counts_record_python_int_rounds():
    # the runners cast the counts once; without the cast a numpy.int64 count
    # made every round index and total_comm_rounds a numpy.int64
    ls, prof = build_least_squares(4, 3, seed=5)
    saddle, _ = build_robust_ls(4, 2, 2, alpha=2.0, seed=9)
    model = MixingModel(make_graph_sequence(4, "static", topology="ring"))
    rounds = np.int64(2)
    records = [
        dgd_run(ls, model, DGDConfig(gamma=0.5 / prof.L_g, iterations=3,
                                     rounds_schedule=rounds), np.zeros((4, 3)))[0],
        mgda_run(saddle, model, MGDAConfig(gamma_x=0.01, gamma_y=0.01, outer_iterations=3,
                                           inner_iterations=2, rounds_x=rounds,
                                           rounds_y=rounds),
                 np.zeros((4, 2)), np.zeros((4, 2)))[0]]
    for record, total in zip(records, (3 * 2, 3 * (2 * 2 + 2))):
        assert record.meta["total_comm_rounds"] == total == record.comm_rounds[-1]
        assert {type(t) for t in [*record.comm_rounds, record.meta["total_comm_rounds"]]} == {int}
        json.dumps({"comm_rounds": record.comm_rounds, **record.meta})


def test_mgda_zero_coupling_reduces_to_dgd():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((4, 3, 3))
    y0 = rng.standard_normal((4, 3))
    saddle = RobustLeastSquaresProblem(a, np.zeros((4, 3, 2)), y0, alpha=2.0)
    ls = LeastSquaresProblem(a, y0)
    model = MixingModel(make_graph_sequence(4, "static", topology="ring"))
    spec = OracleSpec(delta=0.05, sigma=0.3, seed=16)
    dgd_config = DGDConfig(gamma=0.02, iterations=30, rounds_schedule=4,
                           oracle=spec)
    rec_dgd, _ = dgd_run(ls, model, dgd_config, np.zeros((4, 3)))
    mgda_config = MGDAConfig(gamma_x=0.02, gamma_y=0.02, outer_iterations=30,
                             inner_iterations=2, rounds_x=4, rounds_y=4,
                             oracle=spec)
    rec_mgda, _ = mgda_run(saddle, model, mgda_config,
                           np.zeros((4, 3)), np.zeros((4, 2)))
    for xbar_dgd, xbar_mgda in zip(rec_dgd.xbar, rec_mgda.xbar):
        assert np.linalg.norm(xbar_dgd - xbar_mgda) <= 1e-12
    # with an exact oracle the inner gradient is identically zero and the
    # adversarial block never moves
    exact_cfg = MGDAConfig(gamma_x=0.02, gamma_y=0.02, outer_iterations=10,
                           inner_iterations=2, rounds_x=4, rounds_y=4)
    rec_exact, (_, y_final) = mgda_run(saddle, model, exact_cfg,
                                       np.zeros((4, 3)), np.zeros((4, 2)))
    np.testing.assert_array_equal(y_final, np.zeros((4, 2)))


def test_mgda_without_budget_skips_per_inner_step_consensus_errors(monkeypatch):
    # the invariant bookkeeping runs only under a budget, so the number of
    # consensus_error calls does not grow with the inner iteration count
    problem, _ = build_robust_ls(4, 2, 2, alpha=2.0, seed=9)
    model = MixingModel(make_graph_sequence(4, "static", topology="ring"))
    calls = []
    original = algorithms.consensus_error
    monkeypatch.setattr(algorithms, "consensus_error",
                        lambda x: calls.append(1) or original(x))
    counts = []
    for inner in (1, 10):
        calls.clear()
        config = MGDAConfig(gamma_x=0.01, gamma_y=0.01, outer_iterations=20,
                            inner_iterations=inner, record_every=5)
        mgda_run(problem, model, config, np.zeros((4, 2)), np.zeros((4, 2)))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_inner_loop_contraction_bound():
    # exact oracle, complete graph, gamma_y = 1/L_yy_g: after N_y ascent
    # steps the inner gap obeys the linear-rate envelope
    problem, prof = build_robust_ls(4, 2, 2, alpha=2.0, seed=9)
    model = complete_model(4)
    n_inner = 12
    config = MGDAConfig(gamma_x=1e-12, gamma_y=1.0 / prof.L_yy_g,
                        outer_iterations=1, inner_iterations=n_inner,
                        rounds_x=1, rounds_y=1)
    _, (_, y) = mgda_run(problem, model, config, np.zeros((4, 2)), np.zeros((4, 2)))
    x0 = np.zeros(2)
    gap0 = problem.f(x0) - problem.phi(x0, np.zeros(2))
    gap_end = problem.f(x0) - problem.phi(x0, y.mean(axis=0))
    rate = (1.0 - prof.mu_y / prof.L_yy_g) ** n_inner
    assert gap_end <= rate * gap0 * (1.0 + 1e-2)


def test_mgda_converges_to_saddle():
    problem, prof = build_robust_ls(4, 2, 2, d_i=4, alpha=2.0, seed=17)
    model = complete_model(4)
    config = MGDAConfig(gamma_x=0.5 / prof.L_x, gamma_y=0.5 / prof.L_yy_g,
                        outer_iterations=400, inner_iterations=5,
                        rounds_x=1, rounds_y=1, record_every=50)
    record, (x, y) = mgda_run(problem, model, config,
                              np.zeros((4, 2)), np.zeros((4, 2)))
    s = problem.saddle
    assert problem.dist_to_saddle(x.mean(axis=0), y.mean(axis=0)) <= 1e-6
    gaps = record.f_gap
    assert gaps[-1] <= 1e-10
    assert record.grad_norm_x[-1] <= 1e-5
    assert record.grad_norm_y[-1] <= 1e-5


def test_mgda_ascends_inner_objective():
    # sign convention: the inner loop must increase phi(xbar, .)
    problem, prof = build_robust_ls(3, 2, 2, alpha=2.0, seed=18)
    model = complete_model(3)
    config = MGDAConfig(gamma_x=1e-12, gamma_y=0.5 / prof.L_yy_g,
                        outer_iterations=1, inner_iterations=8,
                        rounds_x=1, rounds_y=1)
    _, (_, y) = mgda_run(problem, model, config,
                         np.zeros((3, 2)), np.zeros((3, 2)))
    x0 = np.zeros(2)
    assert problem.phi(x0, y.mean(axis=0)) > problem.phi(x0, np.zeros(2))


def test_centralized_gd_monotone_on_quadratic():
    problem, prof = build_least_squares(3, 3, seed=19)
    record, _ = centralized_gd(problem, 1.0 / prof.L_g, 50)
    diffs = np.diff(record.f_gap)
    assert np.all(diffs <= 1e-12)


def test_centralized_gda_reaches_saddle_with_tiny_steps():
    problem, _ = build_robust_ls(3, 2, 2, alpha=2.0, seed=20)
    _, (x, y) = centralized_gda(problem, gamma_x=1e-2, gamma_y=1e-2,
                                outer_iterations=30000, inner_iterations=1,
                                record_every=30000)
    assert problem.dist_to_saddle(x, y) <= 1e-6


def test_mgda_budget_tracking_validates_inner_drift():
    from plnet import budget_saddle
    problem, prof = build_robust_ls(4, 2, 2, d_i=4, alpha=2.0, seed=22)
    model = complete_model(4)
    x0 = np.zeros(2)
    g_gap0 = problem.n * (problem.phi(x0, problem.y_star_of(x0))
                          - problem.phi(x0, np.zeros(2)))
    f_gap0 = problem.n * (problem.f(x0) - problem.f_star)
    budget = budget_saddle(
        prof, model, eps_x=1e-4, eps_y=1e-4,
        delta_prime_x=1e-8, delta_prime_y=1e-8,
        F_gap0=f_gap0, G_gap0=g_gap0,
        grad_F_at_opt=float(np.linalg.norm(problem.grad_stacked_at_opt())),
        grad_G_at_opt=float(np.linalg.norm(
            problem.grad_y_stacked_at_inner_opt(x0))))
    assert budget.T_tot is not None
    config = MGDAConfig(gamma_x=budget.x.gamma, gamma_y=budget.y.gamma,
                        outer_iterations=40, inner_iterations=budget.y.N,
                        rounds_x=budget.x.T, rounds_y=budget.y.T,
                        record_every=10)
    record, _ = mgda_run(problem, model, config,
                         np.zeros((4, 2)), np.zeros((4, 2)), budget=budget)
    # the online drift constants start at the configured bound and shrink
    # as the outer point converges; the realized max must respect D_Y
    drift = record.extras["inner_drift_constants"]
    assert len(drift) == 40
    assert record.extras["inner_drift_max"] <= budget.y.D * (1.0 + 1e-9)
    assert record.extras["max_consensus_err_y"] <= np.sqrt(1e-8)
    assert "inner_target_misses" not in record.extras


def _recorder_evaluating_each_row(problem):
    """A ``_record`` that evaluates every column when the row is recorded.

    Runs that use it measure each recorded point one call at a time, with
    ``consensus_error`` and ``np.linalg.norm`` of single vectors; they are
    the reference the once-per-run evaluation must reproduce bit for bit.
    """
    def record_row(record, k, xs, ys=None, comm_rounds=0):
        xbar = xs.mean(axis=0)
        f_star = record.meta["f_star"]
        record.ks.append(k)
        record.comm_rounds.append(comm_rounds)
        record.xbar.append(xbar)
        record.consensus_err_x.append(consensus_error(xs))
        if ys is None:
            record.f_gap.append(problem.f(xbar) - f_star)
            record.grad_norm_x.append(float(np.linalg.norm(problem.grad_f(xbar))))
            record.consensus_err_y.append(float("nan"))
            record.grad_norm_y.append(float("nan"))
            record.ybar.append(None)
            return
        ybar = ys.mean(axis=0)
        record.ybar.append(ybar)
        record.f_gap.append(problem.phi(xbar, problem.y_star_of(xbar)) - f_star)
        record.grad_norm_x.append(float(np.linalg.norm(problem.grad_x(xbar, ybar))))
        record.consensus_err_y.append(consensus_error(ys))
        record.grad_norm_y.append(float(np.linalg.norm(problem.grad_y(xbar, ybar))))

    return record_row


TRACE_COLUMNS = ("ks", "comm_rounds", "f_gap", "consensus_err_x", "consensus_err_y",
                 "grad_norm_x", "grad_norm_y", "xbar", "ybar")


def _assert_trace_matches_per_row_reference(monkeypatch, problem, run):
    record = run()
    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "_record", _recorder_evaluating_each_row(problem))
        patch.setattr(algorithms, "_evaluate", lambda record, problem: None)
        reference = run()
    for column in TRACE_COLUMNS:
        got, want = getattr(record, column), getattr(reference, column)
        assert len(got) == len(want), column
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b, err_msg=column)
            assert type(a) is type(b), column
    return record


def _gossip_outputs(monkeypatch):
    """Collect every state ``run_consensus`` returns to the runners."""
    outputs = []
    original = algorithms.run_consensus

    def collecting(*args):
        outputs.append(original(*args))
        return outputs[-1]

    monkeypatch.setattr(algorithms, "run_consensus", collecting)
    return outputs


@pytest.mark.parametrize("record_every", [1, 3, 13])
def test_dgd_trace_equals_per_row_evaluation(monkeypatch, record_every):
    problem, prof = build_least_squares(6, 3, d_i=4, seed=31)
    model = MixingModel(make_graph_sequence(6, "static", topology="path"))
    config = DGDConfig(gamma=0.5 / prof.L_g, iterations=12, rounds_schedule=1,
                       oracle=OracleSpec(delta=0.05, sigma=0.05, seed=4),
                       record_every=record_every)
    x0 = np.zeros((6, 3))

    def run():
        return dgd_run(problem, model, config, x0)[0]

    record = _assert_trace_matches_per_row_reference(monkeypatch, problem, run)
    expected_ks = [*range(0, 12, record_every), 12]
    assert record.ks == expected_ks
    iterates = _gossip_outputs(monkeypatch)
    record = run()
    assert len(iterates) == 12
    worst = max(consensus_error(x) for x in [x0, *iterates])
    assert worst > 0.0
    assert record.extras["max_consensus_err_x"] == worst


@pytest.mark.parametrize("with_budget", [False, True])
def test_mgda_trace_equals_per_row_evaluation(monkeypatch, with_budget):
    from plnet import budget_saddle
    problem, prof = build_robust_ls(5, 3, 2, d_i=4, alpha=2.0, seed=23)
    model = MixingModel(make_graph_sequence(5, "static", topology="ring"))
    budget = None
    if with_budget:
        x0 = np.zeros(3)
        budget = budget_saddle(
            prof, model, eps_x=1e-3, eps_y=1e-3,
            delta_prime_x=1e-6, delta_prime_y=1e-6,
            F_gap0=problem.n * (problem.f(x0) - problem.f_star),
            G_gap0=problem.n * (problem.phi(x0, problem.y_star_of(x0))
                                - problem.phi(x0, np.zeros(2))),
            grad_F_at_opt=float(np.linalg.norm(problem.grad_stacked_at_opt())),
            grad_G_at_opt=float(np.linalg.norm(problem.grad_y_stacked_at_inner_opt(x0))))
    config = MGDAConfig(gamma_x=0.02, gamma_y=0.05, outer_iterations=9,
                        inner_iterations=3, rounds_x=1, rounds_y=1,
                        oracle=OracleSpec(delta=0.05, sigma=0.05, seed=6),
                        record_every=2)

    def run():
        return mgda_run(problem, model, config, np.zeros((5, 3)),
                        np.zeros((5, 2)), budget=budget)[0]

    record = _assert_trace_matches_per_row_reference(monkeypatch, problem, run)
    assert record.ks == [0, 2, 4, 6, 8, 9]
    # every run tracks the x-states as dgd_run does; the inner loop's
    # bookkeeping costs a solve per outer iteration and needs the budget
    states = _gossip_outputs(monkeypatch)
    record = run()
    iterates = [x for x in states if x.shape == (5, 3)]
    assert len(iterates) == 9 and len(states) == 9 * 4
    worst = max(consensus_error(x) for x in [np.zeros((5, 3)), *iterates])
    assert worst > 0.0
    assert record.extras["max_consensus_err_x"] == worst
    y_side = record.extras.keys() - {"max_consensus_err_x"}
    assert (y_side >= {"max_consensus_err_y", "inner_drift_constants", "inner_drift_max"}
            if with_budget else not y_side)


def test_centralized_traces_equal_per_row_evaluation(monkeypatch):
    ls, prof = build_least_squares(4, 3, seed=5)
    _assert_trace_matches_per_row_reference(
        monkeypatch, ls, lambda: centralized_gd(ls, 0.5 / prof.L_g, 10, record_every=3)[0])
    saddle, _ = build_robust_ls(4, 2, 3, d_i=5, alpha=2.0, seed=8)
    _assert_trace_matches_per_row_reference(
        monkeypatch, saddle,
        lambda: centralized_gda(saddle, 0.02, 0.05, 7, 4, record_every=2)[0])


@pytest.mark.parametrize("schedule, iterations", [([1, 2], 5), ([1, -2], 2),
                                                  (-1, 3), ([1, 2.5], 2)])
def test_bad_round_schedule_is_rejected_before_the_run(schedule, iterations):
    # a short or negative schedule used to fail mid-run, after earlier
    # iterations had already run
    with pytest.raises(ValueError, match="rounds_schedule"):
        DGDConfig(gamma=0.1, iterations=iterations, rounds_schedule=schedule)


@pytest.mark.parametrize("rows", [1, 2, 9])
def test_record_averages_equal_mean_and_consensus_error(rows):
    # _record forms the mean and the spread with fewer numpy calls; they
    # must equal xs.mean(axis=0) and consensus_error(xs) bit for bit
    rng = np.random.default_rng(rows)
    xs = rng.standard_normal((rows, 4)) * np.exp(rng.uniform(-20, 20, (rows, 1)))
    ys = np.asfortranarray(rng.standard_normal((rows, 3)) + 1e8)
    record = algorithms.RunRecord()
    algorithms._record(record, 0, xs, ys)
    assert (record.xbar[0] == xs.mean(axis=0)).all()
    assert (record.ybar[0] == ys.mean(axis=0)).all()
    assert record.consensus_err_x == [consensus_error(xs)]
    assert record.consensus_err_y == [consensus_error(ys)]


def test_budget_tracking_solves_the_inner_maximizer_once_per_outer_iteration(monkeypatch):
    # the drift constant and the inner gap solved y*(xbar) three times per
    # outer iteration between them, and averaged x three times; one solve
    # serves both, and the trace evaluation adds one batched solve
    cfg = {"problem": {"kind": "robust_ls", "n": 6, "d_x": 2, "d_y": 2, "seed": 0},
           "graph": {"kind": "static", "topology": "ring"},
           "algorithm": {"kind": "mgda", "theory_auto": True, "eps": 1e-3, "eps_y": 1e-4,
                         "delta_prime": 1e-6, "delta_prime_y": 1e-6},
           "oracle": {"sigma": 0.02}}
    budget, _ = harness.theory_report(cfg)
    problem, _ = build_robust_ls(6, 2, 2, seed=0)
    model = MixingModel(make_graph_sequence(6, "static", topology="ring"))
    config = MGDAConfig(gamma_x=budget.x.gamma, gamma_y=budget.y.gamma,
                        outer_iterations=budget.x.N, inner_iterations=budget.y.N,
                        rounds_x=budget.x.T, rounds_y=budget.y.T,
                        oracle=OracleSpec(sigma=0.02))
    calls = []
    solve = RobustLeastSquaresProblem.y_star_of
    monkeypatch.setattr(RobustLeastSquaresProblem, "y_star_of",
                        lambda self, x: calls.append(x) or solve(self, x))
    record, _ = mgda_run(problem, model, config, np.zeros((6, 2)), np.zeros((6, 2)),
                         budget=budget)
    assert budget.x.N == 39
    assert len(calls) == budget.x.N + 1
    assert len(record.extras["inner_drift_constants"]) == budget.x.N
