"""
Configuration-driven experiment runner.

One experiment is one self-contained JSON config file describing the
problem, the communication graph, the algorithm, the oracle and the seeds
to run. Results land in a CSV trace (one row per recorded iteration per
run) plus a JSON sidecar with the resolved config, the instance constants
and the evaluated theory budget. Reruns of the same config are
byte-identical; wall-clock measurement is off by default (the column is
written as 0) precisely so that holds, and can be enabled explicitly.

Seeds drive the oracle noise stream of each run; with
``seed_scope = "problem-and-oracle"`` they re-draw the problem data too
(used for seed-averaged trends across instance sizes). Graph randomness
always comes from the graph's own seed: the network is part of the
environment, not of a run.
"""

import csv
import io
import json
import math
import os

import numpy as np

from . import algorithms, problems, theory, topology
from .oracles import OracleSpec

__all__ = ["ConfigError", "load_config", "run", "sweep", "validate", "theory_report"]

CSV_HEADER = ["run_id", "seed", "k", "comm_rounds", "f_gap",
              "consensus_err_x", "consensus_err_y", "grad_norm_x",
              "grad_norm_y", "bound_f_gap", "wall_time_s"]

SWEEP_HEADER = ["axis", "value", "run_id", "seed", "final_f_gap",
                "final_consensus_err_x", "final_consensus_err_y",
                "total_comm_rounds", "wall_time_s"]


class ConfigError(ValueError):
    """Invalid experiment config; message is anchored to file and key."""


def _fmt(x):
    """Serialize one CSV cell: floats at 17 significant digits, blanks for NaN."""
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return format(x, ".17g")
    return str(x)


def _read_config(path):
    try:
        with open(path, "rt", encoding="utf-8") as fh:
            raw = fh.read()
        return json.loads(raw)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc


def load_config(path):
    """Parse and validate a config file; returns the resolved dict."""
    return resolve_config(_read_config(path), source=str(path))


def _raw_config(config_or_path):
    """The unresolved config dict behind a path or dict, and its source label."""
    if isinstance(config_or_path, (str, os.PathLike)):
        return _read_config(config_or_path), str(config_or_path)
    return config_or_path, "<config>"


def _load(config_or_path):
    return resolve_config(*_raw_config(config_or_path))


def _require(cfg, key, source, section=None):
    scope = cfg if section is None else cfg.get(section, {})
    label = key if section is None else f"{section}.{key}"
    if key not in scope:
        raise ConfigError(f"{source}: {label}: missing required field")
    return scope[key]


def resolve_config(cfg, source="<config>"):
    """Fill defaults and check cross-field consistency of a config dict."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{source}: top level must be an object")
    out = json.loads(json.dumps(cfg))  # deep copy, JSON-typed
    prob = out.setdefault("problem", {})
    kind = _require(out, "kind", source, "problem")
    if kind not in ("least_squares", "quadratic", "robust_ls"):
        raise ConfigError(f"{source}: problem.kind: unknown kind {kind!r}")
    n = _require(out, "n", source, "problem")
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"{source}: problem.n: must be a positive integer")
    prob.setdefault("seed", 0)
    if kind == "robust_ls":
        for key in ("d_x", "d_y"):
            _require(out, key, source, "problem")
        prob.setdefault("d_i", prob["d_x"])
        prob.setdefault("alpha", 2.0)
        if prob["alpha"] <= 1:
            raise ConfigError(f"{source}: problem.alpha: must be > 1")
    else:
        _require(out, "d", source, "problem")
        prob.setdefault("d_i", prob["d"])
    graph = out.setdefault("graph", {})
    graph.setdefault("kind", "static")
    if graph["kind"] not in ("static", "per-step-connected", "tau-connected"):
        raise ConfigError(f"{source}: graph.kind: unknown kind {graph['kind']!r}")
    graph.setdefault("topology", "complete")
    graph.setdefault("tau", 1)
    graph.setdefault("seed", 0)
    algo = out.setdefault("algorithm", {})
    akind = _require(out, "kind", source, "algorithm")
    if akind not in ("dgd", "mgda", "centralized_gd", "centralized_gda"):
        raise ConfigError(f"{source}: algorithm.kind: unknown kind {akind!r}")
    if akind in ("mgda", "centralized_gda") and kind != "robust_ls":
        raise ConfigError(f"{source}: algorithm.kind: {akind} needs a robust_ls problem")
    algo.setdefault("record_every", 1)
    algo.setdefault("theory_auto", False)
    if algo["theory_auto"] and akind not in ("dgd", "mgda"):
        raise ConfigError(f"{source}: algorithm.theory_auto: budgets exist only "
                          "for dgd and mgda runs")
    if algo["theory_auto"]:
        for key in ("eps", "delta_prime"):
            _require(out, key, source, "algorithm")
        if akind == "mgda":
            for key in ("eps_y", "delta_prime_y"):
                _require(out, key, source, "algorithm")
    else:
        if akind in ("dgd", "centralized_gd"):
            _require(out, "iterations", source, "algorithm")
        else:
            _require(out, "outer_iterations", source, "algorithm")
            _require(out, "inner_iterations", source, "algorithm")
    if akind in ("dgd", "centralized_gd"):
        if not algo["theory_auto"]:
            _require(out, "gamma", source, "algorithm")
        algo.setdefault("rounds", 1)
    else:
        if not algo["theory_auto"]:
            _require(out, "gamma_x", source, "algorithm")
            _require(out, "gamma_y", source, "algorithm")
        algo.setdefault("rounds_x", algo.get("rounds", 1))
        algo.setdefault("rounds_y", algo.get("rounds", 1))
    if out.get("overlay_bounds"):
        if akind != "dgd":
            raise ConfigError(f"{source}: overlay_bounds: only supported for dgd runs")
        for key in ("eps", "delta_prime"):
            _require(out, key, source, "algorithm")
    oracle = out.setdefault("oracle", {})
    oracle.setdefault("delta", 0.0)
    oracle.setdefault("sigma", 0.0)
    oracle.setdefault("bias_mode", "fixed-direction")
    oracle.setdefault("noise_mode", "gaussian-isotropic")
    oracle.setdefault("seed", 0)
    try:
        OracleSpec(**oracle)
    except ValueError as exc:
        raise ConfigError(f"{source}: oracle: {exc}") from exc
    seeds = out.setdefault("seeds", [oracle["seed"]])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"{source}: seeds: must be a nonempty list")
    out.setdefault("seed_scope", "oracle")
    if out["seed_scope"] not in ("oracle", "problem-and-oracle"):
        raise ConfigError(f"{source}: seed_scope: unknown value")
    out.setdefault("init", "zero")
    if out["init"] not in ("zero", "random"):
        raise ConfigError(f"{source}: init: must be 'zero' or 'random'")
    out.setdefault("overlay_bounds", False)
    out.setdefault("record_wall_time", False)
    out.setdefault("output", "trace")
    return out


def _build_problem(cfg, seed_override=None):
    prob = cfg["problem"]
    seed = prob["seed"] if seed_override is None else seed_override
    if prob["kind"] == "robust_ls":
        problem, _ = problems.build_robust_ls(
            prob["n"], prob["d_x"], prob["d_y"], prob["d_i"],
            prob.get("alpha", 2.0), seed)
    else:
        problem, _ = problems.build_least_squares(
            prob["n"], prob["d"], prob["d_i"], seed,
            identity=prob["kind"] == "quadratic")
    return problem


def _build_model(cfg):
    graph = cfg["graph"]
    n = cfg["problem"]["n"]
    params = {k: v for k, v in graph.items() if k != "kind"}
    seq = topology.make_graph_sequence(n, graph["kind"], **params)
    return topology.MixingModel(seq)


def _constants(problem, model):
    out = {"tau": model.tau, "lam": model.lam, "n": problem.n}
    if problem.kind == "robust_ls":
        prof = problem.saddle_profile
        out.update(L_xx_g=prof.L_xx_g, L_xy_g=prof.L_xy_g,
                   L_yx_g=prof.L_yx_g, L_yy_g=prof.L_yy_g,
                   L_xx_l=prof.L_xx_l, L_xy_l=prof.L_xy_l,
                   L_yx_l=prof.L_yx_l, L_yy_l=prof.L_yy_l,
                   mu_x=prof.mu_x, mu_y=prof.mu_y, L_x=prof.L_x)
    else:
        prof = problem.profile
        out.update(L_l=prof.L_l, L_g=prof.L_g, mu=prof.mu)
    return out


def _theory_budget(cfg, problem, model):
    """Evaluate the budget matching the configured algorithm and oracle.

    An explicit step size below 1/L_g selects the small-step variant so
    the overlaid rate is 1 - gamma*mu, matching the run.
    """
    algo, oracle = cfg["algorithm"], cfg["oracle"]
    if algo["kind"] == "dgd":
        x0 = np.zeros(problem.d)
        f0_gap = problem.f(x0) - problem.f_star
        grad_norm = float(np.linalg.norm(problem.grad_stacked_at_opt()))
        gamma = algo.get("gamma")
        theory_gamma = 1.0 / problem.profile.L_g
        try:
            if oracle["sigma"] > 0 or (
                    gamma is not None and gamma < theory_gamma * (1 - 1e-12)):
                return theory.budget_min_stochastic(
                    problem.profile, model, algo["eps"], algo["delta_prime"],
                    oracle["delta"], oracle["sigma"], f0_gap, grad_norm,
                    gamma=gamma)
            return theory.budget_min_deterministic(
                problem.profile, model, algo["eps"], algo["delta_prime"],
                oracle["delta"], f0_gap, grad_norm)
        except ValueError as exc:
            raise ConfigError(f"algorithm: no theory budget: {exc}") from exc
    x0 = np.zeros(problem.d_x)
    y0 = np.zeros(problem.d_y)
    f_gap0 = problem.f_of_max(x0) - problem.phi_star
    g_gap0 = problem.phi(x0, problem.y_star_of(x0)) - problem.phi(x0, y0)
    return theory.budget_saddle(
        problem.saddle_profile, model,
        eps_x=algo["eps"], eps_y=algo["eps_y"],
        delta_prime_x=algo["delta_prime"], delta_prime_y=algo["delta_prime_y"],
        delta=oracle["delta"], sigma=oracle["sigma"],
        F_gap0=problem.n * f_gap0, G_gap0=problem.n * max(g_gap0, 0.0),
        grad_F_at_opt=float(np.linalg.norm(problem.grad_x_stacked_at_saddle())),
        grad_G_at_opt=float(np.linalg.norm(
            problem.grad_y_stacked_at_inner_opt(x0))),
        mode="stochastic" if oracle["sigma"] > 0 else "deterministic")


def _budget_dict(budget):
    if budget is None:
        return None
    out = {}
    for key, val in vars(budget).items():
        if isinstance(val, tuple):
            out[key] = list(val)
        else:
            out[key] = val
    if hasattr(budget, "N_tot"):
        out["N_tot"] = budget.N_tot
    if hasattr(budget, "T_tot"):
        out["T_tot"] = budget.T_tot
    return out


def _init_state(shape, mode, seed):
    if mode == "zero":
        return np.zeros(shape)
    rng = np.random.default_rng([seed, 97])
    return np.tile(rng.standard_normal(shape[1]), (shape[0], 1))


def _settings(cfg, problem, model):
    """Concrete algorithm settings and the theory budget for one config.

    The budget is evaluated on the base instance when ``theory_auto`` or
    ``overlay_bounds`` asks for it. With ``theory_auto`` the iteration and
    round counts, and any step size the config leaves unset, come from it.
    Returns ``(algorithm dict, budget or None)``; ``cfg`` is not modified.
    """
    algo = dict(cfg["algorithm"])
    budget = None
    if algo["theory_auto"] or cfg["overlay_bounds"]:
        budget = _theory_budget(cfg, problem, model)
    if not algo["theory_auto"]:
        return algo, budget
    if algo["kind"] == "dgd":
        if budget.T is None:
            raise ConfigError("theory_auto: consensus target unreachable (T is None)")
        algo.update(iterations=budget.N, rounds=budget.T)
        algo.setdefault("gamma", budget.gamma)
        return algo, budget
    counts = dict(outer_iterations=budget.N_x, inner_iterations=budget.N_y,
                  rounds_x=budget.T_x, rounds_y=budget.T_y)
    if None in counts.values():
        raise ConfigError("theory_auto: saddle budget not usable for configuration")
    algo.update(counts)
    algo.setdefault("gamma_x", budget.gamma_x)
    algo.setdefault("gamma_y", budget.gamma_y)
    return algo, budget


def _single_run(cfg, algo, problem, model, run_seed):
    """One run of concrete settings ``algo`` on one instance; returns its record."""
    oracle = OracleSpec(**dict(cfg["oracle"], seed=run_seed))
    measure = cfg["record_wall_time"]
    kind = algo["kind"]
    if kind == "centralized_gd":
        return algorithms.centralized_gd(
            problem, algo["gamma"], algo["iterations"],
            record_every=algo["record_every"])[0]
    if kind == "centralized_gda":
        return algorithms.centralized_gda(
            problem, algo["gamma_x"], algo["gamma_y"],
            algo["outer_iterations"], algo["inner_iterations"],
            record_every=algo["record_every"])[0]
    if kind == "dgd":
        config = algorithms.DGDConfig(
            gamma=algo["gamma"], iterations=algo["iterations"],
            rounds_schedule=algo["rounds"], oracle=oracle,
            record_every=algo["record_every"], measure_time=measure)
        x0 = _init_state((problem.n, problem.d), cfg["init"], run_seed)
        return algorithms.dgd_run(problem, model, config, x0)[0]
    config = algorithms.MGDAConfig(
        gamma_x=algo["gamma_x"], gamma_y=algo["gamma_y"],
        outer_iterations=algo["outer_iterations"],
        inner_iterations=algo["inner_iterations"],
        rounds_x=algo["rounds_x"], rounds_y=algo["rounds_y"], oracle=oracle,
        record_every=algo["record_every"], measure_time=measure)
    x0 = _init_state((problem.n, problem.d_x), cfg["init"], run_seed)
    y0 = _init_state((problem.n, problem.d_y), cfg["init"], run_seed + 1)
    return algorithms.mgda_run(problem, model, model, config, x0, y0)[0]


def _execute(cfg):
    """Build the instance and network of a resolved config and run every seed.

    Returns ``(problem, model, budget, results)``; ``results`` lists
    ``(run_id, seed, outcome)`` per seed, where ``outcome`` is the run's
    RunRecord or the DivergenceError that ended it.
    """
    problem = _build_problem(cfg)
    model = _build_model(cfg) if cfg["algorithm"]["kind"] in ("dgd", "mgda") else None
    algo, budget = _settings(cfg, problem, model)
    results = []
    for idx, seed in enumerate(cfg["seeds"]):
        run_id = f"{algo['kind']}-{idx:03d}"
        prob_i = problem
        if cfg["seed_scope"] == "problem-and-oracle":
            prob_i = _build_problem(cfg, seed_override=seed)
        try:
            outcome = _single_run(cfg, algo, prob_i, model, seed)
        except algorithms.DivergenceError as exc:
            outcome = exc
        results.append((run_id, seed, outcome))
    return problem, model, budget, results


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def run(config_or_path, output=None):
    """Execute all seeds of one config; write the trace CSV and sidecar.

    Returns ``(csv_path, sidecar_path, failures)`` where ``failures`` lists
    ``(run_id, message)`` for runs that diverged (those contribute a single
    failure row with ``k = -1`` instead of a trace).
    """
    cfg = _load(config_or_path)
    out_base = output if output is not None else cfg["output"]
    problem, model, budget, results = _execute(cfg)
    rows = []
    run_meta = []
    failures = []
    for run_id, seed, record in results:
        if isinstance(record, algorithms.DivergenceError):
            failures.append((run_id, str(record)))
            rows.append([run_id, seed, -1, 0, float("nan"), float("nan"),
                         float("nan"), float("nan"), float("nan"), None, 0.0])
            run_meta.append({"run_id": run_id, "seed": seed,
                             "status": f"diverged: {record}"})
            continue
        bounds = [None] * len(record.ks)
        if cfg["overlay_bounds"]:
            # bound trace only; violation flagging (seed-averaged for the
            # stochastic mode) is theory.overlay_bounds' job
            bounds = budget.rate ** np.asarray(record.ks) * record.f_gap[0] + budget.floor
        rows.extend([run_id, seed, *cells] for cells in zip(
            record.ks, record.comm_rounds, record.f_gap, record.consensus_err_x,
            record.consensus_err_y, record.grad_norm_x, record.grad_norm_y,
            bounds, record.wall_time))
        run_meta.append({"run_id": run_id, "seed": seed, "status": "ok",
                         "f_star_source": record.meta.get("f_star_source"),
                         "total_comm_rounds": record.meta.get("total_comm_rounds", 0)})
    rows.sort(key=lambda r: (r[0], r[2]))
    csv_path = _write_csv(f"{out_base}.csv", CSV_HEADER, rows)
    sidecar_path = f"{out_base}.meta.json"
    sidecar = {
        "config": cfg,
        "constants": _constants(problem, model) if model else {"n": problem.n},
        "budget": _budget_dict(budget),
        "runs": run_meta,
    }
    with open(sidecar_path, "wt", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, sidecar_path, failures


AXIS_SECTIONS = ("problem", "graph", "algorithm", "oracle")


def _axis_field(cfg, axis):
    """``(section, key)`` of a numeric sweep axis in a resolved config."""
    if "." in axis:
        section, key = axis.split(".", 1)
        if section not in AXIS_SECTIONS or key not in cfg.get(section, {}):
            raise ConfigError(f"sweep axis {axis!r} not found in config")
    else:
        hits = [s for s in AXIS_SECTIONS if axis in cfg.get(s, {})]
        if not hits:
            raise ConfigError(f"sweep axis {axis!r} not found in config")
        if len(hits) > 1:
            raise ConfigError(f"sweep axis {axis!r} is ambiguous across {hits}; "
                              "use a dotted path")
        section, key = hits[0], axis
    if not isinstance(cfg[section][key], (int, float)):
        raise ConfigError(f"sweep axis {axis!r} is not numeric")
    return section, key


def sweep(config_or_path, axis, values, output=None):
    """Run the config once per axis value; write one summary row per run.

    Returns ``(csv_path, failures)``. The axis is a numeric config field,
    named bare (searched across sections) or as ``section.key``. Each value
    is written into the config as given and the result resolved afresh, so
    defaults derived from the axis (MGDA ``rounds_x``/``rounds_y`` from
    ``rounds``) follow it.
    """
    raw, source = _raw_config(config_or_path)
    base = resolve_config(raw, source)
    section, key = _axis_field(base, axis)
    out_base = output if output is not None else base["output"]
    rows = []
    failures = []
    for value in values:
        swept = json.loads(json.dumps(raw))
        swept.setdefault(section, {})[key] = type(base[section][key])(value)
        _, _, _, results = _execute(resolve_config(swept, source))
        for run_id, seed, record in results:
            if isinstance(record, algorithms.DivergenceError):
                failures.append((f"{axis}={value}", run_id, str(record)))
                rows.append([axis, str(value), run_id, seed, float("nan"),
                             float("nan"), float("nan"), 0, 0.0])
                continue
            rows.append([
                axis, str(value), run_id, seed, record.f_gap[-1],
                record.consensus_err_x[-1], record.consensus_err_y[-1],
                record.meta.get("total_comm_rounds", 0),
                record.wall_time[-1],
            ])
    return _write_csv(f"{out_base}.sweep.csv", SWEEP_HEADER, rows), failures


def validate(config_or_path):
    """Run the construction and invariant checks behind a config.

    Returns ``(checks, ok)`` where ``checks`` is a list of
    ``(name, passed, detail)``. Failures are report entries, not errors.
    """
    checks = []
    try:
        cfg = _load(config_or_path)
        checks.append(("config", True, "parsed and resolved"))
    except ConfigError as exc:
        return [("config", False, str(exc))], False
    problem = None
    try:
        problem = _build_problem(cfg)
        checks.append(("problem", True, f"{problem.kind} built"))
    except (ValueError, np.linalg.LinAlgError) as exc:
        checks.append(("problem", False, str(exc)))
    if problem is not None:
        try:
            report = problems.pl_qg_report(problem, num_points=50,
                                           seed=cfg["problem"]["seed"])
            checks.append(("pl_qg", report.ok(),
                           f"max PL ratio {report.max_pl_ratio:.6g}, "
                           f"max QG ratio {report.max_qg_ratio:.6g}"))
        except ValueError as exc:
            checks.append(("pl_qg", False, str(exc)))
    try:
        model = _build_model(cfg)
        bad = []
        for k in range(3):
            rep = topology.validate_mixing(model.matrix_at(k), model.seq, k)
            if not rep.passed:
                bad.append((k, rep.details))
        checks.append(("mixing", not bad,
                       "doubly stochastic with correct zero pattern"
                       if not bad else f"failed at rounds {bad}"))
        lam = model.lam
        checks.append(("contraction", bool(0.0 < lam <= 1.0),
                       f"contraction factor {lam:.6g}"))
    except topology.NonContractiveSequenceError as exc:
        checks.append(("contraction", False, str(exc)))
    except ValueError as exc:
        checks.append(("mixing", False, str(exc)))
    try:
        OracleSpec(delta=cfg["oracle"]["delta"], sigma=cfg["oracle"]["sigma"],
                   bias_mode=cfg["oracle"]["bias_mode"],
                   noise_mode=cfg["oracle"]["noise_mode"],
                   seed=cfg["oracle"]["seed"])
        checks.append(("oracle", True, "spec valid"))
    except ValueError as exc:
        checks.append(("oracle", False, str(exc)))
    return checks, all(passed for _, passed, _ in checks)


def theory_report(config_or_path):
    """Evaluate the budget for a config; returns (budget, constants dict)."""
    cfg = _load(config_or_path)
    if cfg["algorithm"]["kind"] not in ("dgd", "mgda"):
        raise ConfigError("theory budgets apply to the decentralized algorithms")
    for key in ("eps", "delta_prime"):
        if key not in cfg["algorithm"]:
            raise ConfigError(f"algorithm.{key}: required for a theory budget")
    if cfg["algorithm"]["kind"] == "mgda":
        for key in ("eps_y", "delta_prime_y"):
            if key not in cfg["algorithm"]:
                raise ConfigError(f"algorithm.{key}: required for a theory budget")
    problem = _build_problem(cfg)
    model = _build_model(cfg)
    budget = _theory_budget(cfg, problem, model)
    return budget, _constants(problem, model)
