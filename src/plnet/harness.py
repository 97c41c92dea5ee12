"""
Configuration-driven experiment runner.

One experiment is one self-contained JSON config file describing the
problem, the communication graph, the algorithm, the oracle and the seeds
to run. Results land in a CSV trace (one row per recorded iteration per
run) plus a JSON sidecar with the resolved config, the instance constants
and the evaluated theory budget. Reruns of the same config are
byte-identical: every run measures its wall time, but the column is
written as 0 unless ``record_wall_time`` asks for the measured values.

Seeds drive the oracle noise stream of each run; with
``seed_scope = "problem-and-oracle"`` they re-draw the problem data too
(used for seed-averaged trends across instance sizes). Graph randomness
always comes from the graph's own seed: the network is part of the
environment, not of a run.
"""

import csv
import json
import math
import operator
import os
from collections import namedtuple

import numpy as np

from . import algorithms, problems, theory, topology
from .oracles import BIAS_MODES, OracleSpec

__all__ = ["ConfigError", "load_config", "run", "sweep", "validate", "theory_report"]

CSV_HEADER = ["run_id", "seed", "k", "comm_rounds", "f_gap",
              "consensus_err_x", "consensus_err_y", "grad_norm_x",
              "grad_norm_y", "bound_f_gap", "wall_time_s"]


class ConfigError(ValueError):
    """Invalid experiment config; message is anchored to file and key."""


# One row per config field, walked in this order; section "" is the top level.
# A key with no row is refused, so a misspelled one cannot quietly run the
# default. ``kind`` is int (not bool), float (finite, int or float), bool, str,
# list, or the tuple of an enum's values; ``bound`` is the (op, limit) that the
# value, or a list's length, must satisfy. ``default`` fills an absent field, or
# is _REQUIRED; ``when`` limits either to the configs it holds for. ``item`` is
# the row of each list entry. Defaults read from other fields, and the rules
# that join fields, are resolve_config's code after the walk.
_Field = namedtuple("_Field", "kind bound default when item", defaults=(None,) * 4)
_REQUIRED = object()
_SECTIONS = ("problem", "graph", "algorithm", "oracle")
_OPS = {">=": operator.ge, ">": operator.gt, "==": operator.eq}
_NOUNS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", list: "a list"}


def _saddle(cfg):
    return cfg["problem"]["kind"] == "robust_ls"


def _fixed(kind):
    """Predicate: the algorithm is ``kind`` with its steps and counts set by hand."""
    return lambda cfg: cfg["algorithm"]["kind"] == kind and not cfg["algorithm"]["theory_auto"]


_SCHEMA = {(section, key): field for (section, keys), field in {
    ("problem", "kind"): _Field(("least_squares", "quadratic", "robust_ls"), None, _REQUIRED),
    ("problem", "n"): _Field(int, (">=", 1), _REQUIRED),
    ("problem", "seed"): _Field(int, (">=", 0), 0),
    ("problem", "d"): _Field(int, (">=", 1), _REQUIRED, lambda cfg: not _saddle(cfg)),
    ("problem", "d_x d_y"): _Field(int, (">=", 1), _REQUIRED, _saddle),
    ("problem", "d_i"): _Field(int, (">=", 1)),
    ("problem", "alpha"): _Field(float, (">", 1), 2.0, _saddle),
    ("graph", "kind"): _Field(("static", "per-step-connected", "tau-connected"), None, "static"),
    ("graph", "topology"): _Field(("complete", "ring", "path", "star", "empty", "random"), None,
                                  "complete"),
    ("graph", "tau"): _Field(int, (">=", 1), 1),
    ("graph", "seed"): _Field(int, (">=", 0), 0),
    ("graph", "degree"): _Field(int, (">=", 1)),
    ("graph", "edges"): _Field(list, item=_Field(list, ("==", 2), item=_Field(int, (">=", 0)))),
    ("algorithm", "kind"): _Field(("dgd", "mgda"), None, _REQUIRED),
    ("algorithm", "theory_auto"): _Field(bool, None, False),
    ("algorithm", "iterations"): _Field(int, (">=", 0), _REQUIRED, _fixed("dgd")),
    ("algorithm", "gamma"): _Field(float, (">", 0), _REQUIRED, _fixed("dgd")),
    ("algorithm", "outer_iterations inner_iterations"): _Field(int, (">=", 0), _REQUIRED,
                                                               _fixed("mgda")),
    ("algorithm", "gamma_x gamma_y"): _Field(float, (">", 0), _REQUIRED, _fixed("mgda")),
    ("algorithm", "rounds"): _Field(int, (">=", 0), 1,
                                    lambda cfg: cfg["algorithm"]["kind"] == "dgd"),
    ("algorithm", "rounds_x rounds_y"): _Field(int, (">=", 0)),
    ("algorithm", "record_every"): _Field(int, (">=", 1), 1),
    ("algorithm", "eps eps_y"): _Field(float, (">", 0)),
    ("algorithm", "delta_prime delta_prime_y"): _Field(float, (">=", 0)),
    ("oracle", "delta sigma"): _Field(float, (">=", 0), 0.0),
    ("oracle", "bias_mode"): _Field(BIAS_MODES, None, "fixed-direction"),
    ("oracle", "seed"): _Field(int, (">=", 0), 0),
    ("", "seeds"): _Field(list, (">=", 1), item=_Field(int, (">=", 0))),
    ("", "seed_scope"): _Field(("oracle", "problem-and-oracle"), None, "oracle"),
    ("", "init"): _Field(str, None, "zero"),
    ("", "overlay_bounds record_wall_time"): _Field(bool, None, False),
    ("", "output"): _Field(str, None, "trace"),
}.items() for key in keys.split()}
_KNOWN = {section: {key for s, key in _SCHEMA if s == section} for section in ("",) + _SECTIONS}
_KNOWN[""].update(_SECTIONS)


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
    """The resolved config behind a path or dict, and its source label."""
    raw, source = _raw_config(config_or_path)
    return resolve_config(raw, source), source


def _check(value, field, label, source):
    """``value`` as the resolved config holds it (lists copied, a float subclass
    made a float), once it has the type and bound of ``field``."""
    kind, bound = field.kind, field.bound
    if type(kind) is tuple:
        if value not in kind:
            raise ConfigError(f"{source}: {label}: unknown {label.rpartition('.')[2]} "
                              f"{value!r}, expected one of {', '.join(kind)}")
        return value
    if kind is float:
        ok = type(value) is int or isinstance(value, float) and math.isfinite(value)
        value = float(value) if ok and type(value) is not int else value
    else:
        ok = isinstance(value, (list, tuple)) if kind is list else type(value) is kind
    if not ok or bound and not _OPS[bound[0]](len(value) if kind is list else value, bound[1]):
        rule = f"{' of length' if kind is list else ''} {bound[0]} {bound[1]}" if bound else ""
        raise ConfigError(f"{source}: {label}: must be {_NOUNS[kind]}{rule}")
    if kind is list:
        return [_check(entry, field.item, f"{label}[{idx}]", source)
                for idx, entry in enumerate(value)]
    return value


def _require_targets(cfg, source):
    """Require the accuracy and consensus targets a theory budget needs."""
    algo = cfg["algorithm"]
    mgda = algo["kind"] == "mgda"
    for key in ("eps", "delta_prime") + (("eps_y", "delta_prime_y") if mgda else ()):
        if key not in algo:
            raise ConfigError(f"{source}: algorithm.{key}: missing required field")


def resolve_config(cfg, source="<config>"):
    """The resolved copy of a config dict: each field checked against ``_SCHEMA``
    and defaulted, then the rules that join fields checked."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{source}: top level must be an object")
    scopes = {"": cfg, **{section: cfg.get(section, {}) for section in _SECTIONS}}
    for section, scope in scopes.items():
        if not isinstance(scope, dict):
            raise ConfigError(f"{source}: {section}: must be an object")
        unknown = scope.keys() - _KNOWN[section]
        if unknown:
            label = f"{section}.{min(unknown)}" if section else min(unknown)
            raise ConfigError(f"{source}: {label}: unknown field")
    out = {section: {} for section in _SECTIONS}
    for (section, key), field in _SCHEMA.items():
        resolved = out[section] if section else out
        label = f"{section}.{key}" if section else key
        if key in scopes[section]:
            resolved[key] = _check(scopes[section][key], field, label, source)
        elif field.default is not None and (field.when is None or field.when(out)):
            if field.default is _REQUIRED:
                raise ConfigError(f"{source}: {label}: missing required field")
            resolved[key] = field.default
    prob, graph, algo = out["problem"], out["graph"], out["algorithm"]
    prob.setdefault("d_i", prob["d_x"] if _saddle(out) else prob["d"])
    if graph["tau"] != 1 and graph["kind"] != "tau-connected":
        raise ConfigError(f"{source}: graph.tau: {graph['tau']} on a {graph['kind']} graph: "
                          "only tau-connected graphs read tau")
    for idx, (i, j) in enumerate(graph.get("edges", ())):
        if i == j or max(i, j) >= prob["n"]:
            raise ConfigError(f"{source}: graph.edges[{idx}]: must join two distinct "
                              "nodes below problem.n")
    if prob["kind"] == "quadratic" and prob["d_i"] != prob["d"]:
        raise ConfigError(f"{source}: problem.d_i: must equal problem.d on a quadratic problem")
    if (algo["kind"] == "mgda") != _saddle(out):
        raise ConfigError(f"{source}: algorithm.kind: {algo['kind']} cannot run a "
                          f"{prob['kind']} problem: mgda runs robust_ls, dgd the others")
    if algo["kind"] == "mgda":
        algo.setdefault("rounds_x", algo.get("rounds", 1))
        algo.setdefault("rounds_y", algo.get("rounds", 1))
    if out["overlay_bounds"] and algo["kind"] != "dgd":
        raise ConfigError(f"{source}: overlay_bounds: only supported for dgd runs")
    if algo["theory_auto"] or out["overlay_bounds"]:
        _require_targets(out, source)
    out.setdefault("seeds", [out["oracle"]["seed"]])
    if out["init"] != "zero":
        raise ConfigError(f"{source}: init: must be 'zero': runs and budgets "
                          "start from the zero point")
    return out


def _build_problem(cfg, source="<config>", seed_override=None):
    """A config's instance with its optimum solved, or a refusal at ``problem``;
    ``seed_override`` re-draws the data, as a ``problem-and-oracle`` seed does."""
    prob = cfg["problem"]
    seed = prob["seed"] if seed_override is None else seed_override
    try:
        if prob["kind"] == "robust_ls":
            problem, _ = problems.build_robust_ls(
                prob["n"], prob["d_x"], prob["d_y"], prob["d_i"], prob["alpha"], seed)
            problem.phi_star
        else:
            problem, _ = problems.build_least_squares(
                prob["n"], prob["d"], prob["d_i"], seed,
                identity=prob["kind"] == "quadratic")
            problem.f_star
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ConfigError(f"{source}: problem: {exc}") from exc
    return problem


def _network(cfg, source):
    """The mixing model of a config's graph, refused at ``graph`` if it cannot
    mix. A periodic sequence has its contraction factor measured here; a
    per-step-connected one draws a connected graph every round."""
    try:
        model = topology.MixingModel(
            topology.make_graph_sequence(cfg["problem"]["n"], **cfg["graph"]))
        if model.seq.period is not None:
            model.lam
    except ValueError as exc:
        raise ConfigError(f"{source}: graph: {exc}") from exc
    return model


def _constants(problem, model):
    """Instance and network constants for the sidecar.

    ``lam_kind`` is ``"exact"`` when one full period of windows was probed
    and ``"sampled"`` on aperiodic sequences, where ``lam`` bounds nothing.
    """
    out = {"tau": model.tau, "lam": model.lam, "n": problem.n,
           "lam_kind": "sampled" if model.seq.period is None else "exact"}
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
    """Evaluate the budget matching the configured algorithm and oracle on a
    periodic ``model``, raising what the formulas raise (for :func:`_settings`).

    An explicit step size below 1/L_g selects the small-step variant so
    the overlaid rate is 1 - gamma*mu, matching the run; one above 1/L_g
    gets the budget at 1/L_g, whose step ``_resolve_steps`` then refuses.
    """
    algo, oracle = cfg["algorithm"], cfg["oracle"]
    if algo["kind"] == "dgd":
        x0 = np.zeros(problem.d)
        f0_gap = problem.f(x0) - problem.f_star
        grad_norm = float(np.linalg.norm(problem.grad_stacked_at_opt()))
        gamma = algo.get("gamma")
        theory_gamma = 1.0 / problem.profile.L_g
        if gamma is not None and gamma > theory_gamma * (1 + theory.STEP_REL_TOL):
            gamma = None
        if oracle["sigma"] > 0 or (
                gamma is not None and gamma < theory_gamma * (1 - theory.STEP_REL_TOL)):
            return theory.budget_min_stochastic(
                problem.profile, model, algo["eps"], algo["delta_prime"],
                oracle["delta"], oracle["sigma"], f0_gap, grad_norm,
                gamma=gamma)
        return theory.budget_min_deterministic(
            problem.profile, model, algo["eps"], algo["delta_prime"],
            oracle["delta"], f0_gap, grad_norm)
    x0 = np.zeros(problem.d_x)
    y0 = np.zeros(problem.d_y)
    f0 = problem.f_of_max(x0)
    f_gap0, g_gap0 = f0 - problem.phi_star, f0 - problem.phi(x0, y0)
    return theory.budget_saddle(
        problem.saddle_profile, model,
        eps_x=algo["eps"], eps_y=algo["eps_y"],
        delta_prime_x=algo["delta_prime"], delta_prime_y=algo["delta_prime_y"],
        delta=oracle["delta"], sigma=oracle["sigma"],
        F_gap0=problem.n * f_gap0, G_gap0=problem.n * max(g_gap0, 0.0),
        grad_F_at_opt=float(np.linalg.norm(problem.grad_x_stacked_at_saddle())),
        grad_G_at_opt=float(np.linalg.norm(
            problem.grad_y_stacked_at_inner_opt(x0))))


def _budget_dict(budget):
    """A budget's sidecar block; a saddle budget's block fields get suffixes."""
    if budget is None:
        return None
    if isinstance(budget, theory.TheoryBudget):
        return {**vars(budget), "notes": list(budget.notes), "N_tot": budget.N_tot}
    out = {"mode": budget.mode, "notes": list(budget.x.notes + budget.y.notes), "n": budget.n,
           "mu_y": budget.y.mu, "L_yy_g": budget.L_yy_g, "T_tot": budget.T_tot}
    for name, block in (("x", budget.x), ("y", budget.y)):
        out[f"D_{name.upper()}"] = block.D
        out.update((f"{key}_{name}", getattr(block, key)) for key in
                   ("N", "T", "Delta", "floor", "eps", "delta_prime", "gamma"))
    return out


def _resolve_steps(algo, budget, source):
    """Fill the step sizes ``algo`` leaves unset from ``budget``, in place,
    and refuse a set one that is not the budget's own.

    A step above the budget's voids its descent guarantee. A DGD budget is
    sized for the configured step (the small-step variant below 1/L_g), so
    only a step above 1/L_g can differ from it; the saddle budget has no
    small-step variant, so an MGDA step below its own would run the
    budget's iteration counts at a slower rate than they were sized for.
    """
    steps = ([("gamma", "1/L_g", budget)] if algo["kind"] == "dgd" else
             [("gamma_x", "1/L_x", budget.x), ("gamma_y", "1/L_yy_g", budget.y)])
    for key, label, block in steps:
        limit = block.gamma
        if not (limit * (1.0 - theory.STEP_REL_TOL) <= algo.setdefault(key, limit)
                <= limit * (1.0 + theory.STEP_REL_TOL)):
            raise ConfigError(f"{source}: algorithm.{key}: {algo[key]} "
                              f"{'exceeds' if algo[key] > limit else 'is below'} "
                              f"the budget's step {label} = {limit}")


def _check_resolution(algo, problem, source):
    """Refuse a positive accuracy or consensus target below its float64
    resolution floor (see the theory module): ``8*u*|f*|`` for ``eps``, and
    ``(32*u*||X*||)**2`` for ``delta_prime``, at the stacked optimum ``X*``."""
    u = theory.UNIT_ROUNDOFF
    gap_factor, cons_factor = theory.GAP_FLOOR_FACTOR, theory.CONSENSUS_FLOOR_FACTOR
    if problem.kind == "robust_ls":
        f_name, f_star = "phi*", problem.phi_star
        blocks = (("", "X*", problem.saddle.x), ("_y", "Y*", problem.saddle.y))
    else:
        f_name, f_star = "f*", problem.f_star
        blocks = (("", "X*", problem.minimizer),)
    for suffix, name, point in blocks:
        norm = math.sqrt(problem.n) * float(np.linalg.norm(point))
        for key, label, floor in (
                (f"eps{suffix}", f"{gap_factor}*u*|{f_name}|", gap_factor * u * abs(f_star)),
                (f"delta_prime{suffix}", f"({cons_factor}*u*||{name}||)**2",
                 (cons_factor * u * norm) ** 2)):
            if 0 < algo[key] < floor:
                raise ConfigError(f"{source}: algorithm.{key}: {algo[key]!r} is below its "
                                  f"float64 resolution floor {label} = {floor:.3g} "
                                  "(u = 2**-53)")


def _settings(cfg, problem, model, source):
    """Concrete algorithm settings and the theory budget for one config.

    The budget is evaluated on the base instance when ``theory_auto`` or
    ``overlay_bounds`` asks for it. It needs a periodic graph (an aperiodic
    one's ``lam`` is sampled, not a bound); one whose formulas fail or
    overflow is refused at ``algorithm``, and so is a target below its float64
    resolution floor (:func:`_check_resolution`). Every configured step size
    must be the budget's own (:func:`_resolve_steps`), and an MGDA ``gamma_x``
    must keep ``gamma_x * L <= 1`` at the max-function's exact curvature
    ``L``. With ``theory_auto`` the counts, and any step the config leaves
    unset, come from it. Returns ``(algorithm dict, budget or None)``;
    ``cfg`` is not modified.
    """
    algo = dict(cfg["algorithm"])
    if not (algo["theory_auto"] or cfg["overlay_bounds"]):
        return algo, None
    if model.seq.period is None:
        raise ConfigError(f"{source}: graph.kind: no theory budget on "
                          f"{cfg['graph']['kind']} graphs: their contraction "
                          "factor is sampled, not a bound")
    try:
        budget = _theory_budget(cfg, problem, model)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{source}: algorithm: no theory budget: {exc}") from exc
    _check_resolution(algo, problem, source)
    _resolve_steps(algo, budget, source)
    if algo["kind"] == "mgda":
        # the saddle theorem's step range, at the max-function's exact curvature
        ratio = algo["gamma_x"] * float(np.linalg.eigvalsh(problem.x_hessian_of_max())[-1])
        if ratio > 1.0:
            raise ConfigError(f"{source}: algorithm.gamma_x: {algo['gamma_x']} times the "
                              f"max-function's largest curvature is {ratio:.6g} > 1, "
                              "outside the saddle theorem's step range")
    if not algo["theory_auto"]:
        return algo, budget
    if (budget.T if algo["kind"] == "dgd" else budget.T_tot) is None:
        raise ConfigError(f"{source}: algorithm.theory_auto: consensus target "
                          "unreachable (a round count T is None)")
    if algo["kind"] == "dgd":
        algo.update(iterations=budget.N, rounds=budget.T)
    else:
        algo.update(outer_iterations=budget.x.N, inner_iterations=budget.y.N,
                    rounds_x=budget.x.T, rounds_y=budget.y.T)
    return algo, budget


def _single_run(cfg, algo, problem, model, run_seed):
    """One run of concrete settings ``algo`` on one instance; returns its record."""
    oracle = OracleSpec(**dict(cfg["oracle"], seed=run_seed))
    if algo["kind"] == "dgd":
        config = algorithms.DGDConfig(
            gamma=algo["gamma"], iterations=algo["iterations"],
            rounds_schedule=algo["rounds"], oracle=oracle,
            record_every=algo["record_every"])
        return algorithms.dgd_run(problem, model, config,
                                  np.zeros((problem.n, problem.d)))[0]
    config = algorithms.MGDAConfig(
        gamma_x=algo["gamma_x"], gamma_y=algo["gamma_y"],
        outer_iterations=algo["outer_iterations"],
        inner_iterations=algo["inner_iterations"],
        rounds_x=algo["rounds_x"], rounds_y=algo["rounds_y"], oracle=oracle,
        record_every=algo["record_every"])
    return algorithms.mgda_run(problem, model, config, np.zeros((problem.n, problem.d_x)),
                               np.zeros((problem.n, problem.d_y)))[0]


def _prepare(cfg, source):
    """The problem, model, algorithm dict and budget (or None) of a config."""
    problem = _build_problem(cfg, source)
    model = _network(cfg, source)
    return (problem, model, *_settings(cfg, problem, model, source))


def _execute(cfg, source):
    """Prepare a resolved config (:func:`_prepare`) and run every seed.

    Returns ``(problem, model, budget, results)``; ``results`` lists
    ``(run_id, seed, outcome)`` per seed, where ``outcome`` is the run's
    RunRecord or the DivergenceError that ended it.
    """
    problem, model, algo, budget = _prepare(cfg, source)
    results = []
    for idx, seed in enumerate(cfg["seeds"]):
        run_id = f"{algo['kind']}-{idx:03d}"
        redraw = cfg["seed_scope"] == "problem-and-oracle" and seed != cfg["problem"]["seed"]
        prob_i = _build_problem(cfg, source, seed_override=seed) if redraw else problem
        try:
            outcome = _single_run(cfg, algo, prob_i, model, seed)
        except algorithms.DivergenceError as exc:
            outcome = exc
        results.append((run_id, seed, outcome))
    return problem, model, budget, results


def _trace_rows(cfg, budget, run_id, seed, record):
    """The trace CSV rows of one run: one per recorded iterate, or the single
    ``k = -1`` row of a run that diverged.

    Bounds are overlaid on request (violation flagging, seed-averaged for the
    stochastic mode, is theory.overlay_bounds' job); wall times are
    published as measured only on request, and as 0 otherwise.
    """
    if isinstance(record, algorithms.DivergenceError):
        return [[run_id, seed, -1, 0, *[float("nan")] * 5, None, 0.0]]
    ks = record.ks
    bounds = budget.bounds(ks, record.f_gap[0]) if cfg["overlay_bounds"] else [None] * len(ks)
    wall = record.wall_time if cfg["record_wall_time"] else [0.0] * len(ks)
    return [[run_id, seed, *cells] for cells in zip(
        ks, record.comm_rounds, record.f_gap, record.consensus_err_x,
        record.consensus_err_y, record.grad_norm_x, record.grad_norm_y, bounds, wall)]


def _write_csv(path, header, rows):
    """Write the list ``rows`` under ``header``, formatted a column at a time:
    floats at 17 significant digits, NaN and None as blanks, the rest by
    ``str``. Blocks of 128 rows bound the formatted cells held at once."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, len(rows), 128):
            columns = (["" if v is None else str(v) if not isinstance(v, float)
                        else "" if v != v else format(v, ".17g") for v in column]
                       for column in zip(*rows[start:start + 128]))
            writer.writerows(zip(*columns))
    return path


def run(config_or_path, output=None):
    """Execute all seeds of one config; write the trace CSV and sidecar.

    Returns ``(csv_path, sidecar_path, failures)`` where ``failures`` lists
    ``(run_id, message)`` for runs that diverged (those contribute a single
    failure row with ``k = -1`` instead of a trace).
    """
    cfg, source = _load(config_or_path)
    out_base = output if output is not None else cfg["output"]
    problem, model, budget, results = _execute(cfg, source)
    rows, run_meta, failures = [], [], []
    for run_id, seed, record in results:
        rows.extend(_trace_rows(cfg, budget, run_id, seed, record))
        if isinstance(record, algorithms.DivergenceError):
            failures.append((run_id, str(record)))
            run_meta.append({"run_id": run_id, "seed": seed, "status": f"diverged: {record}"})
        else:
            run_meta.append({"run_id": run_id, "seed": seed, "status": "ok",
                             "total_comm_rounds": record.meta["total_comm_rounds"]})
    csv_path = _write_csv(f"{out_base}.csv", CSV_HEADER, rows)
    sidecar_path = f"{out_base}.meta.json"
    sidecar = {
        "config": cfg,
        "constants": _constants(problem, model),
        "budget": _budget_dict(budget),
        "runs": run_meta,
    }
    with open(sidecar_path, "wt", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, sidecar_path, failures


def _axis_field(cfg, axis):
    """``(section, key)`` of a sweep axis: a field of the resolved ``cfg`` that
    ``_SCHEMA`` types as an integer or a number."""
    hits = [(section, key) for section, key in _SCHEMA
            if section and axis in (key, f"{section}.{key}") and key in cfg[section]]
    if not hits:
        raise ConfigError(f"sweep axis {axis!r} not found in config")
    if len(hits) > 1:
        raise ConfigError(f"sweep axis {axis!r} is ambiguous across "
                          f"{[section for section, _ in hits]}; use a dotted path")
    if _SCHEMA[hits[0]].kind not in (int, float):
        raise ConfigError(f"sweep axis {axis!r} is not numeric")
    return hits[0]


def sweep(config_or_path, axis, values, output=None):
    """Run the config once per axis value; write one row per run: ``axis``,
    the value, then the run's last trace row (``k = -1`` if it diverged).

    Returns ``(csv_path, failures)``. The axis is an integer or number
    field of the resolved config, named bare (searched across sections) or
    as ``section.key``. Each value is written into the config as given, and
    every swept config is resolved, and so checked like any config, before
    the first run; defaults derived from the axis (MGDA ``rounds_x``/
    ``rounds_y`` from ``rounds``) follow it.
    """
    raw, source = _raw_config(config_or_path)
    base = resolve_config(raw, source)
    section, key = _axis_field(base, axis)
    out_base = output if output is not None else base["output"]
    configs = [resolve_config({**raw, section: {**raw.get(section, {}), key: value}}, source)
               for value in values]
    rows, failures = [], []
    for value, cfg in zip(values, configs):
        _, _, budget, results = _execute(cfg, source)
        for run_id, seed, record in results:
            rows.append([axis, str(value), *_trace_rows(cfg, budget, run_id, seed, record)[-1]])
            if isinstance(record, algorithms.DivergenceError):
                failures.append((f"{axis}={value}", run_id, str(record)))
    return _write_csv(f"{out_base}.sweep.csv", ["axis", "value", *CSV_HEADER], rows), failures


def validate(config_or_path):
    """Run the stages of :func:`_prepare` one by one, plus sample checks.

    Returns ``(checks, ok)``, ``checks`` a list of ``(name, passed, detail)``.
    A refused stage fails its ``problem``, ``contraction`` or ``theory`` (if
    a budget is asked for) line with the message ``run`` prints; ``pl_qg``
    and ``mixing`` sample the instance's inequalities and mixing matrices.
    """
    try:
        cfg, source = _load(config_or_path)
    except ConfigError as exc:
        return [("config", False, str(exc))], False
    checks = [("config", True, "parsed and resolved")]
    problem = model = None
    try:
        problem = _build_problem(cfg, source)
        checks.append(("problem", True, f"{problem.kind} built"))
    except ConfigError as exc:
        checks.append(("problem", False, str(exc)))
    if problem is not None:
        try:
            report = problems.pl_qg_report(problem, num_points=50,
                                           seed=cfg["problem"]["seed"])
            ratios = (("PL", report.max_pl_ratio), ("QG", report.max_qg_ratio),
                      ("y-side PL", report.max_pl_ratio_y),
                      ("y-side QG", report.max_qg_ratio_y))
            checks.append(("pl_qg", report.ok(), ", ".join(
                f"max {name} ratio {value:.6g}" for name, value in ratios if value is not None)))
        except ValueError as exc:
            checks.append(("pl_qg", False, str(exc)))
    try:
        model = _network(cfg, source)
    except ConfigError as exc:
        checks.append(("contraction", False, str(exc)))
    else:
        bad = []
        for k in range(3):
            rep = topology.validate_mixing(model.matrix_at(k), model.seq, k)
            if not rep.passed:
                bad.append((k, rep.details))
        checks.append(("mixing", not bad,
                       "doubly stochastic with correct zero pattern"
                       if not bad else f"failed at rounds {bad}"))
        detail = f"contraction factor {model.lam:.6g}"
        if model.seq.period is None:
            detail += " (sampled estimate, not a bound)"
        checks.append(("contraction", True, detail))
    if problem is not None and model is not None:
        try:
            if _settings(cfg, problem, model, source)[1] is not None:
                checks.append(("theory", True, "budget evaluated, step sizes within it"))
        except ConfigError as exc:
            checks.append(("theory", False, str(exc)))
    return checks, all(passed for _, passed, _ in checks)


def theory_report(config_or_path):
    """Evaluate the budget for a config; returns (budget, constants dict).

    The config is prepared as ``run``'s is (:func:`_prepare`), so a config
    ``run`` refuses gets no budget here either.
    """
    cfg, source = _load(config_or_path)
    _require_targets(cfg, source)
    problem, model, _, budget = _prepare({**cfg, "overlay_bounds": True}, source)
    return budget, _constants(problem, model)
