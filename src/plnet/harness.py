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

The unit of a run is its plan (``_Plan``): everything the run reads, from
its id, seed and instance to its seeded oracle and budget. ``run`` and
``sweep`` plan every seed (:func:`_plans`) before the first run;
``theory_report`` and ``validate`` build only the base instance.
"""

import csv
import json
import math
import operator
import os
import sys
from collections import namedtuple

import numpy as np

from . import algorithms, problems, theory, topology
from .oracles import BIAS_MODES, OracleSpec

__all__ = ["ConfigError", "run", "sweep", "validate", "theory_report"]

CSV_HEADER = ["run_id", "seed", "k", "comm_rounds", "f_gap",
              "consensus_err_x", "consensus_err_y", "grad_norm_x",
              "grad_norm_y", "bound_f_gap", "wall_time_s"]


class ConfigError(ValueError):
    """Invalid experiment config; message is anchored to file and key."""


# One row per config field, walked in this order; section "" is the top level.
# A key with no row is refused, so a misspelled one cannot quietly run the
# default. ``kind`` is int (not bool), float (a finite float, or an int within
# float64's range), bool, str, list, or the tuple of an enum's values; ``bound``
# is the (op, limit) that the value, or a list's length, must satisfy. A field
# given outside a rule of its ``reads`` is refused (the algorithm's rows come
# first, so a count theory_auto sets is the one named); ``default`` fills an
# absent field, or is _REQUIRED, only where ``reads`` and ``when`` hold.
# ``item`` is the row of each list entry. Defaults read from other fields, and
# joint rules, follow the walk.
_Field = namedtuple("_Field", "kind bound default reads when item",
                    defaults=(None, None, (), (), None))
_REQUIRED = object()
_SECTIONS = ("problem", "graph", "algorithm", "oracle")
_OPS = {">=": operator.ge, ">": operator.gt, "==": operator.eq}
_NOUNS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", list: "a list"}


def _only(section, key, *values):
    """A read rule ``rule(cfg, value)``: falsy where ``section.key`` is in ``values``,
    and otherwise the reason the field is not read."""
    return lambda cfg, value: cfg[section][key] not in values and (
        f"on a {cfg[section][key]} {section}: only {' and '.join(values)} {section}s read it")


_MIN = _only("problem", "kind", "least_squares", "quadratic")
_SADDLE = _only("problem", "kind", "robust_ls")
_BASE = _only("graph", "kind", "static", "tau-connected")
_TAU = _only("graph", "kind", "tau-connected")
_RANDOM = _only("graph", "topology", "random")
_DGD = _only("algorithm", "kind", "dgd")
_MGDA = _only("algorithm", "kind", "mgda")


def _named(cfg, value):
    """Read rule of a named base graph's fields: the config gives no edge list."""
    return "edges" in cfg["graph"] and "next to graph.edges, which give the base graph"


def _fixed(cfg, value):
    """Read rule of the counts that a theory budget sets."""
    return cfg["algorithm"]["theory_auto"] and "on a theory_auto algorithm: its budget sets it"


_SCHEMA = {(section, key): field for (section, keys), field in {
    ("algorithm", "kind"): _Field(("dgd", "mgda"), None, _REQUIRED),
    ("algorithm", "theory_auto"): _Field(bool, None, False),
    ("algorithm", "iterations"): _Field(int, (">=", 0), _REQUIRED, (_DGD, _fixed)),
    ("algorithm", "gamma"): _Field(float, (">", 0), _REQUIRED, (_DGD,), (_fixed,)),
    ("algorithm", "outer_iterations inner_iterations"): _Field(int, (">=", 0), _REQUIRED,
                                                               (_MGDA, _fixed)),
    ("algorithm", "gamma_x gamma_y"): _Field(float, (">", 0), _REQUIRED, (_MGDA,), (_fixed,)),
    ("algorithm", "rounds"): _Field(int, (">=", 0), 1, (_fixed,), (_DGD,)),
    ("algorithm", "rounds_x rounds_y"): _Field(int, (">=", 0), reads=(_MGDA, _fixed)),
    ("algorithm", "record_every"): _Field(int, (">=", 1), 1),
    ("algorithm", "eps"): _Field(float, (">", 0)),
    ("algorithm", "eps_y"): _Field(float, (">", 0), reads=(_MGDA,)),
    ("algorithm", "delta_prime"): _Field(float, (">=", 0)),
    ("algorithm", "delta_prime_y"): _Field(float, (">=", 0), reads=(_MGDA,)),
    ("problem", "kind"): _Field(("least_squares", "quadratic", "robust_ls"), None, _REQUIRED),
    ("problem", "n"): _Field(int, (">=", 1), _REQUIRED),
    ("problem", "seed"): _Field(int, (">=", 0), 0),
    ("problem", "d"): _Field(int, (">=", 1), _REQUIRED, (_MIN,)),
    ("problem", "d_x d_y"): _Field(int, (">=", 1), _REQUIRED, (_SADDLE,)),
    ("problem", "d_i"): _Field(int, (">=", 1)),
    ("problem", "alpha"): _Field(float, (">", 1), 2.0, (_SADDLE,)),
    ("graph", "kind"): _Field(("static", "per-step-connected", "tau-connected"), None, "static"),
    ("graph", "edges"): _Field(list, reads=(_BASE,),
                               item=_Field(list, ("==", 2), item=_Field(int, (">=", 0)))),
    ("graph", "topology"): _Field(("complete", "ring", "path", "star", "empty", "random"), None,
                                  "complete", (_BASE, _named)),
    ("graph", "tau"): _Field(int, (">=", 1), 1, (lambda cfg, tau: tau != 1 and _TAU(cfg, tau),)),
    ("graph", "seed"): _Field(int, (">=", 0), 0),
    ("graph", "degree"): _Field(int, (">=", 1), reads=(_named, lambda cfg, degree: (
        cfg["graph"]["kind"] != "per-step-connected" and _RANDOM(cfg, degree)))),
    ("oracle", "delta sigma"): _Field(float, (">=", 0), 0.0),
    ("oracle", "bias_mode"): _Field(BIAS_MODES, None, "fixed-direction", (lambda cfg, mode: (
        cfg["oracle"]["delta"] == 0 and "at oracle.delta 0: no bias is drawn"),)),
    ("", "seeds"): _Field(list, (">=", 1), item=_Field(int, (">=", 0))),
    ("", "seed_scope"): _Field(("oracle", "problem-and-oracle"), None, "oracle"),
    ("", "init"): _Field(("zero",), None, "zero"),
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
        ok = (type(value) is int and abs(value) <= sys.float_info.max
              or isinstance(value, float) and math.isfinite(value))
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
    """The resolved copy of a config dict: each field checked against its
    ``_SCHEMA`` row (type, bound and read rules) and defaulted, then the rules
    that join fields checked."""
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
            value = resolved[key] = _check(scopes[section][key], field, label, source)
            for rule in field.reads:
                if unread := rule(out, value):
                    raise ConfigError(f"{source}: {label}: {value!r} {unread}")
        elif field.default is not None and not any(
                rule(out, field.default) for rule in field.reads + field.when):
            if field.default is _REQUIRED:
                raise ConfigError(f"{source}: {label}: missing required field")
            resolved[key] = field.default
    prob, graph, algo = out["problem"], out["graph"], out["algorithm"]
    prob.setdefault("d_i", prob["d_x"] if "d_x" in prob else prob["d"])
    for idx, (i, j) in enumerate(graph.get("edges", ())):
        if i == j or max(i, j) >= prob["n"]:
            raise ConfigError(f"{source}: graph.edges[{idx}]: must join two distinct "
                              "nodes below problem.n")
    if prob["kind"] == "quadratic" and prob["d_i"] != prob["d"]:
        raise ConfigError(f"{source}: problem.d_i: must equal problem.d on a quadratic problem")
    if (algo["kind"] == "mgda") != (prob["kind"] == "robust_ls"):
        raise ConfigError(f"{source}: algorithm.kind: {algo['kind']} cannot run a "
                          f"{prob['kind']} problem: mgda runs robust_ls, dgd the others")
    if algo["kind"] == "mgda" and not algo["theory_auto"]:
        algo.setdefault("rounds_x", algo.get("rounds", 1))
        algo.setdefault("rounds_y", algo.get("rounds", 1))
    if out["overlay_bounds"] and algo["kind"] != "dgd":
        raise ConfigError(f"{source}: overlay_bounds: only supported for dgd runs")
    if algo["theory_auto"] or out["overlay_bounds"]:
        _require_targets(out, source)
    out.setdefault("seeds", [0])
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
    """Instance and network constants for the sidecar: those the problem's
    profile names in its ``SIDECAR`` tuple, and the network's.

    ``lam_kind`` is ``"exact"`` when one full period of windows was probed
    and ``"sampled"`` on aperiodic sequences, where ``lam`` bounds nothing.
    """
    prof = problem.profile
    return {"tau": model.tau, "lam": model.lam, "n": problem.n,
            "lam_kind": "sampled" if model.seq.period is None else "exact",
            **{name: getattr(prof, name) for name in prof.SIDECAR}}


def _theory_budget(cfg, problem, model):
    """Evaluate the budget matching the configured algorithm and oracle on a
    periodic ``model``, raising what the formulas raise (for :func:`_settings`).

    An explicit step size below 1/L_g selects the small-step variant so
    the overlaid rate is 1 - gamma*mu, matching the run; one above 1/L_g
    gets the budget at 1/L_g, whose step ``_resolve_steps`` then refuses.
    """
    algo, oracle = cfg["algorithm"], cfg["oracle"]
    x0 = np.zeros_like(problem.optimum[0])
    f0 = problem.f(x0)
    f0_gap = f0 - problem.f_star
    grad_norm = float(np.linalg.norm(problem.grad_stacked_at_opt()))
    if algo["kind"] == "dgd":
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
    g_gap0 = f0 - problem.phi(x0, np.zeros(problem.d_y))
    return theory.budget_saddle(
        problem.profile, model,
        eps_x=algo["eps"], eps_y=algo["eps_y"],
        delta_prime_x=algo["delta_prime"], delta_prime_y=algo["delta_prime_y"],
        delta=oracle["delta"], sigma=oracle["sigma"],
        F_gap0=problem.n * f0_gap, G_gap0=problem.n * max(g_gap0, 0.0),
        grad_F_at_opt=grad_norm,
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
    ``(32*u*||X*||)**2`` for ``delta_prime``, at the stacked optimum ``X*``;
    a saddle's ``eps_y`` and ``delta_prime_y`` use ``|f*|`` and ``Y*``."""
    u = theory.UNIT_ROUNDOFF
    gap_factor, cons_factor = theory.GAP_FLOOR_FACTOR, theory.CONSENSUS_FLOOR_FACTOR
    for suffix, name, point in zip(("", "_y"), ("X*", "Y*"), problem.optimum):
        norm = math.sqrt(problem.n) * float(np.linalg.norm(point))
        for key, label, floor in (
                (f"eps{suffix}", f"{gap_factor}*u*|f*|", gap_factor * u * abs(problem.f_star)),
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
        ratio = algo["gamma_x"] * float(np.linalg.eigvalsh(problem.hessian)[-1])
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


def _prepare(cfg, source):
    """The problem, model, algorithm dict and budget (or None) of a config."""
    problem = _build_problem(cfg, source)
    model = _network(cfg, source)
    return (problem, model, *_settings(cfg, problem, model, source))


_Plan = namedtuple("_Plan", "run_id seed problem model algo oracle budget")


def _plans(cfg, source):
    """The base instance, network and budget of a resolved config
    (:func:`_prepare`), and one plan per seed. Under ``problem-and-oracle``
    a seed other than ``problem.seed`` re-draws its instance; every plan
    carries the base settings and budget."""
    problem, model, algo, budget = _prepare(cfg, source)
    redraw = cfg["seed_scope"] == "problem-and-oracle"
    plans = []
    for idx, seed in enumerate(cfg["seeds"]):
        instance = (_build_problem(cfg, source, seed_override=seed)
                    if redraw and seed != cfg["problem"]["seed"] else problem)
        plans.append(_Plan(f"{algo['kind']}-{idx:03d}", seed, instance, model, algo,
                           OracleSpec(**dict(cfg["oracle"], seed=seed)), budget))
    return problem, model, budget, plans


def _single_run(plan):
    """Run one plan from the zero point; returns its RunRecord, or the
    DivergenceError that ended it."""
    algo, problem = plan.algo, plan.problem
    starts = [np.zeros((problem.n, point.size)) for point in problem.optimum]
    if algo["kind"] == "dgd":
        runner, config = algorithms.dgd_run, algorithms.DGDConfig(
            gamma=algo["gamma"], iterations=algo["iterations"], rounds_schedule=algo["rounds"],
            oracle=plan.oracle, record_every=algo["record_every"])
    else:
        runner, config = algorithms.mgda_run, algorithms.MGDAConfig(
            oracle=plan.oracle, **{key: algo[key] for key in (
                "gamma_x", "gamma_y", "outer_iterations", "inner_iterations", "rounds_x",
                "rounds_y", "record_every")})
    try:
        return runner(problem, plan.model, config, *starts)[0]
    except algorithms.DivergenceError as exc:
        return exc


def _trace_rows(cfg, plan, record):
    """The trace CSV rows of one run: one per recorded iterate, or the single
    ``k = -1`` row of a run that diverged.

    Bounds are overlaid from the plan's budget on request (violation
    flagging, seed-averaged for the stochastic mode, is theory.overlay_bounds'
    job); wall times are published as measured only on request, and as 0
    otherwise.
    """
    if isinstance(record, algorithms.DivergenceError):
        return [[plan.run_id, plan.seed, -1, 0, *[float("nan")] * 5, None, 0.0]]
    ks = record.ks
    bounds = (plan.budget.bounds(ks, record.f_gap[0]) if cfg["overlay_bounds"]
              else [None] * len(ks))
    wall = record.wall_time if cfg["record_wall_time"] else [0.0] * len(ks)
    return [[plan.run_id, plan.seed, *cells] for cells in zip(
        ks, record.comm_rounds, record.f_gap, record.consensus_err_x,
        record.consensus_err_y, record.grad_norm_x, record.grad_norm_y, bounds, wall)]


def _write_csv(path, header, rows):
    """Write the list ``rows`` under ``header``, formatted a column at a time
    (:func:`_format_column`): floats at 17 significant digits, NaN and None
    as blanks, the rest by ``str``. Blocks of 128 rows bound the formatted
    cells held at once."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, len(rows), 128):
            writer.writerows(zip(*map(_format_column, zip(*rows[start:start + 128]))))
    return path


def _format_column(column):
    """The cells of one column, by the rule of :func:`_write_csv`. A column of
    floats alone (Python or numpy float64) is formatted in one pass, by one
    ``%`` with ``"%.17g"`` per cell (the strings ``format(v, ".17g")``
    gives), and one of ints and strs alone by ``map(str)``; any other column
    goes cell by cell."""
    types = set(map(type, column))
    if types <= {float, np.float64}:
        return ("%.17g\n" * len(column) % column).replace("nan\n", "\n").splitlines()
    if types <= {int, str}:
        return map(str, column)
    return ["" if v is None else str(v) if not isinstance(v, float)
            else "" if v != v else format(v, ".17g") for v in column]


def run(config_or_path, output=None):
    """Execute all seeds of one config; write the trace CSV and sidecar.

    Returns ``(csv_path, sidecar_path, failures)`` where ``failures`` lists
    ``(run_id, message)`` for runs that diverged (those contribute a single
    failure row with ``k = -1`` instead of a trace).
    """
    cfg, source = _load(config_or_path)
    out_base = output if output is not None else cfg["output"]
    problem, model, budget, plans = _plans(cfg, source)
    rows, run_meta, failures = [], [], []
    for plan in plans:
        record = _single_run(plan)
        rows.extend(_trace_rows(cfg, plan, record))
        if isinstance(record, algorithms.DivergenceError):
            failures.append((plan.run_id, str(record)))
            status = {"status": f"diverged: {record}"}
        else:
            status = {"status": "ok", "total_comm_rounds": record.meta["total_comm_rounds"]}
        run_meta.append({"run_id": plan.run_id, "seed": plan.seed, **status})
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
        for plan in _plans(cfg, source)[3]:
            record = _single_run(plan)
            rows.append([axis, str(value), *_trace_rows(cfg, plan, record)[-1]])
            if isinstance(record, algorithms.DivergenceError):
                failures.append((f"{axis}={value}", plan.run_id, str(record)))
    return _write_csv(f"{out_base}.sweep.csv", ["axis", "value", *CSV_HEADER], rows), failures


def validate(config_or_path):
    """Run the stages of :func:`_prepare` one by one, plus sample checks.

    Returns ``(checks, ok)``, ``checks`` a list of ``(name, passed, detail)``.
    A refused stage fails its ``problem``, ``contraction`` or ``theory`` (if
    a budget is asked for) line with the message ``run`` prints; a built
    problem's line names the configured problem kind, and ``pl_qg``
    samples the instance's inequalities. No line checks the mixing matrices:
    ``topology.metropolis_weights`` makes each one doubly stochastic.
    """
    try:
        cfg, source = _load(config_or_path)
    except ConfigError as exc:
        return [("config", False, str(exc))], False
    checks = [("config", True, "parsed and resolved")]
    problem = model = None
    try:
        problem = _build_problem(cfg, source)
        checks.append(("problem", True, f"{cfg['problem']['kind']} built"))
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

    The base instance is prepared as ``run``'s is (:func:`_prepare`), so a
    config whose base instance ``run`` refuses gets no budget here either.
    No seed's re-draw is built.
    """
    cfg, source = _load(config_or_path)
    _require_targets(cfg, source)
    problem, model, _, budget = _prepare({**cfg, "overlay_bounds": True}, source)
    return budget, _constants(problem, model)
