"""Span tracing of plnet's layers from outside the package.

:class:`Tracer` replaces the public functions of each layer (and the names
other modules re-bind them under) with wrappers that record one span per
call: name, start, end and the enclosing span. Spans are kept in flat
arrays in memory and reduced to per-layer counts, inclusive times and self
times (span minus the part its child spans cover) when a traced run ends.
Nothing is installed unless :meth:`Tracer.installed` is entered, so
untraced runs execute plnet unmodified.
"""

import contextlib
import functools
import time
import weakref
from array import array

import numpy as np

from plnet import algorithms, consensus, harness, oracles, problems, theory, topology

# (owner, attribute, span name); owners that re-bind the same function share
# one wrapper, so a call is traced once whichever name it goes through.
TARGETS = [
    (topology.GraphSequence, "edges_at", "topology.edges"),
    (topology, "metropolis_matrix", "topology.metropolis"),
    (topology.MixingModel, "matrix_at", "topology.matrix_at"),
    (topology, "estimate_lambda", "topology.lam"),
    (topology, "make_graph_sequence", "topology.graph"),
    (consensus, "run_consensus", "consensus.run"),
    (algorithms, "run_consensus", "consensus.run"),
    (consensus, "consensus_error", "consensus.error"),
    (algorithms, "consensus_error", "consensus.error"),
    (problems.LeastSquaresProblem, "grad_stacked", "problems.grad"),
    (problems.RobustLeastSquaresProblem, "grad_x_stacked", "problems.grad"),
    (problems.RobustLeastSquaresProblem, "grad_y_stacked", "problems.grad"),
    (problems.LeastSquaresProblem, "f", "problems.eval"),
    (problems.LeastSquaresProblem, "grad_f", "problems.eval"),
    (problems.RobustLeastSquaresProblem, "phi", "problems.eval"),
    (problems.RobustLeastSquaresProblem, "grad_x", "problems.eval"),
    (problems.RobustLeastSquaresProblem, "grad_y", "problems.eval"),
    (problems.RobustLeastSquaresProblem, "y_star_of", "problems.eval"),
    (problems, "build_least_squares", "problems.build"),
    (problems, "build_robust_ls", "problems.build"),
    (oracles, "perturb_gradient", "oracles.perturb"),
    (algorithms, "perturb_gradient", "oracles.perturb"),
    (algorithms, "dgd_run", "algorithms.run"),
    (algorithms, "mgda_run", "algorithms.run"),
    (theory, "budget_min_deterministic", "theory.budget"),
    (theory, "budget_min_stochastic", "theory.budget"),
    (theory, "budget_saddle", "theory.budget"),
    (harness, "run", "harness.run"),
]


class Tracer:
    """In-memory span recorder for one process.

    ``counters`` holds the work counts taken at the same boundaries:
    ``consensus.rounds``, ``consensus.bytes_computed`` (dense
    ``n*n*8 + 2*n*d*8`` bytes per round), ``consensus.floats_sent``
    (``2*|E_t|*d`` per round, from the off-diagonal nonzeros of the matrices
    served to gossip calls) and ``algorithms.records``.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(
            ("consensus.rounds", "consensus.bytes_computed",
             "consensus.floats_sent", "algorithms.records"), 0)
        self._offdiag = {}
        self._pending_offdiag = 0
        self._consensus_id = self._name_id("consensus.run")

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self):
        """Drop recorded spans and counters; wrappers stay valid."""
        for arr in (self.name_ids, self.parents, self.starts, self.ends):
            del arr[:]
        del self._stack[1:]
        self.start_phase()
        self._offdiag.clear()
        self._pending_offdiag = 0

    # hooks run inside the span they belong to, so their cost is charged to it

    def _served_matrix(self, idx, args, w):
        parent = self.parents[idx]
        if parent < 0 or self.name_ids[parent] != self._consensus_id:
            return
        hit = self._offdiag.get(id(w))
        if hit is None or hit[0]() is not w:
            nnz = int(np.count_nonzero(w)) - int(np.count_nonzero(np.diagonal(w)))
            hit = (weakref.ref(w), nnz)
            self._offdiag[id(w)] = hit
        self._pending_offdiag += hit[1]

    def _gossip(self, idx, args, z):
        rounds = args[1]
        if rounds == 0:
            return
        n, d = np.shape(z)
        self.counters["consensus.rounds"] += rounds
        self.counters["consensus.bytes_computed"] += rounds * (n * n * 8 + 2 * n * d * 8)
        self.counters["consensus.floats_sent"] += self._pending_offdiag * d
        self._pending_offdiag = 0

    def _runner(self, idx, args, result):
        self.counters["algorithms.records"] += len(result[0].ks)

    def _wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(idx, args, result)
                return result
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        hooks = {"topology.matrix_at": self._served_matrix,
                 "consensus.run": self._gossip,
                 "algorithms.run": self._runner}
        wrappers = {}
        saved = []
        try:
            for owner, attr, name in TARGETS:
                original = owner.__dict__[attr]
                if original not in wrappers:
                    wrappers[original] = self._wrap(name, original, hooks.get(name))
                saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[original])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def start_phase(self):
        """Zero the counters and return the index the next span will get."""
        for key in self.counters:
            self.counters[key] = 0
        return len(self.name_ids)

    def summary(self, start=0, stop=None):
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

        Only spans with index in ``[start, stop)`` count, so a phase opened
        by :meth:`start_phase` can be reduced on its own. The extra name
        ``topology.matrix_build`` counts the Metropolis builds made inside
        ``matrix_at`` calls, i.e. the matrix-cache misses.
        """
        all_ids, all_parents, begin, end = self._arrays()
        dur = end - begin
        has_parent = all_parents >= 0
        child = np.bincount(all_parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        window = slice(start, stop)
        nid, parent, dur, own = all_ids[window], all_parents[window], dur[window], own[window]
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        out = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                      "self_s": float(self_s[i])}
               for i, name in enumerate(self.names)}
        inside = parent[(nid == self._ids.get("topology.metropolis", -1)) & (parent >= 0)]
        out["topology.matrix_build"] = {"calls": int(np.count_nonzero(
            all_ids[inside] == self._ids.get("topology.matrix_at", -1)))}
        return out

    def dump(self, path):
        """Write the recorded spans to ``path`` as a NumPy ``.npz`` archive."""
        nid, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent,
                 start=start, end=end)

    def _arrays(self):
        # copies, so the arrays stay free to grow after this returns
        return (np.frombuffer(self.name_ids, dtype=np.int32).copy(),
                np.frombuffer(self.parents, dtype=np.int32).copy(),
                np.frombuffer(self.starts).copy(), np.frombuffer(self.ends).copy())


# Per-layer metrics of one traced call: name -> (unit, better).
PER_LAYER = {
    "topology.edges_calls": ("count", "lower"),
    "topology.edges_s": ("s", "lower"),
    "topology.edges_per_round": ("ratio", "lower"),
    "topology.metropolis_calls": ("count", "lower"),
    "topology.metropolis_s": ("s", "lower"),
    "topology.matrix_at_calls": ("count", "lower"),
    "topology.matrix_at_s": ("s", "lower"),
    "topology.matrix_cache_hit_ratio": ("ratio", "higher"),
    "topology.graph_s": ("s", "lower"),
    "topology.lam_s": ("s", "lower"),
    "consensus.calls": ("count", "lower"),
    "consensus.rounds": ("count", "lower"),
    "consensus.self_s": ("s", "lower"),
    "consensus.bytes_computed": ("B", "lower"),
    "consensus.floats_sent": ("floats", "lower"),
    "consensus.error_calls": ("count", "lower"),
    "consensus.error_s": ("s", "lower"),
    "problems.grad_calls": ("count", "lower"),
    "problems.grad_s": ("s", "lower"),
    "problems.eval_calls": ("count", "lower"),
    "problems.eval_s": ("s", "lower"),
    "problems.build_s": ("s", "lower"),
    "oracles.perturb_calls": ("count", "lower"),
    "oracles.perturb_s": ("s", "lower"),
    "algorithms.run_s": ("s", "lower"),
    "algorithms.self_s": ("s", "lower"),
    "algorithms.records": ("count", "lower"),
    "theory.budget_calls": ("count", "lower"),
    "theory.budget_s": ("s", "lower"),
    "harness.run_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.rows_written": ("count", "lower"),
    "harness.bytes_written": ("B", "lower"),
    "setup.topology.graph_s": ("s", "lower"),
    "setup.topology.lam_s": ("s", "lower"),
    "setup.problems.build_s": ("s", "lower"),
    "setup.theory.budget_calls": ("count", "lower"),
    "setup.theory.budget_s": ("s", "lower"),
    "trace.setup_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}

# span name -> metric prefix of its self time; together these add up to the
# traced spans of a phase
SELF_TIMED = {
    "topology.edges": "topology.edges",
    "topology.metropolis": "topology.metropolis",
    "topology.matrix_at": "topology.matrix_at",
    "topology.graph": "topology.graph",
    "topology.lam": "topology.lam",
    "consensus.run": "consensus.self",
    "consensus.error": "consensus.error",
    "problems.grad": "problems.grad",
    "problems.eval": "problems.eval",
    "problems.build": "problems.build",
    "oracles.perturb": "oracles.perturb",
    "algorithms.run": "algorithms.self",
    "theory.budget": "theory.budget",
    "harness.run": "harness.self",
}


def layer_metrics(setup, run, counters, outcome, setup_s, run_s):
    """Per-layer metrics of one traced set-up plus timed call.

    ``setup`` and ``run`` are :meth:`Tracer.summary` results of the two
    phases, ``counters`` the tracer's counters over the timed call,
    ``outcome`` its checked result, and ``setup_s``/``run_s`` the traced wall
    times of the phases. Plain names describe the timed call; ``setup.*``
    names the set-up layers as they ran before it.
    """
    def get(summary, span, key):
        return summary.get(span, {}).get(key, 0)

    out = {}
    for span, prefix in SELF_TIMED.items():
        out[f"{prefix}_s"] = float(get(run, span, "self_s"))
    for span in ("topology.edges", "topology.metropolis", "topology.matrix_at",
                 "consensus.error", "problems.grad", "problems.eval",
                 "oracles.perturb", "theory.budget"):
        out[f"{span}_calls"] = get(run, span, "calls")
    out["consensus.calls"] = get(run, "consensus.run", "calls")
    out.update(counters)
    rounds = counters["consensus.rounds"]
    out["topology.edges_per_round"] = out["topology.edges_calls"] / rounds if rounds else 0.0
    served = out["topology.matrix_at_calls"]
    builds = get(run, "topology.matrix_build", "calls")
    out["topology.matrix_cache_hit_ratio"] = 1.0 - builds / served if served else 0.0
    out["algorithms.run_s"] = float(get(run, "algorithms.run", "total_s"))
    out["harness.run_s"] = float(get(run, "harness.run", "total_s"))
    harness_ran = get(run, "harness.run", "calls") > 0
    out["harness.rows_written"] = outcome.rows_written if harness_ran else 0
    out["harness.bytes_written"] = outcome.bytes_written if harness_ran else 0
    for span in ("topology.graph", "topology.lam", "problems.build", "theory.budget"):
        out[f"setup.{span}_s"] = float(get(setup, span, "self_s"))
    out["setup.theory.budget_calls"] = get(setup, "theory.budget", "calls")
    out["trace.setup_s"] = setup_s
    out["trace.run_s"] = run_s
    return {name: out[name] for name in PER_LAYER if name in out}
