"""Run a plnet benchmark workload and print its metrics.

One workload, as the benchmark contract calls it::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in its own process, with a summary table; the exit code
is non-zero when any output check fails::

    python3 bench/run.py --workload all --seed N [--seconds S] [--trace 0|1]

Run from a checkout of the repository: the program is imported from
``src/`` next to this directory, never from an installed copy. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run. Earlier lines give the environment, every metric with its
unit and sample count, and any failed check. Spans and raw samples are
written under ``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("mgda_robust_ls", "dgd_pstep_n1000", "dgd_static_n1000",
                  "dgd_trace_record")

# One BLAS thread, so the figures do not depend on how many cores the host has
# or how busy the other ones are.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The rerun check of dgd_trace_record needs two invocations, and set-up is
# timed at least three times. Batches of set-ups are interleaved with the
# timed calls and take about SETUP_SHARE of the window, so both sample the
# whole window; a batch repeats a cheap set-up for SETUP_BATCH_SECONDS, so
# most set-ups do not start right after a timed call.
MIN_RUNS = 2
MIN_SETUPS = 3
SETUP_SHARE = 0.1
SETUP_BATCH_SECONDS = 0.2

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "rounds_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment -----------------------------------------------------------------

def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas():
    """Version string and live thread count of the OpenBLAS numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            return get_config().decode(), get_threads()
    return "not found", None


def environment():
    import numpy

    config, threads = _openblas()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "openblas": config, "blas_threads_requested": BLAS_THREADS,
            "blas_threads": threads, "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": _git_commit()}


# -- measurement -------------------------------------------------------------------

def _timed(workload, state):
    start = time.perf_counter()
    try:
        result = workload.run(state)
    except Exception as exc:  # a raising run is a failed run, not a crash
        result = exc
    return time.perf_counter() - start, result


def _wants_setup(state, setup_times, run_times, elapsed, seconds):
    """Whether the next step of the window is a set-up batch rather than a timed call."""
    if state is None:
        return True
    if not run_times:  # the first timed call runs on the first set-up
        return False
    # MIN_SETUPS spread evenly over the window, more while they take less
    # than SETUP_SHARE of it
    due = min(MIN_SETUPS, 1 + int(MIN_SETUPS * elapsed / seconds))
    return len(setup_times) < due or sum(setup_times) < SETUP_SHARE * elapsed


def _setup_batch(workload, seed, out_dir, times, seconds):
    """Set up at least once and for at least ``seconds``; keep the last state."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        state = workload.setup(seed, out_dir)
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return state


@dataclass
class Measurement:
    """Metrics of one process, with the raw samples and how many each one took."""

    metrics: dict
    units: dict
    samples: dict
    counts: dict
    tally: object
    how: dict = field(default_factory=dict)  # metric -> statistic, if not the median


class Tally:
    """Attempted and failed runs over every timed call of one process."""

    def __init__(self, workload):
        self.workload = workload
        self.memo = {}
        self.attempted = 0
        self.failures = []

    def check(self, state, result):
        return self.add(self.workload.check(state, result, self.memo))

    def validate(self, seed, out_dir):
        """The workload's untimed full-length run, if it has one."""
        if self.workload.validate is not None:
            self.add(self.workload.validate(seed, out_dir))

    def add(self, outcome):
        self.attempted += outcome.attempted
        self.failures.extend(outcome.failures.items())
        return outcome


def measure_end_to_end(workload, seed, seconds, out_dir):
    """Validate, then repeat set-ups and timed calls, for ``seconds`` in all.

    ``run_s`` is the fastest timed call and ``rounds_per_s`` the highest
    rate: every call does the same work, and on a shared host interference
    only ever adds time, so the fastest call is the steadiest estimate of
    the program's own cost. ``setup_s`` is the median set-up.
    """
    import resource

    tally = Tally(workload)
    setup_times, run_times, rates = [], [], []
    state = None
    start = time.perf_counter()
    tally.validate(seed, out_dir)  # its time counts against the window
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(run_times) >= MIN_RUNS \
                and len(setup_times) >= MIN_SETUPS:
            break
        if _wants_setup(state, setup_times, run_times, elapsed, seconds):
            state = _setup_batch(workload, seed, out_dir, setup_times,
                                 SETUP_BATCH_SECONDS if run_times else 0.0)
            continue
        duration, result = _timed(workload, state)
        if not run_times:
            # the peak of one set-up plus one run (and of the smaller
            # validation run), whatever the timing
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        outcome = tally.check(state, result)
        run_times.append(duration)
        rates.append(outcome.rounds / duration)
    metrics = {
        "run_s": min(run_times),
        "setup_s": statistics.median(setup_times),
        "rounds_per_s": max(rates),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - len(tally.failures) / tally.attempted,
    }
    samples = {"run_s": run_times, "setup_s": setup_times, "rounds_per_s": rates}
    counts = {name: len(values) for name, values in samples.items()}
    return Measurement(metrics, END_TO_END_UNITS, samples, counts, tally,
                       how={"run_s": "fastest", "rounds_per_s": "highest"})


def measure_layers(workload, seed, seconds, out_dir):
    """Alternate untraced and traced calls; per-layer medians over traced calls.

    A traced call repeats the set-up under the tracer, so set-up layers
    (builds, ``estimate_lambda``, budgets) are measured too.
    """
    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics

    tally = Tally(workload)
    state = workload.setup(seed, out_dir)
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        elapsed, result = _timed(workload, state)
        tally.check(state, result)
        plain.append(elapsed)
        tracer.reset()
        with tracer.installed():
            t0 = time.perf_counter()
            traced_state = workload.setup(seed, out_dir)
            setup_s = time.perf_counter() - t0
            boundary = tracer.start_phase()
            elapsed, result = _timed(workload, traced_state)
        outcome = tally.check(traced_state, result)
        traced.append(layer_metrics(tracer.summary(stop=boundary),
                                    tracer.summary(start=boundary), tracer.counters,
                                    outcome, setup_s, elapsed))
    tally.validate(seed, out_dir)
    tracer.dump(os.path.join(OUT_DIR, f"{workload.name}.spans.npz"))
    metrics = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
    metrics["trace_overhead_frac"] = metrics["trace.run_s"] / statistics.median(plain) - 1.0
    samples = {"untraced_run_s": plain, "traced": traced}
    counts = dict.fromkeys(traced[0], len(traced))
    return Measurement(metrics, PER_LAYER_UNITS, samples, counts, tally)


def _distribution(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    text = f"median {statistics.median(ordered):.6g} s"
    if len(ordered) > 10:
        pct = 100 * (len(ordered) - 10) // len(ordered)
        text += f", p{pct} {ordered[-11]:.6g} s"
    return f"{text} over {len(ordered)} calls"


def run_one(args):
    sys.path.insert(0, SRC)
    import plnet

    if not os.path.abspath(plnet.__file__).startswith(SRC + os.sep):
        print(f"error: plnet imported from {plnet.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    out_dir = os.path.join(OUT_DIR, workload.name)
    os.makedirs(out_dir, exist_ok=True)
    measure = measure_layers if args.trace else measure_end_to_end
    m = measure(workload, args.seed, args.seconds, out_dir)
    for name, value in m.metrics.items():
        note = f"  ({m.how.get(name, 'median')} of {m.counts[name]})" \
            if name in m.counts else ""
        print(f"{workload.name} {name} = {value:.6g} {m.units[name]}{note}")
    if "run_s" in m.samples:
        print(f"{workload.name} run_s calls: {_distribution(m.samples['run_s'])}")
    failures = m.tally.failures
    for run_id, reason in failures:
        print(f"FAILED {workload.name} {run_id}: {reason}")
    with open(os.path.join(OUT_DIR, f"{workload.name}.trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "env": env,
                   "metrics": m.metrics, "samples": m.samples, "failures": failures},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not failures, "attempted": m.tally.attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": m.units[name]}
                    for name, value in m.metrics.items()}}))
    return 1 if failures else 0


def run_all(args):
    """Run every workload in its own process, then print one table."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAILED {name}: no result (exit code {proc.returncode})")
            totals["correct"] = False
            code = 1
            continue
        code = code or proc.returncode
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = entry
    width = max(map(len, totals["metrics"]), default=0)
    print()
    for key, entry in totals["metrics"].items():
        print(f"{key:<{width}}  {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(totals))
    return code


def main(argv=None):
    args = _parse(argv)
    for var in BLAS_ENV:  # before numpy is imported, here or in a child
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "plnet", "__init__.py")):
        print(f"error: plnet sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
