"""One workload in one process: set-up, then a timed or a traced phase.

    python3 perfbench/worker.py --mode {setup,run,trace} --workload NAME
        --seed N --seconds S [--spans FILE]

Prints one JSON object on its last line. ``run.py`` starts this once per
measurement so that set-up time and peak RSS belong to one workload; this
process starts no threads or processes of its own.

Set-up time runs from just before ``import hcrb`` through loading the
scenario to the end of the first, untimed op, which is what every ``hcrb``
command pays. Op wall times exclude the output checks. On the canonical
seed the comparison with the reference runs after the measurement, once
peak RSS has been read, so the reference's memory is not measured.
"""

import argparse
import itertools
import json
import os
import platform
import re
import resource
import statistics
import time
import warnings
from contextlib import nullcontext

import checks
import tracer as tracing
import workloads

WARMUP = -1
# Nominal seconds per round on a quiet 2-core x86 box. The traced run uses
# them only to fix how many rounds it replays, from --seconds alone, so its
# counts repeat exactly for a given seed.
NOMINAL_ROUND_S = {"bounds": 5.6, "mc": 2.4, "simulate": 0.6}
RIDGE_WARNING = re.compile("rank-deficient")


class Op:
    """Result of one attempted op."""

    def __init__(self, index, inputs):
        self.index = index
        self.inputs = inputs
        self.rows = []
        self.items = 0
        self.seconds = 0.0
        self.error = None
        self.problems = []
        self.ridge_fallbacks = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    def summary(self) -> dict:
        return {"index": self.index, "inputs": self.inputs, "ms": 1e3 * self.seconds,
                "error": self.error, "problems": self.problems[:5]}


def attempt(op_fn, bundle, inputs, index, size, checker, trace=None):
    """Run one op, time it, then check its rows; exceptions count as failures.

    With a tracer the op runs inside an op span and its warnings are
    recorded, so rank-deficient solves can be counted.
    """
    op = Op(index, inputs)
    extra = {} if trace is None else {"span": trace.span}
    context = nullcontext() if trace is None else trace.op(index)
    with warnings.catch_warnings(record=trace is not None) as caught:
        if trace is not None:
            warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            with context:
                op.items = op_fn(bundle, inputs, size, op.rows, **extra)
        except Exception as err:  # every failure of the program counts
            op.error = f"{type(err).__name__}: {err}"
        op.seconds = time.perf_counter() - start
    if trace is not None:
        op.ridge_fallbacks = sum(1 for w in caught if RIDGE_WARNING.search(str(w.message)))
    if op.error is None:
        op.problems = checker(index, inputs, op.rows)
    return op


def setup(workload, seed, size, checker):
    """Import hcrb, load the scenario and run the untimed first op.

    Returns (bundle, first op, load seconds, set-up seconds); the output
    check of the first op is not part of the set-up time.
    """
    start = time.perf_counter()
    from hcrb import scenario_io

    loaded = time.perf_counter()
    bundle = scenario_io.load_file(workloads.SCENARIO_FILE)
    load_s = time.perf_counter() - loaded
    inputs = workloads.op_inputs(workload, seed, WARMUP)
    ready = time.perf_counter()
    warm = attempt(workloads.OPS[workload], bundle, inputs, WARMUP, size, checker)
    return bundle, warm, load_s, ready - start + warm.seconds


def timed_phase(workload, seed, seconds, bundle, checker, size):
    """Whole rounds of ops until their wall time reaches ``seconds``."""
    op_fn = workloads.OPS[workload]
    per_round = workloads.round_length(workload)
    ops, busy = [], 0.0
    for index in itertools.count():
        inputs = workloads.op_inputs(workload, seed, index)
        op = attempt(op_fn, bundle, inputs, index, size, checker)
        ops.append(op)
        busy += op.seconds
        if len(ops) % per_round == 0 and busy >= seconds:
            return ops


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_reference(ops, checker):
    """Compare the ops that completed with the reference (canonical seed)."""
    for op in ops:
        if op.error is None:
            op.problems += checker.reference_problems(op.index, op.inputs, op.rows)


def end_to_end(ops, peak_rss):
    done = [op for op in ops if not op.failed]
    wall = sum(op.seconds for op in ops)
    return {
        "ops_per_s": len(done) / wall,
        "op_p50_ms": 1e3 * statistics.median(op.seconds for op in done) if done else 0.0,
        "items_per_s": sum(op.items for op in done) / wall,
        "peak_rss_mb": peak_rss,
    }


def op_tail(ops):
    """Highest percentile with at least ten ops beyond it, if above the median."""
    times = sorted(op.seconds for op in ops if not op.failed)
    n = len(times)
    beyond = 10
    if n <= 2 * beyond:
        return None
    pct = 100.0 * (n - beyond) / n
    return {"percentile": pct, "ms": 1e3 * times[n - beyond - 1], "ops": n}


def cache_ratio(fn):
    info = getattr(fn, "cache_info", None)
    if info is None:
        return 0.0
    stats = info()
    total = stats.hits + stats.misses
    return stats.hits / total if total else 0.0


def traced_phase(workload, seed, seconds, bundle, checker, size):
    """Run a fixed number of rounds, each op once untraced and once traced.

    The two runs of an op alternate which goes first, so load drift on a
    shared box cancels out of trace.overhead.
    """
    from hcrb import estimators, waveform

    per_round = workloads.round_length(workload)
    rounds = max(1, round(seconds / 2.0 / NOMINAL_ROUND_S[workload]))
    op_fn = workloads.OPS[workload]
    trace = tracing.Tracer()
    plain, traced = [], []
    for i in range(rounds * per_round):
        inputs = workloads.op_inputs(workload, seed, i)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                trace.install()
            try:
                op = attempt(op_fn, bundle, inputs, i, size, checker,
                             trace if with_trace else None)
            finally:
                trace.uninstall()
            (traced if with_trace else plain).append(op)

    metrics = tracing.layer_metrics(trace.spans)
    plain_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in traced)
    metrics["trace.overhead"] = traced_s / plain_s - 1.0
    metrics["linalg.ridge_fallbacks_per_op"] = \
        sum(op.ridge_fallbacks for op in traced) / len(traced)
    metrics["waveform.effective_bandwidth.hit_ratio"] = \
        cache_ratio(getattr(waveform, "effective_bandwidth", None))
    metrics["estimators.scan_grid.hit_ratio"] = \
        cache_ratio(getattr(estimators, "_scan_grid", None))
    return plain, traced, metrics, trace


def environment():
    import numpy
    import scipy

    def blas(mod):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except Exception as err:  # layout differs across versions
            return f"unknown ({type(err).__name__})"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k == "HCRB_THREADS"},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def write_spans(path, trace):
    with open(path, "w") as handle:
        for name, start, end, parent, op, info in trace.spans:
            handle.write(json.dumps([name, start, end, parent, op, info]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", metavar="FILE", help="write traced spans here")
    args = parser.parse_args(argv)
    size = workloads.SIZES["default"]
    with open(workloads.SCENARIO_FILE) as handle:
        document = json.load(handle)
    checker = checks.Checker(args.workload, args.seed, document)

    bundle, warm, load_s, setup_s = setup(args.workload, args.seed, size, checker)
    import hcrb

    out = {"setup_s": setup_s, "hcrb_file": hcrb.__file__}
    if args.mode == "run":
        ops = timed_phase(args.workload, args.seed, args.seconds, bundle, checker, size)
        peak_rss = peak_rss_mb()
        check_reference([warm] + ops, checker)
        out["metrics"] = end_to_end(ops, peak_rss)
        out["op_tail"] = op_tail(ops)
    elif args.mode == "trace":
        plain, traced, metrics, trace = traced_phase(args.workload, args.seed, args.seconds,
                                                     bundle, checker, size)
        ops = plain + traced
        check_reference([warm] + ops, checker)
        metrics["failed_frac"] = sum(op.failed for op in traced) / len(traced)
        metrics["scenario_io.load_file.ms"] = 1e3 * load_s
        out["metrics"] = metrics
        out["missing_layers"] = trace.missing
        if args.spans:
            write_spans(args.spans, trace)
    else:
        ops = []
        check_reference([warm], checker)
    out["warmup"] = warm.summary()
    out["ops"] = [op.summary() for op in ops]
    out["attempted"] = len(ops)
    out["failed"] = sum(op.failed for op in ops)
    out["incorrect"] = sum(bool(op.problems) for op in ops) + bool(warm.problems)
    out["warmup_failed"] = warm.failed
    if checker.canonical:
        out["reference"] = {"compared": checker.compared,
                            "unreferenced": checker.unreferenced}
    out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
