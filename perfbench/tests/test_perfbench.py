"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Run from the repository root. They are not part of the package suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def bundle():
    from hcrb import scenario_io

    return scenario_io.load_file(ROOT / workloads.SCENARIO_FILE)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload(workload, bundle, monkeypatch):
    monkeypatch.chdir(ROOT)
    size = workloads.SIZES["tiny"]
    checker = checks.Checker(workload, 1, bundle.document)
    ops = worker.timed_phase(workload, 1, 0.0, bundle, checker, size)
    assert len(ops) == workloads.round_length(workload)
    for op in ops:
        assert op.problems == []
        assert op.items > 0 or op.error is not None
    metrics = worker.end_to_end(ops, worker.peak_rss_mb())
    assert metrics["ops_per_s"] > 0.0 and metrics["items_per_s"] > 0.0
    if workload == "bounds":
        # one op per round draws an off-default radius; at the baseline the
        # PEB monotonicity assert trips there
        radii = [op.inputs["radius_m"] for op in ops]
        assert sum(r != workloads.DEFAULT_RADIUS_M for r in radii) == 1


def test_inputs_are_seed_deterministic():
    for workload in workloads.WORKLOADS:
        first = [workloads.op_inputs(workload, 7, i) for i in range(-1, 8)]
        again = [workloads.op_inputs(workload, 7, i) for i in range(-1, 8)]
        other = [workloads.op_inputs(workload, 8, i) for i in range(-1, 8)]
        assert first == again
        assert first != other


def test_self_time_on_synthetic_span_tree():
    # op [0, 10] -> a [1, 5] -> c [2, 3]
    #            -> b [6, 9]
    # plus an overlapping pair under d [20, 30]: e [21, 25], f [23, 28]
    spans = [
        ("op", 0.0, 10.0, None, 0, None),
        ("a", 1.0, 5.0, 0, 0, None),
        ("c", 2.0, 3.0, 1, 0, None),
        ("b", 6.0, 9.0, 0, 0, None),
        ("d", 20.0, 30.0, None, 1, None),
        ("e", 21.0, 25.0, 4, 1, None),
        ("f", 23.0, 28.0, 4, 1, None),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 1.0, 3.0, 3.0, 4.0, 5.0]


def test_layer_metrics_per_op_and_per_frame():
    spans = [
        ("op", 0.0, 10.0, None, 0, None),
        ("waveform.synthesize_frame", 1.0, 3.0, 0, 0, 100),
        ("estimators.estimate", 3.0, 9.0, 0, 0, 1),
        ("estimators.estimate_direction", 3.0, 6.0, 2, 0, None),
        ("fft", 4.0, 5.0, 3, 0, 64),
        ("fft", 0.5, 0.75, 0, 0, 8),  # outside the frame pipeline
    ]
    m = tracing.layer_metrics(spans)
    assert m["fft.calls_per_frame"] == 1.0
    assert m["fft.points_per_frame"] == 64.0
    assert m["waveform.synthesize_frame.bytes_per_frame"] == 100.0
    assert m["estimators.estimate_direction.self_ms_per_frame"] == pytest.approx(2e3)
    assert m["estimators.confident_ratio"] == 1.0
    assert m["trace.coverage"] == pytest.approx(8.25 / 10.0)


def test_coverage_leaves_out_orchestration_self_time():
    # op [0, 10] -> run_mc [0, 9] -> synthesize_frame [1, 5]
    spans = [
        ("op", 0.0, 10.0, None, 0, None),
        ("experiments.run_mc", 0.0, 9.0, 0, 0, None),
        ("waveform.synthesize_frame", 1.0, 5.0, 1, 0, 100),
    ]
    assert tracing.layer_metrics(spans)["trace.coverage"] == pytest.approx(0.4)


def test_tracer_wraps_aliases_and_restores(bundle):
    import numpy as np
    from hcrb import experiments, fisher, multiradar, waveform

    originals = (waveform.synthesize_frame, fisher.efim_exact, np.fft.fft)
    trace = tracing.Tracer()
    trace.install(tracing.LAYERS + (("gone", "hcrb.fisher", "no_such_fn", None),))
    try:
        assert experiments.synthesize_frame is waveform.synthesize_frame
        assert waveform.synthesize_frame is not originals[0]
        assert multiradar.efim_exact is fisher.efim_exact is not originals[1]
        with trace.op(0):
            fisher.efim_exact(bundle.scenario)
    finally:
        trace.uninstall()
    assert (waveform.synthesize_frame, fisher.efim_exact, np.fft.fft) == originals
    assert experiments.synthesize_frame is originals[0]
    assert trace.missing == ["hcrb.fisher.no_such_fn"]
    m = tracing.layer_metrics(trace.spans)
    assert m["fisher.efim_exact.calls_per_op"] == 1.0
    assert m["contour.geometry_table.nodes_per_call"] == bundle.scenario.quadrature.nodes
    assert m["starcalc.star_inner.gflop_per_op"] > 0.0


def test_failing_count_leaves_the_call_alone(bundle):
    from hcrb import fisher

    def broken(args, kwargs, result):
        raise AttributeError("no such field")

    original = fisher.efim_exact
    trace = tracing.Tracer()
    trace.install((("fisher.efim_exact", "hcrb.fisher", "efim_exact", broken),))
    try:
        with trace.op(0):
            result = fisher.efim_exact(bundle.scenario)
    finally:
        trace.uninstall()
    assert result is not None and fisher.efim_exact is original
    assert trace.missing == ["fisher.efim_exact: count failed (AttributeError)"]
    assert [s[0] for s in trace.spans] == ["op", "fisher.efim_exact"]
    assert trace.spans[1][5] is None


def _replay(rows):
    def op_fn(bundle, inputs, size, out, span=None):
        out.extend(tuple(r[:5]) for r in rows)
        return 1
    return op_fn


@pytest.mark.parametrize("workload", ("bounds", "mc"))
def test_perturbed_bound_value_is_a_failed_op(workload, bundle):
    checker = checks.Checker(workload, checks.CANONICAL_SEED, bundle.document)
    ref_op = checks.load_reference(workload)[0]
    size = workloads.SIZES["default"]
    good = worker.attempt(_replay(ref_op["rows"]), bundle, ref_op["inputs"], 0,
                          size, checker)
    rows = [list(r) for r in ref_op["rows"]]
    target = next(r for r in rows if r[2] == "exact")
    target[3] *= 1.0 + 1e-5
    bad = worker.attempt(_replay(rows), bundle, ref_op["inputs"], 0, size, checker)
    assert not bad.failed  # the invariants hold; only the reference catches it

    worker.check_reference([good, bad], checker)
    assert not good.failed
    assert bad.failed and bad.error is None
    assert any(target[1] in p for p in bad.problems)
    assert (checker.compared, checker.unreferenced) == (2, 0)


def test_ops_beyond_the_reference_are_counted(bundle):
    checker = checks.Checker("simulate", checks.CANONICAL_SEED, bundle.document)
    beyond = max(checks.load_reference("simulate")) + 1
    inputs = workloads.op_inputs("simulate", checks.CANONICAL_SEED, beyond)
    assert checker.reference_problems(beyond, inputs, []) == []
    assert (checker.compared, checker.unreferenced) == (0, 1)


def test_invariants_flag_unknown_below_known():
    rows = [("range:50", "c_range_known", "exact", 2.0, 0),
            ("range:50", "c_range_unknown", "exact", 1.0, 0)]
    assert checks.check_bound_invariants(rows)


@pytest.mark.parametrize("confident, flagged", ((1, True), (0, False)))
def test_estimate_off_the_target_is_flagged_only_when_confident(confident, flagged):
    inputs = {"range_m": 20.0, "bearing_deg": 10.0}
    rows = [("frame:0", "d_hat", "estimate", 30.0, confident),
            ("frame:0", "phi_hat", "estimate", 1.0, confident)]
    problems = checks.check_estimates(rows, inputs, extent_m=2.8)
    assert bool(problems) == flagged
    nan_rows = [("frame:0", "d_hat", "estimate", float("nan"), confident)]
    assert checks.check_estimates(nan_rows, inputs, extent_m=2.8)


def test_exception_is_a_failed_op(bundle):
    def boom(bundle, inputs, size, out, span=None):
        raise AssertionError("PEB must not grow with more radars")

    op = worker.attempt(boom, bundle, {}, 0, {}, lambda *a: [])
    assert op.failed and op.error.startswith("AssertionError")


def test_command_refuses_to_run_without_a_checkout(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_command_prints_declared_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "simulate", "--seed", "3", "--seconds", "0.1",
                               "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert [m["name"] for m in config[kind]] == list(result["metrics"])
