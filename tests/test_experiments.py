"""Batch studies: range sweeps, Monte Carlo runs, constellation diversity."""

import csv
import io
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import hcrb._linalg
import hcrb.contour
import hcrb.multiradar
from hcrb._pool import THREADS_ENV, map_items, worker_count
from hcrb.contour import TargetPose
from hcrb.errors import ScenarioError
from hcrb.experiments import (
    BOW_OFFSET,
    MC_RANGES,
    ResultTable,
    _mc_positions,
    ray_positions,
    run_diversity,
    run_mc,
    run_range_sweep,
)
from hcrb.fisher import hcrb_exact
from hcrb.multiradar import fuse, peb, uniform_constellation

HEADER = ["sweep", "quantity", "method", "value", "units", "n_trials", "seed"]


def _series(table, quantity, method):
    rows = [
        (float(r.sweep.split(":")[1]), r.value)
        for r in table.rows
        if r.quantity == quantity and r.method == method
    ]
    rows.sort()
    return np.array([v for _, v in rows])


def test_ray_positions_geometry():
    pts = ray_positions(5)
    assert pts.shape == (5, 2)
    npt.assert_allclose(pts[0], [6.0, 3.0])
    npt.assert_allclose(pts[-1], [89.0, 45.0])
    along = pts - pts[0]
    cross = along[:, 0] * (45.0 - 3.0) - along[:, 1] * (89.0 - 6.0)
    npt.assert_allclose(cross, 0.0, atol=1e-9)
    assert np.all(np.diff(np.hypot(pts[:, 0], pts[:, 1])) > 0.0)


def test_range_sweep_schema(scenario):
    table = run_range_sweep(scenario, n_points=4)
    assert not table.failures
    assert len(table.rows) == 4 * 14
    quantities = {(r.quantity, r.method) for r in table.rows}
    for name in ("c_range", "c_bearing", "c_heading"):
        for shape in ("known", "unknown"):
            assert (f"{name}_{shape}", "exact") in quantities
            assert (f"{name}_{shape}", "asymptotic") in quantities
    assert ("c_range_point", "point_target") in quantities
    assert all(r.sweep.startswith("range:") for r in table.rows)
    assert all(np.isfinite(r.value) for r in table.rows)


def test_range_sweep_bound_ordering(scenario):
    table = run_range_sweep(scenario, n_points=6)
    point = _series(table, "c_range_point", "point_target")
    known = _series(table, "c_range_known", "exact")
    unknown = _series(table, "c_range_unknown", "exact")
    assert np.all(point <= known)
    assert np.all(known <= unknown)


def test_direction_bounds_converge_with_range(scenario):
    table = run_range_sweep(scenario, n_points=8)
    ratio = _series(table, "c_bearing_unknown", "exact") / _series(
        table, "c_bearing_known", "exact"
    )
    assert np.all(np.diff(ratio) < 0.0)
    assert ratio[-1] < 1e-2 * ratio[0]


def test_sweep_exact_rows_match_standalone_bounds(scenario):
    """Both exact rows of a pose come from one information matrix; they
    equal the bounds hcrb_exact computes on its own for each case."""
    table = run_range_sweep(scenario, n_points=3)
    for k, xy in enumerate(ray_positions(3)):
        pose = TargetPose(d=float(np.hypot(*xy)), phi=float(np.arctan2(xy[1], xy[0])),
                          heading=scenario.pose.heading)
        moved = scenario.with_pose(pose)
        rows = {r.quantity: r.value for r in table.rows[14 * k:14 * (k + 1)]
                if r.method == "exact"}
        for name, known in (("known", True), ("unknown", False)):
            report = hcrb_exact(moved, contour_known=known)
            for axis in ("range", "bearing", "heading"):
                assert rows[f"c_{axis}_{name}"] == pytest.approx(
                    getattr(report, f"c_{axis}"), rel=1e-12)


def test_bounds_fall_as_e_over_n0_rises(scenario):
    base = run_range_sweep(scenario, n_points=3)
    louder = run_range_sweep(scenario.with_e_over_n0_db(46.0), n_points=3)
    assert len(base.rows) == len(louder.rows) == 3 * 14
    for quiet, loud in zip(base.rows, louder.rows):
        assert (quiet.sweep, quiet.quantity) == (loud.sweep, loud.quantity)
        assert loud.value < quiet.value, quiet


def test_sweep_is_deterministic(scenario):
    a = run_range_sweep(scenario, n_points=3).csv_text()
    b = run_range_sweep(scenario, n_points=3).csv_text()
    assert a == b


def test_mc_serial_and_threaded_agree(scenario, monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "1")
    serial = run_mc(scenario, ranges=(10.0,), trials=4, seed=9).csv_text()
    for count in (None, "2", "3"):
        if count is None:
            monkeypatch.delenv(THREADS_ENV)
        else:
            monkeypatch.setenv(THREADS_ENV, count)
        threaded = run_mc(scenario, ranges=(10.0,), trials=4, seed=9).csv_text()
        assert serial == threaded, count
    for bad in ("0", "abc"):
        monkeypatch.setenv(THREADS_ENV, bad)
        with pytest.raises(ScenarioError, match=THREADS_ENV):
            worker_count()


def test_worker_count_defaults_to_the_available_cpus(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    if hasattr(os, "sched_getaffinity"):
        assert worker_count() == len(os.sched_getaffinity(0))
    else:
        assert worker_count() == os.cpu_count()
    monkeypatch.setenv(THREADS_ENV, "1")
    assert worker_count() == 1


def test_map_items_keeps_order_and_reraises(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "3")
    callers = set()

    def square(x):
        callers.add(threading.get_ident())
        return x * x

    assert map_items(square, range(7)) == [x * x for x in range(7)]
    assert threading.get_ident() in callers

    def fails_on_five(x):
        if x == 5:
            raise ValueError("five")
        return x

    with pytest.raises(ValueError, match="five"):
        map_items(fails_on_five, range(7))


# Minor page faults of a second, warmed-up 30-pose sweep in a fresh process.
# Earlier tests' large arrays would raise glibc's trim threshold in this
# process and hide a regression, hence the subprocess.
SWEEP_FAULTS = """
import resource
from hcrb.experiments import run_range_sweep
from hcrb.scenario_io import load_file
scenario = load_file({path!r}).scenario
run_range_sweep(scenario, 30)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_range_sweep(scenario, 30)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="measures glibc's heap trimming")
def test_range_sweep_does_not_churn_pages():
    # Freeing two or more (2Q+3, K) temporaries together per pose lets glibc
    # trim the heap and fault the pages back in on the next pose (about 75k
    # faults per sweep); reused buffers keep the sweep to a few dozen.
    root = Path(__file__).resolve().parent.parent
    src = str(Path(hcrb.contour.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = SWEEP_FAULTS.format(path=str(root / "scenarios" / "vehicle.json"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert int(out.stdout.strip().splitlines()[-1]) < 1000


def test_mc_table_structure(scenario):
    table = run_mc(scenario, ranges=(10.0,), trials=3, seed=1)
    assert len(table.rows) == 22
    mc_rows = [r for r in table.rows if r.method == "monte_carlo"]
    assert {r.quantity for r in mc_rows} == {
        "var_range_extended", "var_bearing_extended",
        "bias_range_extended", "bias_bearing_extended",
        "var_range_point", "var_bearing_point",
        "bias_range_point", "bias_bearing_point",
    }
    assert all(r.n_trials == 3 and r.seed == 1 for r in mc_rows)
    bound_rows = [r for r in table.rows if r.method != "monte_carlo"]
    assert all(r.n_trials == 0 for r in bound_rows)
    assert MC_RANGES[0] == pytest.approx(6.7082039325)


def test_mc_ranges_on_the_sweep_run(scenario):
    # 6.7 m, the lower edge of the benchmark's range band, lies 0.008 m
    # before the segment start, within one position spacing (0.018 m)
    assert len(_mc_positions(MC_RANGES + (6.7,))) == len(MC_RANGES) + 1
    table = run_mc(scenario, ranges=(6.7,), trials=2, seed=4)
    assert {r.sweep for r in table.rows} == {"mc:6.7082"}


def test_mc_evaluates_each_pose_geometry_once(scenario, monkeypatch):
    # the bounds and the synthesis workspace share one pose field per range
    calls = []
    original = hcrb.contour.geometry_table

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(hcrb.contour, "geometry_table", counted)
    run_mc(scenario, ranges=(10.0, 15.0), trials=2, seed=1)
    assert len(calls) == 2
    assert calls[0] != calls[1]


def _count_qrs(monkeypatch) -> list:
    """Record every Householder QR: each goes through _linalg's dgeqrt."""
    qrs = []
    original = hcrb._linalg.dgeqrt

    def counted(*args, **kwargs):
        qrs.append(args[1].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(hcrb._linalg, "dgeqrt", counted)
    return qrs


def test_sweep_gathers_each_lit_arc_once(scenario, monkeypatch):
    # the exact and the far-field stack read one lit table per pose and
    # grid: the full grid's, and the 1024-node subgrid gathered from it,
    # which both sized stacks share. Each is factored once on 1024 nodes
    # and once on the even half of them, whose stack shares its derivative
    # fields: all four bounds read those QRs
    gathers = []
    original = hcrb.contour.GeometryTable.at

    def counted(self, index):
        gathers.append(len(index))
        return original(self, index)

    monkeypatch.setattr(hcrb.contour.GeometryTable, "at", counted)
    qrs = _count_qrs(monkeypatch)
    table = run_range_sweep(scenario, n_points=3)
    assert len(gathers) == 3 * 2
    assert len(qrs) == 3 * 2 * 2
    assert len(table.rows) == 3 * 14


def test_diversity_frozen_defaults(scenario, bundle):
    table = run_diversity(scenario, bundle.target_xy, bundle.heading)
    known = [r.value for r in table.rows if r.quantity == "peb_known"]
    unknown = [r.value for r in table.rows if r.quantity == "peb_unknown"]
    npt.assert_allclose(
        known,
        [0.00419915452009404, 0.0014551030528253896, 0.0011253547326272404,
         0.0010904828839467006, 0.0010839088739813707, 0.0010817232605434006],
        rtol=1e-9,
    )
    npt.assert_allclose(
        unknown,
        # the first at its 40-digit reference, which
        # test_multiradar.py::test_fused_peb_matches_reference[diversity_1] checks
        [0.9503905574948891, 0.006518930330922816, 0.0025810333905807743,
         0.0017575953666110224, 0.0016915834342454278, 0.0016500173443670994],
        rtol=1e-9,
    )
    # known-contour PEB saturates after three radars
    for prev, nxt in zip(known[2:], known[3:]):
        assert abs(nxt - prev) / prev < 0.05
    # adding the second radar buys the big unknown-contour win
    assert unknown[0] / unknown[1] >= 5.0


def test_diversity_reports_every_size_at_a_wider_radius(scenario, bundle):
    """At 10 m the PEB steps up slightly with some added radars; the run
    still reports all sizes, and a known contour never does worse."""
    table = run_diversity(scenario, bundle.target_xy, bundle.heading, radius=10.0)
    assert len(table.rows) == 12
    known = [r.value for r in table.rows if r.quantity == "peb_known"]
    unknown = [r.value for r in table.rows if r.quantity == "peb_unknown"]
    assert len(known) == len(unknown) == 6
    assert all(u >= k for k, u in zip(known, unknown))


@pytest.mark.parametrize("radius", [7.0, 10.0])
def test_diversity_builds_each_shared_radar_once(scenario, bundle, monkeypatch,
                                                 radius):
    # the rings of counts 1-6 place 21 radars at 12 distinct fractions of a
    # turn; reusing their factors changes no PEB
    calls = []
    original = hcrb.multiradar.efim_exact

    def counted(*args, **kwargs):
        calls.append(args[0].pose)
        return original(*args, **kwargs)

    monkeypatch.setattr(hcrb.multiradar, "efim_exact", counted)
    qrs = _count_qrs(monkeypatch)
    target, heading = bundle.target_xy, bundle.heading
    table = run_diversity(scenario, target, heading, radius=radius)
    assert len(calls) == 12
    # per distinct radar one QR per grid its sizing tried (512 and 1024
    # nodes for nine radars, and 2048 as well for three), one per fused
    # ring: both PEBs read its R
    assert len(qrs) == 9 * 2 + 3 * 3 + 6
    monkeypatch.undo()
    for count in range(1, 7):
        radars = uniform_constellation(target, count, radius,
                                       start_angle=heading - BOW_OFFSET)
        alone = fuse(scenario, target, heading, radars, total_e_over_n0_db=40.0)
        got = {r.quantity: r.value for r in table.rows
               if r.sweep == f"diversity:{count}"}
        assert got["peb_known"] == pytest.approx(peb(alone.pose_block().crb()),
                                                 rel=1e-12)
        assert got["peb_unknown"] == pytest.approx(peb(alone.crb()), rel=1e-12)


def test_result_table_serialization(tmp_path):
    table = ResultTable()
    table.add("demo:1", "quantity_a", "exact", 1.0 / 3.0, "m^2")
    table.add("demo:2", "quantity_b", "monte_carlo", 2.5e-17, "rad^2",
              n_trials=7, seed=3)
    text = table.csv_text()
    out = tmp_path / "table.csv"
    table.to_csv(out)
    assert out.read_bytes().decode() == text

    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == HEADER
    assert float(parsed[1][3]) == 1.0 / 3.0  # %.17g survives the round trip
    assert parsed[2][5] == "7" and parsed[2][6] == "3"
