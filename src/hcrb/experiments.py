"""Reproducible sweep and Monte Carlo runners emitting flat CSV tables.

Every runner is a pure function of (inputs, seed): trials draw their seeds
from a SeedSequence keyed on (seed, sweep point, trial), so tables are
bit-identical across re-runs and across worker counts. The CSV layout is
one scalar per row: sweep,quantity,method,value,units,n_trials,seed with
the sweep column carrying name:abscissa (e.g. "range:6.7082").
"""

import csv
import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .asymptotics import hcrb_known_shape, hcrb_unknown_shape, t_blocks
from .contour import TargetPose, pose_field
from .errors import IdentifiabilityError, ScenarioError
from .estimators import estimate
from .fisher import efim_exact, hcrb_from_efim, point_target_crb
from .multiradar import fuse, peb, uniform_constellation
from .scenario import Scenario, SegmentationConfig
from .waveform import point_workspace, synthesis_workspace, synthesize_frame

THREADS_ENV = "HCRB_THREADS"

# Range sweeps move the target along the segment below with the received
# energy pinned, so range is the only moving part.
SWEEP_START = (6.0, 3.0)
SWEEP_STOP = (89.0, 45.0)
MC_RANGES = (6.7082039325, 15.0, 35.0, 80.0)

# Constellation orientation relative to the target bow. Dead-ahead or astern
# views are shape-degenerate (the lit arc collapses onto the symmetry axis),
# so the default keeps every radar well clear of that alignment.
BOW_OFFSET = np.radians(40.0)


def worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    try:
        count = int(raw)
    except ValueError:
        count = None
    if count is None or count < 1:
        raise ScenarioError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return count


def _map_items(fn, items):
    workers = worker_count()
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class ResultRow:
    sweep: str
    quantity: str
    method: str
    value: float
    units: str
    n_trials: int
    seed: int


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # skipped sweep points

    def add(self, sweep, quantity, method, value, units, n_trials=0, seed=0):
        self.rows.append(
            ResultRow(sweep, quantity, method, float(value), units,
                      int(n_trials), int(seed))
        )

    def to_csv(self, target) -> None:
        """Write to a path or file object; float formatting is fixed so
        identical tables serialize identically."""
        if isinstance(target, (str, Path)):
            with open(target, "w", newline="") as handle:
                self.to_csv(handle)
            return
        writer = csv.writer(target)
        writer.writerow(["sweep", "quantity", "method", "value", "units",
                         "n_trials", "seed"])
        for row in self.rows:
            writer.writerow([row.sweep, row.quantity, row.method,
                             f"{row.value:.17g}", row.units, row.n_trials,
                             row.seed])

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def ray_positions(n_points: int, start=SWEEP_START, stop=SWEEP_STOP) -> np.ndarray:
    """(n, 2) positions on the segment start->stop with log-spaced ranges."""
    start = np.asarray(start, dtype=float)
    stop = np.asarray(stop, dtype=float)
    t_fine = np.linspace(0.0, 1.0, 20001)
    points = start[None, :] + t_fine[:, None] * (stop - start)[None, :]
    dists = np.hypot(points[:, 0], points[:, 1])
    targets = np.geomspace(dists[0], dists[-1], n_points)
    t_sel = np.interp(targets, dists, t_fine)
    return start[None, :] + t_sel[:, None] * (stop - start)[None, :]


def _pose_at(scenario: Scenario, xy: np.ndarray) -> TargetPose:
    return TargetPose(
        d=float(np.hypot(xy[0], xy[1])),
        phi=float(np.arctan2(xy[1], xy[0])),
        heading=scenario.pose.heading,
    )


def _bound_rows(table: ResultTable, sweep: str, scenario: Scenario, seed: int):
    """Exact, asymptotic and point-target bound rows for one pose.

    The pose's geometry and weights are evaluated once (pose_field) and
    shared by efim_exact and t_blocks; the field is returned so synthesis can
    share it too. Both exact reports come from that one information matrix:
    the known-contour bound inverts its pose block, the unknown-contour bound
    the whole matrix.
    """
    field = pose_field(scenario)
    efim = efim_exact(scenario, field)
    exact = hcrb_from_efim(efim, contour_known=False)
    exact_known = hcrb_from_efim(efim, contour_known=True)
    blocks = t_blocks(scenario, field)
    asym_known = hcrb_known_shape(blocks)
    asym_unknown = hcrb_unknown_shape(blocks)
    point = point_target_crb(scenario)

    units = {"range": "m^2", "bearing": "rad^2", "heading": "rad^2"}
    for method, known, unknown in (("exact", exact_known, exact),
                                   ("asymptotic", asym_known, asym_unknown)):
        for name, report in (("known", known), ("unknown", unknown)):
            for axis in ("range", "bearing", "heading"):
                table.add(sweep, f"c_{axis}_{name}", method,
                          getattr(report, f"c_{axis}"), units[axis], 0, seed)
    table.add(sweep, "c_range_point", "point_target", point[0, 0], "m^2", 0, seed)
    table.add(sweep, "c_bearing_point", "point_target", point[1, 1], "rad^2", 0, seed)
    return field


def run_range_sweep(scenario: Scenario, n_points: int = 30, seed: int = 0,
                    start=SWEEP_START, stop=SWEEP_STOP,
                    skip_singular: bool = False) -> ResultTable:
    """Bounds along the range sweep, energy pinned by the scenario config.

    With skip_singular, positions whose information matrix is singular are
    recorded in table.failures instead of aborting the sweep.
    """
    table = ResultTable()
    for xy in ray_positions(n_points, start, stop):
        moved = scenario.with_pose(_pose_at(scenario, xy))
        sweep = f"range:{moved.pose.d:.6g}"
        try:
            _bound_rows(table, sweep, moved, seed)
        except IdentifiabilityError as err:
            if not skip_singular:
                raise
            table.failures.append(f"{sweep}: {err}")
    return table


def _trial_seeds(seed: int, *context, trials: int) -> np.ndarray:
    ss = np.random.SeedSequence([int(seed), *[int(c) for c in context]])
    return ss.generate_state(trials, dtype=np.uint64)


def _mc_point(scenario, workspace, seeds):
    """Run trials, return per-trial (d_hat, phi_hat, confident)."""
    wf = scenario.waveform

    def one(trial_seed):
        frame = synthesize_frame(workspace, int(trial_seed))
        res = estimate(frame, wf)
        return res.d, res.phi, res.confident

    out = _map_items(one, list(seeds))
    d_hat = np.array([o[0] for o in out])
    phi_hat = np.array([o[1] for o in out])
    used = np.array([o[2] for o in out], dtype=bool)
    return d_hat, phi_hat, used


def _variance_rows(table, sweep, kind, d_hat, phi_hat, used, truth, seed):
    n_used = int(used.sum())
    if n_used < 2:
        raise ScenarioError(
            f"{sweep}/{kind}: only {n_used} confident trials; cannot form a variance"
        )
    var_d = float(np.var(d_hat[used], ddof=1))
    var_phi = float(np.var(phi_hat[used], ddof=1))
    table.add(sweep, f"var_range_{kind}", "monte_carlo", var_d, "m^2", n_used, seed)
    table.add(sweep, f"var_bearing_{kind}", "monte_carlo", var_phi, "rad^2",
              n_used, seed)
    table.add(sweep, f"bias_range_{kind}", "monte_carlo",
              float(np.mean(d_hat[used]) - truth.d), "m", n_used, seed)
    table.add(sweep, f"bias_bearing_{kind}", "monte_carlo",
              float(np.mean(phi_hat[used]) - truth.phi), "rad", n_used, seed)


def run_mc(scenario: Scenario, ranges=MC_RANGES, trials: int = 500, seed: int = 0,
           segmentation: SegmentationConfig = None,
           start=SWEEP_START, stop=SWEEP_STOP) -> ResultTable:
    """Matched-filter estimator variance against the bounds, range by range.

    Extended-target trials redraw the segment gains every frame; point-target
    trials replace the contour with a single scatterer of the same energy.
    Low-confidence trials (noise-like peaks) are excluded but counted via the
    n_trials column.
    """
    table = ResultTable()
    positions = ray_positions(1001, start, stop)
    dists = np.hypot(positions[:, 0], positions[:, 1])

    for index, want in enumerate(ranges):
        xy = positions[int(np.argmin(np.abs(dists - want)))]
        moved = scenario.with_pose(_pose_at(scenario, xy))
        sweep = f"mc:{moved.pose.d:.6g}"
        field = _bound_rows(table, sweep, moved, seed)

        ws_ext = synthesis_workspace(moved, segmentation, field)
        d_hat, phi_hat, used = _mc_point(
            moved, ws_ext, _trial_seeds(seed, index, 0, trials=trials))
        _variance_rows(table, sweep, "extended", d_hat, phi_hat, used,
                       moved.pose, seed)

        ws_pt = point_workspace(moved)
        d_hat, phi_hat, used = _mc_point(
            moved, ws_pt, _trial_seeds(seed, index, 1, trials=trials))
        _variance_rows(table, sweep, "point", d_hat, phi_hat, used,
                       moved.pose, seed)
    return table


def run_diversity(template: Scenario, target_xy, heading: float,
                  counts=tuple(range(1, 7)), radius: float = 7.0,
                  total_e_over_n0_db: float = 40.0, seed: int = 0,
                  start_angle: float = None) -> ResultTable:
    """PEB versus constellation size at fixed aggregate energy.

    Radars sit uniformly on a circle around the target, boresights on the
    center, each granted an equal share of the energy budget. The default
    orientation places the first radar BOW_OFFSET off the target's bow: a
    radar dead ahead (or astern) sees a shape-degenerate slice of the
    contour and single-radar fusion turns singular there.

    Each constellation size is fused once, with the contour unknown; the
    known-contour PEB comes from the pose block of that same fused matrix
    (FusedFim.pose_block). The PEB need not fall with every added radar:
    each size re-spaces the radars and re-splits the budget, and at some
    radii (5, 8, 10 and 15 m among them) the PEB steps up by a fraction of
    a percent.
    """
    table = ResultTable()
    target_xy = np.asarray(target_xy, dtype=float).reshape(2)
    if start_angle is None:
        start_angle = float(heading) - BOW_OFFSET
    for count in counts:
        radars = uniform_constellation(target_xy, count, radius,
                                       start_angle=start_angle)
        sweep = f"diversity:{count}"
        fused = fuse(template, target_xy, heading, radars,
                     total_e_over_n0_db=total_e_over_n0_db)
        for name, info in (("known", fused.pose_block()), ("unknown", fused)):
            table.add(sweep, f"peb_{name}", "exact", peb(info), "m", 0, seed)
    return table
