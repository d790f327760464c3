"""Reproducible sweep and Monte Carlo runners emitting flat CSV tables.

Every runner is a pure function of (inputs, seed): trials draw their seeds
from a SeedSequence keyed on (seed, sweep point, trial), so tables are
bit-identical across re-runs and across worker counts. The CSV layout is
one scalar per row: sweep,quantity,method,value,units,n_trials,seed with
the sweep column carrying name:abscissa (e.g. "range:6.7082").
"""

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._pool import map_items
from .asymptotics import t_blocks
from .errors import IdentifiabilityError, ScenarioError
from .estimators import estimate
from .fisher import efim_exact, point_target_crb
from .multiradar import (RadarPose, fuse, peb, radar_factor, uniform_constellation,
                         unit_energy)
from .scenario import Scenario, SegmentationConfig
from .waveform import point_workspace, synthesis_workspace, synthesize_frame

# Range sweeps move the target along the segment below with the received
# energy pinned, so range is the only moving part.
SWEEP_START = (6.0, 3.0)
SWEEP_STOP = (89.0, 45.0)
MC_RANGES = (6.7082039325, 15.0, 35.0, 80.0)
# the single radar of the range sweep and Monte Carlo
SWEEP_RADAR = RadarPose(position=np.zeros(2))

# Constellation orientation relative to the target bow. Dead-ahead or astern
# views are shape-degenerate (the lit arc collapses onto the symmetry axis),
# so every constellation keeps each radar well clear of that alignment.
BOW_OFFSET = np.radians(40.0)


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

    def add_report(self, sweep, name, method, report, seed=0):
        """The c_range_, c_bearing_ and c_heading_ rows of one bound report;
        name is the shape case (known or unknown)."""
        self.add(sweep, f"c_range_{name}", method, report.c_range, "m^2", 0, seed)
        self.add(sweep, f"c_bearing_{name}", method, report.c_bearing, "rad^2", 0, seed)
        self.add(sweep, f"c_heading_{name}", method, report.c_heading, "rad^2", 0, seed)

    def add_point(self, sweep, point, seed=0):
        """The two rows of a point-target bound (fisher.point_target_crb)."""
        self.add(sweep, "c_range_point", "point_target", point[0, 0], "m^2", 0, seed)
        self.add(sweep, "c_bearing_point", "point_target", point[1, 1], "rad^2", 0, seed)

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


def ray_positions(n_points: int) -> np.ndarray:
    """(n, 2) positions on the sweep segment with log-spaced ranges."""
    start = np.asarray(SWEEP_START, dtype=float)
    stop = np.asarray(SWEEP_STOP, dtype=float)
    t_fine = np.linspace(0.0, 1.0, 20001)
    points = start[None, :] + t_fine[:, None] * (stop - start)[None, :]
    dists = np.hypot(points[:, 0], points[:, 1])
    targets = np.geomspace(dists[0], dists[-1], n_points)
    t_sel = np.interp(targets, dists, t_fine)
    return start[None, :] + t_sel[:, None] * (stop - start)[None, :]


def _bound_rows(table: ResultTable, sweep: str, scenario: Scenario, seed: int):
    """Exact, asymptotic and point-target bound rows for one pose.

    Both exact reports come from the R of one field stack's QR: the
    known-contour bound from its leading 3x3 block, the unknown-contour
    bound from all of it. The asymptotic reports are read the same way off
    the QR of the stack's far-field limit. Every report is computed before
    any row is written, so a singular pose leaves no partial rows.
    """
    info = efim_exact(scenario)
    exact = info.crb()
    exact_known = info.pose_block().crb()
    far = t_blocks(scenario)
    asym_known = far.pose_block().crb()
    asym_unknown = far.crb()
    point = point_target_crb(scenario)

    for method, known, unknown in (("exact", exact_known, exact),
                                   ("asymptotic", asym_known, asym_unknown)):
        table.add_report(sweep, "known", method, known, seed)
        table.add_report(sweep, "unknown", method, unknown, seed)
    table.add_point(sweep, point, seed)


def run_range_sweep(scenario: Scenario, n_points: int = 30, seed: int = 0,
                    skip_singular: bool = False) -> ResultTable:
    """Bounds along the range sweep, energy pinned by the scenario config.

    With skip_singular, positions whose information matrix is singular are
    recorded in table.failures instead of aborting the sweep.
    """
    table = ResultTable()
    for xy in ray_positions(n_points):
        moved = scenario.with_pose(SWEEP_RADAR.local_pose(xy, scenario.pose.heading))
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

    out = map_items(one, seeds)
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


def _mc_positions(ranges) -> list:
    """The sweep position nearest each wanted range, on a 1001-point sweep.

    A range that is not finite, or lies more than one position spacing from
    its nearest position (off the sweep segment), is a ScenarioError.
    """
    positions = ray_positions(1001)
    dists = np.hypot(positions[:, 0], positions[:, 1])
    spacing = np.gradient(dists)
    chosen = []
    for want in ranges:
        index = int(np.argmin(np.abs(dists - want)))
        if not np.isfinite(want) or abs(dists[index] - want) > spacing[index]:
            raise ScenarioError(
                f"Monte Carlo range {float(want):g} m is off the sweep segment "
                f"({dists[0]:.6g} m to {dists[-1]:.6g} m)")
        chosen.append(positions[index])
    return chosen


def run_mc(scenario: Scenario, ranges=MC_RANGES, trials: int = 500, seed: int = 0,
           segmentation: SegmentationConfig = None) -> ResultTable:
    """Matched-filter estimator variance against the bounds, range by range.

    Extended-target trials redraw the segment gains every frame; point-target
    trials replace the contour with a single scatterer of the same energy.
    Low-confidence trials (noise-like peaks) are excluded but counted via the
    n_trials column. Each range runs at its nearest sweep position; a range
    off the sweep segment, or fewer than 2 trials (no variance), raises
    ScenarioError before any work.
    """
    if trials < 2:
        raise ScenarioError(
            f"Monte Carlo needs at least 2 trials to form a variance, got {trials}")
    table = ResultTable()
    for index, xy in enumerate(_mc_positions(ranges)):
        moved = scenario.with_pose(SWEEP_RADAR.local_pose(xy, scenario.pose.heading))
        sweep = f"mc:{moved.pose.d:.6g}"
        _bound_rows(table, sweep, moved, seed)

        ws_ext = synthesis_workspace(moved, segmentation)
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
                  total_e_over_n0_db: float = 40.0, seed: int = 0) -> ResultTable:
    """PEB versus constellation size at fixed aggregate energy.

    Radars sit uniformly on a circle around the target, boresights on the
    center, each granted an equal share of the energy budget. The first
    radar sits BOW_OFFSET off the target's bow: a radar dead ahead (or
    astern) sees a shape-degenerate slice of the contour and single-radar
    fusion turns singular there.

    The rings share radars: the k-th radar of a ring of count sits at
    start + 2 pi k/count, so a radar is keyed by the reduced fraction
    k/count (12 distinct radars among the 21 of counts 1-6). Each distinct
    radar's chained factor is built once, at multiradar.unit_energy, and
    every size fuses its ring once from those factors under the budget
    total_e_over_n0_db (dB, split by multiradar.fuse), with the contour
    unknown; the known-contour PEB comes from the pose block of that same
    fused matrix (FisherInfo.pose_block). The PEB need not fall with every
    added radar: each size re-spaces the radars and re-splits the budget,
    and at some radii (5, 8, 10 and 15 m among them) the PEB steps up by a
    fraction of a percent.
    """
    table = ResultTable()
    target_xy = np.asarray(target_xy, dtype=float).reshape(2)
    start_angle = float(heading) - BOW_OFFSET
    unit = unit_energy(template)
    factors = {}  # Fraction(k, count) -> the radar's chained factor at unit E/N0
    for count in counts:
        radars = uniform_constellation(target_xy, count, radius,
                                       start_angle=start_angle)
        keys = [Fraction(k, count) for k in range(count)]
        for key, radar in zip(keys, radars):
            if key not in factors:
                factors[key] = radar_factor(unit, target_xy, heading, radar)
        sweep = f"diversity:{count}"
        fused = fuse(template, target_xy, heading, radars,
                     total_e_over_n0_db=total_e_over_n0_db,
                     factors=[factors[key] for key in keys])
        for name, info in (("known", fused.pose_block()), ("unknown", fused)):
            table.add(sweep, f"peb_{name}", "exact", peb(info.crb()), "m", 0, seed)
    return table
