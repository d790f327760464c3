"""Fusing per-radar information into a global target state.

Each radar sees the target in its own polar frame; chain-ruling those states
onto the shared [p_x, p_y, heading, a_q, b_q] vector and summing the
information matrices gives the multistatic bound. Radars are independent
(separate apertures, independent scatterer draws), so information adds.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import triangular_factor
from .contour import TargetPose, wrap_angle
from .errors import ScenarioError
from .fisher import CrbReport, FisherInfo, efim_exact, gamma_labels
from .scenario import Scenario


@dataclass(frozen=True)
class RadarPose:
    """One radar: position, boresight azimuth kappa, optional array override."""

    position: np.ndarray
    kappa: float = 0.0
    array_n: int = None

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float).reshape(2)
        if not (np.all(np.isfinite(pos)) and np.isfinite(self.kappa)):
            raise ScenarioError(f"radar position {pos} and kappa {self.kappa} must be finite")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "kappa", float(wrap_angle(self.kappa)))

    def local_pose(self, target_xy, heading: float) -> TargetPose:
        """The target's pose in this radar's polar frame.

        Range and bearing come from the offset target - position; bearing and
        heading are measured from the boresight kappa (TargetPose wraps both).
        A range beyond float64 is a ScenarioError, not an overflow warning.
        """
        with np.errstate(over="ignore"):
            delta = np.asarray(target_xy, dtype=float).reshape(2) - self.position
            dist = float(np.hypot(*delta))
        if not np.isfinite(dist):
            raise ScenarioError(f"target range {dist:g} m: the offset ({delta[0]:g}, "
                                f"{delta[1]:g}) m from a radar overflows float64")
        if dist <= 0.0:
            raise ScenarioError("target coincides with a radar position")
        return TargetPose(d=dist,
                          phi=float(np.arctan2(delta[1], delta[0])) - self.kappa,
                          heading=heading - self.kappa)


def radar_local_scenario(template: Scenario, target_xy, heading: float,
                         radar: RadarPose) -> Scenario:
    """The template re-centered on one radar, at the template's energy."""
    changes = {"pose": radar.local_pose(target_xy, heading)}
    if radar.array_n is not None:
        changes["array_n"] = radar.array_n
    return replace(template, **changes)


def unit_energy(template: Scenario) -> Scenario:
    """The template at unit E/N0 (0 dB), the energy at which fuse builds each
    radar's factor under a budget before scaling by the radar's share."""
    return template.with_e_over_n0_db(0.0)


def _chain_matrix(delta: np.ndarray, dist: float, size: int) -> np.ndarray:
    """d(gamma_r)/d(theta): identity except the polar/cartesian 2x2 corner."""
    m = np.eye(size)
    m[0, 0] = delta[0] / dist
    m[0, 1] = -delta[1] / dist**2
    m[1, 0] = delta[1] / dist
    m[1, 1] = delta[0] / dist**2
    return m


def radar_factor(template: Scenario, target_xy, heading: float,
                 radar: RadarPose) -> np.ndarray:
    """One radar's information rows F = chain R^T, at the template's energy:
    its J = R^T R mapped onto [p_x, p_y, heading, a_q, b_q] by its chain
    matrix is F F^T."""
    target_xy = np.asarray(target_xy, dtype=float).reshape(2)
    local = radar_local_scenario(template, target_xy, heading, radar)
    r = efim_exact(local).r
    return _chain_matrix(target_xy - radar.position, local.pose.d, r.shape[0]) @ r.T


def fuse(
    template: Scenario,
    target_xy,
    heading: float,
    radars,
    total_e_over_n0_db: float = None,
    factors=None,
) -> FisherInfo:
    """Accumulate per-radar information onto [p_x, p_y, heading, a_q, b_q].

    The per-radar rows (radar_factor) are set side by side and factored by
    one QR, so J is the sum of chain J_r chain^T over the radars. Without a
    budget each radar keeps the template's energy. With total_e_over_n0_db the
    budget is split evenly, so adding radars trades per-radar SNR for
    geometric diversity: each radar's rows are built at unit_energy(template)
    and scaled by the square root of the linear share before the QR.
    factors, when given, holds those per-radar rows in radar order:
    run_diversity builds each radar its rings share once and passes it to
    every ring that holds it. The known-contour information is the pose
    block of the result (FisherInfo.pose_block): every chain matrix is the
    identity outside its 2x2 corner, so it fuses the radars' pose blocks.
    """
    radars = list(radars)
    if not radars:
        raise ScenarioError("need at least one radar")
    scale = 1.0
    if total_e_over_n0_db is not None:
        per_db = total_e_over_n0_db - 10.0 * np.log10(len(radars))
        # fixed mode: the linear E/N0 of the share, whatever the norm
        scale = np.sqrt(template.with_e_over_n0_db(per_db).e_over_n0(1.0))
    if factors is None:
        source = template if total_e_over_n0_db is None else unit_energy(template)
        factors = [radar_factor(source, target_xy, heading, radar) for radar in radars]
    elif len(factors) != len(radars):
        raise ScenarioError(f"{len(factors)} factors for {len(radars)} radars")

    labels = ("px", "py", "heading") + tuple(gamma_labels(template.contour.q)[3:])
    fused = np.hstack(factors)
    fused *= scale
    return FisherInfo(r=triangular_factor(fused), labels=labels)


def peb(report: CrbReport) -> float:
    """Position error bound sqrt(C_xx + C_yy) of a fused bound."""
    cov = report.covariance
    return float(np.sqrt(cov[0, 0] + cov[1, 1]))


def uniform_constellation(target_xy, count: int, radius: float,
                          start_angle: float = 0.0):
    """Radars on a circle around the target, each boresighted at the center."""
    if count < 1:
        raise ScenarioError("constellation needs at least one radar")
    if not radius > 0.0:
        raise ScenarioError("constellation radius must be positive")
    target_xy = np.asarray(target_xy, dtype=float).reshape(2)
    out = []
    for k in range(count):
        angle = start_angle + 2.0 * np.pi * k / count
        position = target_xy + radius * np.array([np.cos(angle), np.sin(angle)])
        out.append(RadarPose(position=position, kappa=angle + np.pi))
    return out
