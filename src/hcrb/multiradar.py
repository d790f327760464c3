"""Fusing per-radar information into a global target state.

Each radar sees the target in its own polar frame; chain-ruling those states
onto the shared [p_x, p_y, heading, a_q, b_q] vector and summing the
information matrices gives the multistatic bound. Radars are independent
(separate apertures, independent scatterer draws), so information adds.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import invert_info_matrix
from .contour import TargetPose, wrap_angle
from .errors import ScenarioError
from .fisher import efim_exact
from .scenario import EnergySpec, Scenario


@dataclass(frozen=True)
class RadarPose:
    """One radar: position, boresight azimuth kappa, optional array override."""

    position: np.ndarray
    kappa: float = 0.0
    array_n: int = None

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float).reshape(2)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "kappa", float(wrap_angle(self.kappa)))


def radar_local_scenario(
    template: Scenario,
    target_xy,
    heading: float,
    radar: RadarPose,
    e_over_n0_db: float = None,
) -> Scenario:
    """Re-center the template scenario on one radar.

    Range and bearing come from the offset target - radar; bearing and
    heading are measured from the radar's boresight. An explicit per-radar
    e_over_n0_db overrides the template energy (used to split a total
    budget across a constellation).
    """
    delta = np.asarray(target_xy, dtype=float).reshape(2) - radar.position
    dist = float(np.hypot(*delta))
    if dist <= 0.0:
        raise ScenarioError("target coincides with a radar position")
    bearing = float(np.arctan2(delta[1], delta[0]))
    pose = TargetPose(
        d=dist,
        phi=wrap_angle(bearing - radar.kappa),
        heading=wrap_angle(heading - radar.kappa),
    )
    changes = {"pose": pose}
    if radar.array_n is not None:
        changes["array_n"] = radar.array_n
    if e_over_n0_db is not None:
        changes["energy"] = EnergySpec(
            e_over_n0_db=e_over_n0_db, n0=template.energy.n0
        )
    return replace(template, **changes)


def _chain_matrix(delta: np.ndarray, dist: float, size: int) -> np.ndarray:
    """d(gamma_r)/d(theta): identity except the polar/cartesian 2x2 corner."""
    m = np.eye(size)
    m[0, 0] = delta[0] / dist
    m[0, 1] = -delta[1] / dist**2
    m[1, 0] = delta[1] / dist
    m[1, 1] = delta[0] / dist**2
    return m


@dataclass(frozen=True)
class FusedFim:
    """Summed information in global coordinates, with per-radar terms kept."""

    matrix: np.ndarray
    labels: tuple
    contributions: tuple  # per-radar information in global coordinates
    scenarios: tuple  # per-radar local scenarios

    def covariance(self) -> np.ndarray:
        return invert_info_matrix(self.matrix, self.labels)

    def pose_block(self) -> "FusedFim":
        """The known-contour information, the [p_x, p_y, heading] block; exact
        because every chain matrix is the identity outside its 2x2 corner."""
        return replace(self, matrix=self.matrix[:3, :3], labels=self.labels[:3],
                       contributions=tuple(c[:3, :3] for c in self.contributions))


def fuse(
    template: Scenario,
    target_xy,
    heading: float,
    radars,
    total_e_over_n0_db: float = None,
    contour_known: bool = False,
) -> FusedFim:
    """Accumulate per-radar information onto [p_x, p_y, heading, a_q, b_q].

    With total_e_over_n0_db set, the budget is split evenly so adding radars
    trades per-radar SNR for geometric diversity. The known-contour result
    is the pose block of the unknown-contour one.
    """
    radars = list(radars)
    if not radars:
        raise ScenarioError("need at least one radar")
    per_db = None
    if total_e_over_n0_db is not None:
        per_db = total_e_over_n0_db - 10.0 * np.log10(len(radars))
    target_xy = np.asarray(target_xy, dtype=float).reshape(2)

    matrix = None
    contributions = []
    locals_ = []
    for radar in radars:
        local = radar_local_scenario(template, target_xy, heading, radar, per_db)
        j_local = efim_exact(local).matrix
        delta = target_xy - radar.position
        chain = _chain_matrix(delta, local.pose.d, j_local.shape[0])
        j_global = chain @ j_local @ chain.T
        j_global = 0.5 * (j_global + j_global.T)
        contributions.append(j_global)
        locals_.append(local)
        matrix = j_global if matrix is None else matrix + j_global

    q = template.contour.q
    labels = ("px", "py", "heading") + tuple(
        [f"a{k}" for k in range(1, q + 1)] + [f"b{k}" for k in range(1, q + 1)]
    )
    fused = FusedFim(
        matrix=matrix,
        labels=labels,
        contributions=tuple(contributions),
        scenarios=tuple(locals_),
    )
    return fused.pose_block() if contour_known else fused


def peb(fused: FusedFim) -> float:
    """Position error bound sqrt(C_xx + C_yy) from the fused information."""
    cov = fused.covariance()
    return float(np.sqrt(cov[0, 0] + cov[1, 1]))


def uniform_constellation(
    target_xy, count: int, radius: float, start_angle: float = 0.0, array_n: int = None
):
    """Radars on a circle around the target, each boresighted at the center."""
    if count < 1:
        raise ScenarioError("constellation needs at least one radar")
    if radius <= 0.0:
        raise ScenarioError("constellation radius must be positive")
    target_xy = np.asarray(target_xy, dtype=float).reshape(2)
    out = []
    for k in range(count):
        angle = start_angle + 2.0 * np.pi * k / count
        position = target_xy + radius * np.array([np.cos(angle), np.sin(angle)])
        out.append(
            RadarPose(position=position, kappa=angle + np.pi, array_n=array_n)
        )
    return out
