"""Exact hybrid bound machinery for one radar observing the contour.

The state gamma = [d, phi, heading, a_1..a_Q, b_1..b_Q] collects the target
pose and the Fourier contour coefficients. After eliminating the unknown
channel gain, the equivalent Fisher information is a weighted sum of Gram
matrices of three derivative fields (mu, eta, xi) along the lit contour arc;
inverting it (or its pose block when the shape is known) yields the bound.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from ._linalg import invert_info_matrix
from .contour import (
    PERP,
    ContourParams,
    GeometryTable,
    PoseField,
    TargetPose,
    geometry_at,
    pose_field,
    rotation,
)
from .errors import IdentifiabilityError, NoIlluminationError
from .scenario import Scenario
from .starcalc import project_perp, star_inner
from .waveform import effective_bandwidth

ENDFIRE_TOL = 1e-8


def gamma_labels(q: int):
    """Component names of the state vector, pose first, then a_q and b_q."""
    return (
        ["d", "phi", "heading"]
        + [f"a{k}" for k in range(1, q + 1)]
        + [f"b{k}" for k in range(1, q + 1)]
    )


def gamma_vector(scenario: Scenario) -> np.ndarray:
    """Flatten pose + contour into the canonical state ordering."""
    pose = scenario.pose
    return np.concatenate(
        [[pose.d, pose.phi, pose.heading], scenario.contour.m, scenario.contour.n]
    )


def scenario_with_gamma(scenario: Scenario, gamma: np.ndarray) -> Scenario:
    """Rebuild the scenario from a state vector (inverse of gamma_vector)."""
    q = scenario.contour.q
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (2 * q + 3,):
        raise ValueError(f"state must have length {2 * q + 3}, got {gamma.shape}")
    pose = TargetPose(d=gamma[0], phi=gamma[1], heading=gamma[2])
    contour = ContourParams(m=gamma[3 : 3 + q], n=gamma[3 + q :])
    return replace(scenario, pose=pose, contour=contour)


def _derivative_fields(params: ContourParams, pose: TargetPose, geo: GeometryTable):
    """Rows of d(d)/dgamma (mu), d(phi)/dgamma (eta) and eta - d(beta)/dgamma
    (xi) along the sampled contour, each scaled so mu is dimensionless and
    eta, xi carry 1/m."""
    q = params.q
    rot_t = rotation(pose.heading).T
    rtp = rot_t @ pose.p
    rtp_perp = rot_t @ (PERP @ pose.p)
    rho = geo.rho
    proj_p = rho[0] * rtp[0] + rho[1] * rtp[1]
    proj_p_perp = rho[0] * rtp_perp[0] + rho[1] * rtp_perp[1]
    rt_r = rot_t @ geo.r
    proj_r = rho[0] * rt_r[0] + rho[1] * rt_r[1]
    sigma, varsigma, sigma_dot, varsigma_dot = geo.basis

    d = geo.d
    d0 = pose.d
    size = 2 * q + 3

    # The (Q, K) shape rows are written straight into their slices, each
    # product then quotient in the order the formulas read.
    a_rows, b_rows = slice(3, 3 + q), slice(3 + q, size)
    mu = np.empty((size, d.size))
    mu[0] = (d0 + proj_p / d0) / d
    mu[1] = proj_p_perp / d
    mu[2] = -proj_p_perp / d
    np.multiply(rt_r[0], sigma, out=mu[a_rows])
    np.multiply(rt_r[1], varsigma, out=mu[b_rows])
    mu[3:] /= d

    d_sq = d * d
    eta = np.empty_like(mu)
    eta[0] = -proj_p_perp / (d0 * d_sq)
    eta[1] = (d0 * d0 + proj_p) / d_sq
    eta[2] = proj_r / d_sq
    np.multiply(-rt_r[1], sigma, out=eta[a_rows])
    np.multiply(rt_r[0], varsigma, out=eta[b_rows])
    eta[3:] /= d_sq

    # xi = eta - d(beta)/dgamma; d(beta)/dgamma is 0, 0, 1 on the pose rows
    speed_sq = geo.arc * geo.arc
    xi = np.empty_like(mu)
    xi[:2] = eta[:2]
    xi[2] = eta[2] - 1.0
    np.multiply(-geo.rho_dot[1], sigma_dot, out=xi[a_rows])
    np.multiply(geo.rho_dot[0], varsigma_dot, out=xi[b_rows])
    xi[3:] /= speed_sq
    np.subtract(eta[3:], xi[3:], out=xi[3:])

    return mu, eta, xi


def gamma_derivatives(scenario: Scenario, u):
    """mu, eta, xi evaluated at contour parameter(s) u, shapes (2Q+3, K)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    geo = geometry_at(scenario.contour, scenario.pose, u)
    return _derivative_fields(scenario.contour, scenario.pose, geo)


def radar_constants(scenario: Scenario):
    """(L, M, Z): range, array and bearing-projected array curvature constants.

    L = (4 pi B_rms / c)^2, M = pi^2 (N^2 - 1) / 12, Z = M cos^2(phi).
    """
    b_rms = effective_bandwidth(scenario.waveform)
    big_l = (4.0 * np.pi * b_rms / SPEED_OF_LIGHT) ** 2
    n = scenario.array_n
    big_m = np.pi**2 * (n * n - 1) / 12.0
    big_z = big_m * np.cos(scenario.pose.phi) ** 2
    return big_l, big_m, big_z


def check_not_endfire(big_z: float) -> None:
    """Raise when the bearing is unobservable: Z = M cos^2(phi) <= ENDFIRE_TOL."""
    if big_z <= ENDFIRE_TOL:
        raise IdentifiabilityError(
            "array is endfire to the target (cos(phi) = 0): bearing unobservable"
        )


@dataclass(frozen=True)
class EfimResult:
    """Equivalent Fisher information with the channel gain profiled out."""

    matrix: np.ndarray
    labels: tuple
    e_over_n0: float
    w_norm_sq: float
    constants: tuple  # (L, M, Z)
    alpha: float

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def efim_exact(scenario: Scenario, field: PoseField | None = None) -> EfimResult:
    """Assemble the equivalent Fisher information over the quadrature grid.

    J = (2 E/N0 / ||w||^2) [ L <w mu, w mu> + M <w cos(phi) eta, w cos(phi) eta>
        + (alpha+1)^2 <P_w(v xi), P_w(v xi)> ]
    with P_w the star-orthogonal complement of the scalar weight field w.
    field is pose_field(scenario), built here when not given; t_blocks can
    share it. One matrix serves both bounds: the known-contour bound is
    hcrb_from_efim(result, contour_known=True), the inverse of its pose block.
    """
    if field is None:
        field = pose_field(scenario)
    table, weights, w_field = field.table, field.weights, field.grid
    w_norm_sq = field.w_norm_sq
    if not np.any(weights.w > 0.0):
        raise NoIlluminationError(
            "no contour point is lit: sin(phi - beta) <= 0 everywhere"
        )
    e_over_n0 = scenario.e_over_n0(w_norm_sq)
    big_l, big_m, big_z = radar_constants(scenario)

    # the derivative fields are this call's own, so they are weighted in place
    mu, eta, xi = _derivative_fields(scenario.contour, scenario.pose, table)
    mu *= weights.w
    eta *= weights.w * np.cos(table.phi)
    xi *= weights.v
    wmu = w_field.with_values(mu)
    weta = w_field.with_values(eta)
    vxi_perp = project_perp(w_field.with_values(xi), w_field)

    j = (
        big_l * star_inner(wmu, wmu)
        + big_m * star_inner(weta, weta)
        + (scenario.alpha + 1.0) ** 2 * star_inner(vxi_perp, vxi_perp)
    )
    j *= 2.0 * e_over_n0 / w_norm_sq
    j = 0.5 * (j + j.T)
    return EfimResult(
        matrix=j,
        labels=tuple(gamma_labels(scenario.contour.q)),
        e_over_n0=e_over_n0,
        w_norm_sq=w_norm_sq,
        constants=(big_l, big_m, big_z),
        alpha=scenario.alpha,
    )


@dataclass(frozen=True)
class CrbReport:
    """Bound covariance with its source information matrix."""

    covariance: np.ndarray
    labels: tuple
    contour_known: bool
    efim: EfimResult

    @property
    def c_range(self) -> float:
        return float(self.covariance[0, 0])

    @property
    def c_bearing(self) -> float:
        return float(self.covariance[1, 1])

    @property
    def c_heading(self) -> float:
        return float(self.covariance[2, 2])

    def variance(self, label: str) -> float:
        i = self.labels.index(label)
        return float(self.covariance[i, i])


def hcrb_from_efim(efim: EfimResult, contour_known: bool = False) -> CrbReport:
    """Invert the information matrix (pose block only if the shape is known)."""
    if contour_known:
        sub = efim.matrix[:3, :3]
        labels = efim.labels[:3]
    else:
        sub = efim.matrix
        labels = efim.labels
    cov = invert_info_matrix(sub, labels)
    return CrbReport(
        covariance=cov, labels=tuple(labels), contour_known=contour_known, efim=efim
    )


def hcrb_exact(scenario: Scenario, contour_known: bool = False) -> CrbReport:
    """One-call exact bound for a scenario."""
    return hcrb_from_efim(efim_exact(scenario), contour_known=contour_known)


def point_target_crb(scenario: Scenario) -> np.ndarray:
    """2x2 range/bearing CRB for an unstructured point at the target center.

    diag(1/L, 1/Z) / (2 E/N0); the point echo has no contour, so its E/N0
    is the scenario's at ||w||^2 = 1 (energy g^2 N in physical gain mode).
    """
    big_l, _, big_z = radar_constants(scenario)
    check_not_endfire(big_z)
    return np.diag([1.0 / big_l, 1.0 / big_z]) / (2.0 * scenario.e_over_n0(1.0))
