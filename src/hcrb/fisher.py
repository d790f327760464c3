"""Exact hybrid bound machinery for one radar observing the contour.

The state gamma = [d, phi, heading, a_1..a_Q, b_1..b_Q] collects the target
pose and the Fourier contour coefficients. After eliminating the unknown
channel gain, the equivalent Fisher information is the Gram matrix of one
stack of weighted derivative-field rows (mu, eta, xi) over the lit contour
arc; the long-range information is the Gram of the same stack's far-field
limit. FisherInfo keeps R from the QR of that stack and turns it into a
bound, exact or long-range: crb() for the whole state (shape unknown),
pose_block().crb() for the pose rows (shape known).
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from ._linalg import invert_info_matrix, triangular_factor
from .contour import (
    PERP,
    ContourParams,
    GeometryTable,
    TargetPose,
    geometry_at,
    rotation,
)
from .errors import IdentifiabilityError, NoIlluminationError
from .scenario import Scenario
from .starcalc import star_inner, unit_weights
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


def _derivative_fields(params: ContourParams, pose: TargetPose, geo: GeometryTable,
                       far_field: bool = False):
    """Rows of d(d)/dgamma (mu), d(phi)/dgamma (eta) and eta - d(beta)/dgamma
    (xi) along the sampled contour, each scaled so mu is dimensionless and
    eta, xi carry 1/m.

    With far_field, their limit as the range d0 grows: mu = [1, x, -x, s_q]
    with x the cross-range offset and s_q the shape rows along p / d0,
    xi = [0, 1, -1, delta_q] with delta_q = -d(beta)/d(shape), and eta =
    [0, 1, 0, 0] the same at every node, returned as None.
    """
    q = params.q
    rot_t = rotation(pose.heading).T
    rtp = rot_t @ pose.p
    rtp_perp = rot_t @ (PERP @ pose.p)
    rho = geo.rho
    proj_p = rho[0] * rtp[0] + rho[1] * rtp[1]
    proj_p_perp = rho[0] * rtp_perp[0] + rho[1] * rtp_perp[1]
    sigma, varsigma, sigma_dot, varsigma_dot = geo.basis

    d0 = pose.d
    size = 2 * q + 3
    a_rows, b_rows = slice(3, 3 + q), slice(3 + q, size)
    # d(beta)/dgamma on the shape rows, written into xi's slices
    xi = np.empty((size, geo.u.size))
    np.multiply(-geo.rho_dot[1], sigma_dot, out=xi[a_rows])
    np.multiply(geo.rho_dot[0], varsigma_dot, out=xi[b_rows])
    xi[3:] /= geo.arc * geo.arc
    mu = np.empty_like(xi)

    if far_field:
        mu[0] = 1.0
        mu[1] = proj_p_perp / d0
        mu[2] = -mu[1]
        np.multiply(rtp[0] / d0, sigma, out=mu[a_rows])
        np.multiply(rtp[1] / d0, varsigma, out=mu[b_rows])
        xi[:3] = [[0.0], [1.0], [-1.0]]
        np.negative(xi[3:], out=xi[3:])
        return mu, None, xi

    rt_r = rot_t @ geo.r
    proj_r = rho[0] * rt_r[0] + rho[1] * rt_r[1]
    d = geo.d
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
    xi[:2] = eta[:2]
    xi[2] = eta[2] - 1.0
    np.subtract(eta[3:], xi[3:], out=xi[3:])
    return mu, eta, xi


def field_stack(scenario: Scenario, far_field: bool = False):
    """Rows X, one per parameter, whose Gram X X^T is the information.

    The rows run in the state order, d, phi, heading, then the shape, so
    R's leading 3x3 block is the pose information with the shape known.
    The columns are the lit nodes of scenario.lit_arc, in three blocks, each
    node scaled by the square root of its quadrature weight:
    X = sqrt(2 E/N0 / ||w||^2) [sqrt(L) w mu | (alpha+1) P_w(v xi) |
        sqrt(M) w cos(phi) eta]
    with P_w the star-orthogonal complement of w. With far_field, the same
    on the limit rows of _derivative_fields, the bearing block collapsed to
    one column sqrt(Z) ||w|| e_phi: X X^T is the long-range information
    2(E/N0) T, with T free of the range.
    """
    lit = scenario.lit_arc
    weights, w_norm_sq, geo = lit.weights, lit.w_norm_sq, lit.table
    n = geo.u.size
    if n == 0:
        raise NoIlluminationError("no contour point is lit: sin(phi - beta) <= 0 everywhere")
    mu, eta, xi = _derivative_fields(scenario.contour, scenario.pose, geo, far_field)
    big_l, big_m, big_z = radar_constants(scenario)
    scale = np.sqrt(2.0 * scenario.e_over_n0(w_norm_sq) / w_norm_sq)

    stack = np.empty((mu.shape[0], 2 * n + (n if eta is not None else 1)))
    root_q = np.sqrt(geo.arc * geo.du)
    w_hat = weights.w * root_q
    np.multiply(mu, scale * np.sqrt(big_l) * w_hat, out=stack[:, :n])
    xi_block = stack[:, n:2 * n]
    np.multiply(xi, scale * (scenario.alpha + 1.0) * weights.v * root_q, out=xi_block)
    # P_w: one rank-1 update against w, whose squared norm the pose field holds
    w_col = unit_weights(w_hat)
    xi_block -= np.outer(star_inner(w_col, w_col.with_values(xi_block)) / w_norm_sq, w_hat)
    if eta is None:
        stack[:, 2 * n] = 0.0
        stack[1, 2 * n] = scale * np.sqrt(big_z * w_norm_sq)
    else:
        np.multiply(eta, scale * np.sqrt(big_m) * w_hat * np.cos(geo.phi),
                    out=stack[:, 2 * n:])
    return stack


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
class FisherInfo:
    """Equivalent Fisher information J = r.T @ r over the labelled
    parameters, pose first (three pose components, then the contour
    coefficients). r is upper triangular, its columns in label order; bounds
    come from r, never from J."""

    r: np.ndarray
    labels: tuple

    @property
    def matrix(self) -> np.ndarray:
        """J itself, for inspection; no bound is computed from it."""
        return self.r.T @ self.r

    def pose_block(self) -> "FisherInfo":
        """The information with the contour known: r's leading 3x3 block,
        exact because r[3:, :3] = 0 gives J_pp = r[:3, :3]^T r[:3, :3]."""
        return FisherInfo(r=self.r[:3, :3], labels=self.labels[:3])

    def crb(self) -> "CrbReport":
        """The bound, the inverse of the information; IdentifiabilityError
        when it is singular."""
        return CrbReport(covariance=invert_info_matrix(self.r, self.labels),
                         labels=self.labels)


def efim_exact(scenario: Scenario) -> FisherInfo:
    """The exact equivalent Fisher information at the scenario's pose.

    J = (2 E/N0 / ||w||^2) [ L <w mu, w mu> + M <w cos(phi) eta, w cos(phi) eta>
        + (alpha+1)^2 <P_w(v xi), P_w(v xi)> ]
    is the Gram of field_stack's rows; r is R from their QR. One factor
    serves both bounds: the known-contour bound is
    efim_exact(...).pose_block().crb().
    """
    return FisherInfo(r=triangular_factor(field_stack(scenario)),
                      labels=tuple(gamma_labels(scenario.contour.q)))


@dataclass(frozen=True)
class CrbReport:
    """Bound covariance over the labelled parameters, pose first."""

    covariance: np.ndarray
    labels: tuple

    @property
    def c_range(self) -> float:
        return float(self.covariance[0, 0])

    @property
    def c_bearing(self) -> float:
        return float(self.covariance[1, 1])

    @property
    def c_heading(self) -> float:
        return float(self.covariance[2, 2])


def hcrb_exact(scenario: Scenario, contour_known: bool = False) -> CrbReport:
    """One-call exact bound for a scenario."""
    info = efim_exact(scenario)
    return (info.pose_block() if contour_known else info).crb()


def point_target_crb(scenario: Scenario) -> np.ndarray:
    """2x2 range/bearing CRB for an unstructured point at the target center.

    diag(1/L, 1/Z) / (2 E/N0); the point echo has no contour, so its E/N0
    is the scenario's at ||w||^2 = 1 (energy g^2 N in physical gain mode).
    """
    big_l, _, big_z = radar_constants(scenario)
    check_not_endfire(big_z)
    return np.diag([1.0 / big_l, 1.0 / big_z]) / (2.0 * scenario.e_over_n0(1.0))
