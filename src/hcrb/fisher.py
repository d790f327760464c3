"""Exact hybrid bound machinery for one radar observing the contour.

The state gamma = [d, phi, heading, a_1..a_Q, b_1..b_Q] collects the target
pose and the Fourier contour coefficients. After eliminating the unknown
channel gain, the equivalent Fisher information is the Gram matrix of one
stack of weighted derivative-field rows (mu, eta, xi) over the lit contour
arc; the long-range information is the Gram of the same stack's far-field
limit. FisherInfo keeps R from the QR of that stack and turns it into a
bound, exact or long-range: crb() for the whole state (shape unknown),
pose_block().crb() for the pose rows (shape known). Each stack is sized:
built on the coarsest grid whose bounds have converged (sized_info). A
sized FisherInfo keeps the information on half its nodes that it was
checked against (coarse) and reads its estimate (quad_error) from it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import invert_info_matrix, triangular_factor
from .contour import PERP, ContourParams, GeometryTable, TargetPose, rotation
from .errors import IdentifiabilityError, NoIlluminationError, ScenarioError
from .scenario import SPEED_OF_LIGHT, Scenario
from .starcalc import star_inner, unit_weights
from .frames import effective_bandwidth

ENDFIRE_TOL = 1e-8
# largest relative change of a reported variance when a bound's node count
# doubles, for the bound to be reported on fewer than quadrature.nodes nodes
QUAD_REL_TOL = 1e-10
# largest relative change of the integral of v^2 ds (v the least smooth
# weight) from every eighth to every fourth node for which a bound is sized
SMOOTH_REL_TOL = 1e-14


def gamma_labels(q: int):
    """Component names of the state vector, pose first, then a_q and b_q."""
    return (
        ["d", "phi", "heading"]
        + [f"a{k}" for k in range(1, q + 1)]
        + [f"b{k}" for k in range(1, q + 1)]
    )


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


def field_stack(scenario: Scenario, far_field: bool = False, nodes: int = None):
    """Rows X, one per parameter, whose Gram X X^T is the information.

    The rows run in the state order, d, phi, heading, then the shape, so
    R's leading 3x3 block is the pose information with the shape known.
    The columns are the lit nodes of the grid of `nodes` points (default
    quadrature.nodes, which it must divide: every (quadrature.nodes /
    nodes)-th node of scenario.lit_arc, PoseField.subgrid), in three blocks,
    each node scaled by the square root of its weight ds (PoseField.ds):
    X = sqrt(2 E/N0 / ||w||^2) [sqrt(L) w mu | (alpha+1) P_w(v xi) |
        sqrt(M) w cos(phi) eta]
    with P_w the star-orthogonal complement of w. With far_field, the same
    on the limit rows of _derivative_fields, the bearing block collapsed to
    one column sqrt(Z) ||w|| e_phi: X X^T is the long-range information
    2(E/N0) T. The limit rows are free of the range, but they are weighted
    on the pose's own lit arc, whose nodes and weights w, v follow the
    near-field bearings, so T moves with d at O(1/d) toward a range-free
    limit.
    """
    full = scenario.quadrature.nodes
    stride, rest = divmod(full, full if nodes is None else nodes)
    if rest:
        raise ScenarioError(f"{nodes} nodes are no subgrid of the {full}-node quadrature")
    lit = scenario.lit_arc.subgrid(stride)
    return _weighted_stack(scenario, _lit_fields(scenario, lit, far_field), lit)


def _lit_fields(scenario: Scenario, lit, far_field: bool):
    """_derivative_fields on a lit arc; NoIlluminationError when none of its
    nodes is lit. A field that overflows is not finite, and neither is its
    factor, which invert_info_matrix refuses."""
    if lit.w.size == 0:
        raise NoIlluminationError("no contour point is lit: sin(phi - beta) <= 0 everywhere")
    with np.errstate(over="ignore", invalid="ignore"):
        return _derivative_fields(scenario.contour, scenario.pose, lit.table, far_field)


def _weighted_stack(scenario: Scenario, fields, lit, half: bool = False):
    """field_stack's rows from the derivative fields (mu, eta, xi) on the
    lit arc lit, read with its weights w and v, arc-length weights
    ds = ||r_dot|| du, bearings phi and ||w||^2. With half, the rows on the
    arc's even half instead, every other node of its grid at twice the
    weight: the even nodes' columns of the same fields, the same to
    rounding as field_stack on the grid of half as many nodes."""
    w, v, ds, phi = lit.w, lit.v, lit.ds, lit.table.phi
    w_norm_sq = lit.w_norm_sq
    if half:
        even = np.flatnonzero(lit.index % 2 == 0)
        fields = tuple(None if f is None else f[:, even] for f in fields)
        w, v, ds, phi = w[even], v[even], 2.0 * ds[even], phi[even]
        w_norm_sq = float(np.sum(w * w * ds))
    mu, eta, xi = fields
    n = w.size
    big_l, big_m, big_z = radar_constants(scenario)
    scale = np.sqrt(2.0 * scenario.e_over_n0(w_norm_sq) / w_norm_sq)

    stack = np.empty((mu.shape[0], 2 * n + (n if eta is not None else 1)))
    root_ds = np.sqrt(ds)
    w_hat = w * root_ds
    np.multiply(mu, scale * np.sqrt(big_l) * w_hat, out=stack[:, :n])
    xi_block = stack[:, n:2 * n]
    np.multiply(xi, scale * (scenario.alpha + 1.0) * v * root_ds, out=xi_block)
    # P_w: one rank-1 update against w, whose squared norm the arc holds
    w_col = unit_weights(w_hat)
    xi_block -= np.outer(star_inner(w_col, w_col.with_values(xi_block)) / w_norm_sq, w_hat)
    if eta is None:
        stack[:, 2 * n] = 0.0
        stack[1, 2 * n] = scale * np.sqrt(big_z * w_norm_sq)
    else:
        np.multiply(eta, scale * np.sqrt(big_m) * w_hat * np.cos(phi), out=stack[:, 2 * n:])
    return stack


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
    come from r, never from J. The pose block and the bound are computed
    once and kept.

    A single radar's information records its quadrature (sized_info):
    nodes, the grid it was built on, and coarse, the information on the
    grid of half as many nodes that it was checked against (None when the
    full grid was taken without a check). Its pose block records the grid
    only; a fused information records neither.
    """

    r: np.ndarray
    labels: tuple
    nodes: int = None
    coarse: "FisherInfo" = None

    @property
    def matrix(self) -> np.ndarray:
        """J itself, for inspection; no bound is computed from it."""
        return self.r.T @ self.r

    def pose_block(self) -> "FisherInfo":
        """The information with the contour known: r's leading 3x3 block,
        exact because r[3:, :3] = 0 gives J_pp = r[:3, :3]^T r[:3, :3]."""
        return self._pose_block

    @cached_property
    def _pose_block(self) -> "FisherInfo":
        return FisherInfo(r=self.r[:3, :3], labels=self.labels[:3], nodes=self.nodes)

    def crb(self) -> "CrbReport":
        """The bound, the inverse of the information; IdentifiabilityError
        when it is singular."""
        return self._crb

    @cached_property
    def _crb(self) -> "CrbReport":
        covariance = invert_info_matrix(self.r, self.labels)
        covariance.flags.writeable = False
        return CrbReport(covariance=covariance, labels=self.labels)

    @cached_property
    def quad_error(self) -> float:
        """The estimate the grid was accepted on, read on first request and
        kept: the largest relative change of the reported variances
        (c_range, c_bearing, c_heading, with the shape known and unknown)
        from coarse, on the even half of this grid, to this information.

        An information singular on both grids is left out: a radar whose
        shape-unknown information is singular until fused is sized by its
        pose block. One singular on one grid only has not converged (inf).
        None without coarse, or when the pose block is singular on both
        grids: nothing can be compared.
        """
        if self.coarse is None:
            return None
        changes = []
        for pair in ((self.pose_block(), self.coarse.pose_block()), (self, self.coarse)):
            ours, theirs = map(_reported, pair)
            if ours is None and theirs is None:
                continue
            if ours is None or theirs is None:
                return np.inf
            changes.append(float(np.max(np.abs(ours - theirs) / ours)))
        return max(changes) if changes else None


def _ladder_start(scenario: Scenario):
    """4, the stride of the grid a sized bound starts on (every fourth node
    of the full grid), or None when no coarser grid can converge
    (_smoothness_screen). The screen runs once per pose: its answer is kept
    on the lit arc, as the arc keeps its subgrids, and the exact and the
    long-range bound read it alike."""
    kept = vars(scenario.lit_arc)
    if "_ladder_start" not in kept:
        kept["_ladder_start"] = _smoothness_screen(scenario.lit_arc)
    return kept["_ladder_start"]


def _smoothness_screen(arc):
    """_ladder_start on a lit arc: None when the integral of v^2 ds
    (v the least smooth weight, which kinks at the shadow boundaries for
    alpha <= 2) moves by more than SMOOTH_REL_TOL from every eighth to
    every fourth node. Both integrals are read off the full grid's lit arc,
    so a bound that takes the full grid gathers no subgrid."""
    terms = arc.v ** 2 * arc.ds
    fine, half = (stride * float(np.sum(terms[arc.index % stride == 0])) for stride in (4, 8))
    return 4 if fine > 0.0 and abs(fine - half) <= SMOOTH_REL_TOL * fine else None


def _reported(info: FisherInfo):
    """c_range, c_bearing and c_heading of info's bound; None when info is
    singular."""
    try:
        return np.diag(info.crb().covariance)[:3]
    except IdentifiabilityError:
        return None


def _info(scenario: Scenario, stack: np.ndarray, nodes: int,
          coarse: FisherInfo = None) -> FisherInfo:
    """The information of a field stack on the grid of `nodes` points,
    checked against coarse; the stack is overwritten by its QR."""
    labels = tuple(gamma_labels(scenario.contour.q))
    return FisherInfo(r=triangular_factor(stack), labels=labels, nodes=nodes, coarse=coarse)


def sized_info(scenario: Scenario, far_field: bool = False) -> FisherInfo:
    """The information of field_stack on the coarsest grid whose bounds
    have converged.

    Starting on n = nodes/4 (quadrature.nodes), the factor on n nodes is
    reported when its variances move by at most QUAD_REL_TOL from those of
    its coarse factor on n/2 nodes, the even half of its grid (quad_error;
    on the first grid the two stacks share their derivative fields,
    _weighted_stack). Otherwise n doubles, the factor on n/2 nodes its
    coarse one, and the full grid is reported as it stands. The full grid
    is taken at once when no grid below it can converge (_ladder_start) or
    the pose block is singular on both grids: there the bound is the
    unsized one, bit for bit.
    """
    nodes = scenario.quadrature.nodes
    stride = _ladder_start(scenario)
    if stride is not None:
        lit = scenario.lit_arc.subgrid(stride)
        fields = _lit_fields(scenario, lit, far_field)
        n = nodes // stride
        half = _info(scenario, _weighted_stack(scenario, fields, lit, half=True), n // 2)
        info = _info(scenario, _weighted_stack(scenario, fields, lit), n, half)
        while info.quad_error is not None:
            if info.quad_error <= QUAD_REL_TOL or n == nodes:
                return info
            n *= 2
            info = _info(scenario, field_stack(scenario, far_field, n), n, info)
    return _info(scenario, field_stack(scenario, far_field), nodes)


def efim_exact(scenario: Scenario) -> FisherInfo:
    """The exact equivalent Fisher information at the scenario's pose.

    J = (2 E/N0 / ||w||^2) [ L <w mu, w mu> + M <w cos(phi) eta, w cos(phi) eta>
        + (alpha+1)^2 <P_w(v xi), P_w(v xi)> ]
    is the Gram of field_stack's rows on a sized grid (sized_info); r is R
    from their QR. One factor serves both bounds: the known-contour bound
    is efim_exact(...).pose_block().crb().
    """
    return sized_info(scenario)


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
