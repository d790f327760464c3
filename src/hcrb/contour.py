"""Fourier contour model, global placement and per-point reflection geometry.

The target perimeter is the truncated Fourier curve
rho(u) = (sum_q a_q cos(qu), sum_q b_q sin(qu)), u in [0, 2pi), placed in the
global frame as r(u) = p + R(heading) rho(u) with p the target center seen
from the radar at the origin. All reflection geometry (d, phi, beta) and
the roughness-weighted illumination profiles (w, v) derive from r and rdot.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError, RegularityError, ScenarioError

TWO_PI = 2.0 * np.pi

# rotate a 2-vector by +90 degrees: x_perp = PERP @ x
PERP = np.array([[0.0, -1.0], [1.0, 0.0]])

# largest relative change of the perimeter when its node count doubles
PERIMETER_REL_TOL = 1e-7
# trapezoid intervals of the arc-length table
ARCLENGTH_NODES = 8192
# sides of the polygon on which a contour is tested for crossing itself
POLYGON_SIDES = 256


def wrap_angle(x):
    """Wrap angle(s) to (-pi, pi]."""
    w = np.mod(np.asarray(x, dtype=float), TWO_PI)
    w = np.where(w > np.pi, w - TWO_PI, w)
    return w if w.ndim else float(w)


def rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class ArcLength(NamedTuple):
    """A contour's arc-length table: the cumulative trapezoid length s at
    parameters u (both read-only) and the perimeter."""

    u: np.ndarray
    s: np.ndarray
    perimeter: float


@dataclass(frozen=True)
class ContourParams:
    """Truncated Fourier coefficients of the target contour (meters).

    m holds the Q cosine coefficients a_q, n the Q sine coefficients b_q.
    a_1 > 0 and b_1 > 0 so the curve cycles anti-clockwise.
    """

    m: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        # private read-only copies: a scenario's lit arc is built once from them
        m = np.atleast_1d(np.array(self.m, dtype=float))
        n = np.atleast_1d(np.array(self.n, dtype=float))
        for coeffs in (m, n):
            coeffs.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        if m.ndim != 1 or m.shape != n.shape or m.size < 1:
            raise ScenarioError("contour needs equally sized 1-D coefficient vectors, Q >= 1")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(n))):
            raise ScenarioError("contour coefficients must be finite")
        if not (m[0] > 0.0 and n[0] > 0.0):
            raise ScenarioError("contour must cycle anti-clockwise: a_1 > 0 and b_1 > 0")

    @property
    def q(self) -> int:
        return self.m.size

    @cached_property
    def arc_length(self) -> ArcLength:
        """The arc-length table from ||rho_dot|| on ARCLENGTH_NODES + 1 points
        of [0, 2pi], built on first read and kept; reading it admits the
        contour. RegularityError if the speed vanishes, QuadratureError if
        every second point moves the perimeter by more than
        PERIMETER_REL_TOL, ScenarioError if the contour crosses itself
        (_check_simple); a failure is not kept."""
        u = np.linspace(0.0, TWO_PI, ARCLENGTH_NODES + 1)
        _, rho_dot = eval_local(self, u)
        speed = np.hypot(rho_dot[0], rho_dot[1])
        if speed.min() <= 0.0:
            raise RegularityError("contour is not regular: ||rho_dot|| vanishes on the grid")
        du = TWO_PI / ARCLENGTH_NODES
        total = float(np.sum(speed[:-1] * du))
        coarse = float(np.sum(speed[:-1:2] * (2.0 * du)))
        if abs(total - coarse) > PERIMETER_REL_TOL * abs(total):
            raise QuadratureError(f"perimeter quadrature not converged: {coarse} vs {total} "
                                  f"at {ARCLENGTH_NODES // 2} nodes")
        _check_simple(self)
        s = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) / 2.0 * np.diff(u))])
        for array in (s, u):
            array.flags.writeable = False
        return ArcLength(u=u, s=s, perimeter=total)


@dataclass(frozen=True)
class TargetPose:
    """Target center in radar-local polar coordinates plus heading (radians)."""

    d: float
    phi: float
    heading: float

    def __post_init__(self):
        if not self.d > 0.0:
            raise ScenarioError(f"target range must be positive, got {self.d}")
        if not self.d < np.inf:
            raise ScenarioError(f"target range must be finite, got {self.d}")
        if not (np.isfinite(self.phi) and np.isfinite(self.heading)):
            raise ScenarioError(f"target angles must be finite, got {self.phi}, {self.heading}")
        object.__setattr__(self, "phi", wrap_angle(self.phi))
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    @property
    def p(self) -> np.ndarray:
        """Center position p = d [cos(phi), sin(phi)]."""
        return self.d * np.array([np.cos(self.phi), np.sin(self.phi)])


@dataclass(frozen=True)
class QuadratureSpec:
    """Contour quadrature: the uniform periodic trapezoid on `nodes` points,
    the one grid the geometry is evaluated on and the finest a bound may
    use. nodes is a multiple of 8 of at least 64, so that fisher can size a
    bound on a subgrid of it."""

    nodes: int = 4096

    def __post_init__(self):
        if self.nodes < 64 or self.nodes % 8:
            raise ScenarioError("quadrature.nodes must be a multiple of 8 of at least 64, "
                                f"got {self.nodes}")


@dataclass(frozen=True)
class GeometryTable:
    """The contour's geometry placed at one pose, over parameters u; the
    source of all fields. The quadrature weights are the lit arc's."""

    u: np.ndarray          # (K,) nodes
    rho: np.ndarray        # (2, K) local contour
    rho_dot: np.ndarray    # (2, K)
    r: np.ndarray          # (2, K) global positions
    d: np.ndarray          # (K,)
    phi: np.ndarray        # (K,)
    beta: np.ndarray       # (K,)
    arc: np.ndarray        # (K,) ||r_dot||
    basis: tuple           # fourier_basis at u: four (Q, K) arrays

    def at(self, index) -> "GeometryTable":
        """The table at the nodes that index (an increasing index array)
        picks. Consecutive nodes, as on a lit arc that does not wrap, are
        views of this table (its basis rows are the grid's shared arrays);
        the rest are gathered with np.take, cheaper than fancy indexing."""
        if index.size and index[-1] - index[0] + 1 == index.size:
            index = slice(index[0], index[-1] + 1)

        def pick(value):
            return value[..., index] if isinstance(index, slice) else np.take(value, index, -1)

        nodes = {name: pick(value) for name, value in vars(self).items() if name != "basis"}
        return GeometryTable(**nodes, basis=tuple(pick(part) for part in self.basis))


class ReflectionWeights(NamedTuple):
    """Roughness-shaped illumination profiles along the contour.

    w = (sin+(phi-beta))^(alpha+1) and v = (sin+(phi-beta))^alpha cos(phi-beta),
    with sin+ x = max(sin x, 0); both vanish on the shadowed side.
    """

    w: np.ndarray
    v: np.ndarray


def fourier_basis(q: int, u):
    """cos(ku), sin(ku) and their u-derivatives for k = 1..q, shape (q, ...)."""
    u = np.asarray(u, dtype=float)
    k = np.arange(1, q + 1).reshape((q,) + (1,) * u.ndim)
    ku = k * u
    sigma, varsigma = np.cos(ku), np.sin(ku)
    return sigma, varsigma, -k * varsigma, k * sigma


def eval_local(params: ContourParams, u, basis=None):
    """Local contour point rho(u) and tangent rho_dot(u), shapes (2,) + u.shape.
    basis, if given, is fourier_basis(params.q, u)."""
    if basis is None:
        basis = fourier_basis(params.q, u)
    sigma, varsigma, sigma_dot, varsigma_dot = basis
    rho = np.stack([np.tensordot(params.m, sigma, axes=1),
                    np.tensordot(params.n, varsigma, axes=1)])
    rho_dot = np.stack([np.tensordot(params.m, sigma_dot, axes=1),
                        np.tensordot(params.n, varsigma_dot, axes=1)])
    return rho, rho_dot


def geometry_at(params: ContourParams, pose: TargetPose, u: np.ndarray) -> GeometryTable:
    basis = fourier_basis(params.q, u)
    return _placed(pose, u, basis, *eval_local(params, u, basis))


def _placed(pose: TargetPose, u, basis, rho, rho_dot) -> GeometryTable:
    """The geometry of the local contour rho, rho_dot at u, rotated by the
    pose's heading and placed at its center."""
    rot = rotation(pose.heading)
    r = pose.p[:, None] + rot @ rho
    r_dot = rot @ rho_dot
    d = np.hypot(r[0], r[1])
    phi = np.arctan2(r[1], r[0])
    beta = np.arctan2(r_dot[1], r_dot[0])
    arc = np.hypot(r_dot[0], r_dot[1])
    return GeometryTable(u=u, rho=rho, rho_dot=rho_dot, r=r, d=d, phi=phi, beta=beta,
                         arc=arc, basis=basis)


def reflection_weights(geometry, alpha: float) -> ReflectionWeights:
    """Illumination weights on a GeometryTable."""
    if not alpha >= 0.0:
        raise ScenarioError(f"surface roughness must be >= 0, got {alpha}")
    theta = np.asarray(geometry.phi) - np.asarray(geometry.beta)
    sp = np.maximum(np.sin(theta), 0.0)
    lit = sp > 0.0
    w = np.where(lit, sp ** (alpha + 1.0), 0.0)
    # 0**0 would give v = cos on the shadowed side; force the shadow to 0
    v = np.where(lit, sp**alpha * np.cos(theta), 0.0)
    return ReflectionWeights(w=w, v=v)


@dataclass(frozen=True)
class PoseField:
    """One pose's lit arc on one grid (Scenario.lit_arc on the full grid),
    read by the bounds and the synthesis energy norm.

    It holds the lit quadrature nodes only (w > 0, in grid order; none for
    a fully shadowed pose), as the shadow adds nothing to any bound: their
    geometry table, reflection weights w and v, arc-length weights ds =
    ||r_dot|| du and index on the grid. w_norm_sq is the squared star norm
    of w over the whole contour.
    """

    table: GeometryTable
    w: np.ndarray
    v: np.ndarray
    ds: np.ndarray
    w_norm_sq: float
    index: np.ndarray

    def subgrid(self, stride: int) -> "PoseField":
        """The arc on the grid of every stride-th node at stride times ds
        (exactly: strides are powers of two), with no geometry evaluated:
        built on first request and kept, one per stride."""
        if stride == 1:
            return self
        arcs = vars(self).setdefault("_subgrids", {})
        if stride not in arcs:
            keep = np.flatnonzero(self.index % stride == 0)
            w, ds = self.w[keep], stride * self.ds[keep]
            arcs[stride] = PoseField(table=self.table.at(keep), w=w, v=self.v[keep], ds=ds,
                                     w_norm_sq=float(np.sum(w * w * ds)),
                                     index=self.index[keep] // stride)
        return arcs[stride]


def pose_field(scenario) -> PoseField:
    """The lit arc of a Scenario's target pose on the full grid, its ds the
    trapezoid's ||r_dot|| 2 pi / nodes."""
    scenario.contour.arc_length  # the contour's admission
    table = geometry_table(scenario.contour, scenario.pose, scenario.quadrature)
    w, v = reflection_weights(table, scenario.alpha)
    ds = table.arc * (TWO_PI / scenario.quadrature.nodes)
    lit = np.flatnonzero(w > 0.0)
    return PoseField(table=table.at(lit), w=w[lit], v=v[lit], ds=ds[lit],
                     w_norm_sq=float(np.sum(w * w * ds)), index=lit)


def uniform_grid(nodes: int) -> np.ndarray:
    """Nodes of the uniform periodic grid (the trapezoid weighs each 2 pi / nodes)."""
    return np.arange(nodes) * (TWO_PI / nodes)


def geometry_table(params: ContourParams, pose: TargetPose,
                   spec: QuadratureSpec = QuadratureSpec()) -> GeometryTable:
    """Evaluate the full contour geometry on the uniform quadrature grid; the
    contour's regularity is its admission's (ContourParams.arc_length).
    Only the placement is the pose's: the grid, its Fourier basis and rho,
    rho_dot on it are the contour's (_uniform_local)."""
    return _placed(pose, *_uniform_local(params, spec.nodes))


def _uniform_local(params: ContourParams, nodes: int):
    """The contour's record of uniform_grid(nodes): u, the fourier_basis
    at u, and rho, rho_dot (eval_local). Evaluated on first request and
    kept read-only on the contour, one per node count, as its arc-length
    table is, so every pose shares it."""
    kept = vars(params).setdefault("_uniform_local", {})
    if nodes not in kept:
        u = uniform_grid(nodes)
        basis = fourier_basis(params.q, u)
        record = (u, basis, *eval_local(params, u, basis))
        for array in (u, *basis, *record[2:]):
            array.flags.writeable = False
        kept[nodes] = record
    return kept[nodes]


def perimeter(params: ContourParams) -> float:
    """Total contour length, the periodic trapezoid on the contour's
    arc-length table (ContourParams.arc_length)."""
    return params.arc_length.perimeter


def arclength_params(params: ContourParams, fractions) -> np.ndarray:
    """Contour parameters u at the given arc-length fractions of the perimeter."""
    table = params.arc_length
    return np.interp(np.asarray(fractions, dtype=float) * table.s[-1], table.s, table.u)


def _check_simple(params: ContourParams) -> None:
    """ScenarioError when two sides of the contour's polygon on
    uniform_grid(POLYGON_SIDES) cross, a side and its two neighbours aside."""
    a = eval_local(params, uniform_grid(POLYGON_SIDES))[0].T
    b = np.roll(a, -1, axis=0)
    i, j = np.triu_indices(POLYGON_SIDES, k=2)
    keep = (i > 0) | (j < POLYGON_SIDES - 1)
    i, j = i[keep], j[keep]
    if np.any(_segments_cross(a[i], b[i], a[j], b[j])):
        raise ScenarioError(f"contour crosses itself (its {POLYGON_SIDES}-side polygon does)")


def _segments_cross(p0, p1, q0, q1):
    def orient(o, a, b):
        return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
            a[..., 1] - o[..., 1]
        ) * (b[..., 0] - o[..., 0])

    d1 = orient(p0, p1, q0) * orient(p0, p1, q1)
    d2 = orient(q0, q1, p0) * orient(q0, q1, p1)
    return (d1 < 0) & (d2 < 0)
