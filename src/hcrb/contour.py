"""Fourier contour model, global placement and per-point reflection geometry.

The target perimeter is the truncated Fourier curve
rho(u) = (sum_q a_q cos(qu), sum_q b_q sin(qu)), u in [0, 2pi), placed in the
global frame as r(u) = p + R(heading) rho(u) with p the target center seen
from the radar at the origin. All reflection geometry (d, phi, beta) and
the roughness-weighted illumination profiles (w, v) derive from r and rdot.
"""

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, RegularityError, ScenarioError
from .starcalc import SampledField, star_norm_sq

TWO_PI = 2.0 * np.pi

# rotate a 2-vector by +90 degrees: x_perp = PERP @ x
PERP = np.array([[0.0, -1.0], [1.0, 0.0]])

# largest relative change of the perimeter when its node count doubles
PERIMETER_REL_TOL = 1e-7
# largest relative change of a reported variance when a bound's node count
# doubles, for the bound to be reported on fewer than quadrature.nodes nodes
QUAD_REL_TOL = 1e-10
# largest relative change of the integral of v^2 ||r_dot|| (v the least smooth
# weight) from nodes/8 to nodes/4 nodes for which a bound is sized at all
SMOOTH_REL_TOL = 1e-14
# trapezoid intervals of the cumulative arc-length table
ARCLENGTH_NODES = 8192


def wrap_angle(x):
    """Wrap angle(s) to (-pi, pi]."""
    w = np.mod(np.asarray(x, dtype=float), TWO_PI)
    w = np.where(w > np.pi, w - TWO_PI, w)
    return w if w.ndim else float(w)


def rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


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
        if not (m[0] > 0.0 and n[0] > 0.0):
            raise ScenarioError("contour must cycle anti-clockwise: a_1 > 0 and b_1 > 0")

    @property
    def q(self) -> int:
        return self.m.size


@dataclass(frozen=True)
class TargetPose:
    """Target center in radar-local polar coordinates plus heading (radians)."""

    d: float
    phi: float
    heading: float

    def __post_init__(self):
        if not self.d > 0.0:
            raise ScenarioError(f"target range must be positive, got {self.d}")
        object.__setattr__(self, "phi", wrap_angle(self.phi))
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    @property
    def p(self) -> np.ndarray:
        """Center position p = d [cos(phi), sin(phi)]."""
        return self.d * np.array([np.cos(self.phi), np.sin(self.phi)])


@dataclass(frozen=True)
class QuadratureSpec:
    """Contour quadrature: the uniform periodic trapezoid on `nodes` points.

    nodes is the finest grid a bound may use, and the one grid the geometry
    is evaluated on. fisher sizes each bound on every fourth, every second
    or every node (nodes/4, nodes/2 or nodes points): the coarsest grid
    whose reported variances move by at most QUAD_REL_TOL from the grid of
    half as many. The synthesis energy norm always uses every node.
    """

    nodes: int = 4096

    def __post_init__(self):
        if self.nodes < 16:
            raise ScenarioError("quadrature needs at least 16 nodes")


@dataclass(frozen=True)
class GeometryTable:
    """Vectorized geometry over a quadrature grid; the source of all fields."""

    u: np.ndarray          # (K,) nodes
    du: np.ndarray         # quadrature weights in u, scalar array or (K,)
    rho: np.ndarray        # (2, K) local contour
    rho_dot: np.ndarray    # (2, K)
    r: np.ndarray          # (2, K) global positions
    r_dot: np.ndarray      # (2, K)
    d: np.ndarray          # (K,)
    phi: np.ndarray        # (K,)
    beta: np.ndarray       # (K,)
    arc: np.ndarray        # (K,) ||r_dot||
    basis: tuple           # fourier_basis at u: four (Q, K) arrays

    def at(self, index) -> "GeometryTable":
        """The table at the nodes that index (an increasing index array)
        picks; du must be per node, as on a quadrature grid. Consecutive
        nodes, as on a lit arc that does not wrap, are views of this table
        (its basis rows are the grid's shared arrays); other evenly spaced
        ones, as on a subgrid, are sliced and copied into contiguous rows;
        the rest are gathered with np.take. Each is cheaper than fancy
        indexing."""
        step = index[1] - index[0] if index.size > 1 else 0
        if step > 0 and np.all(np.diff(index) == step):
            index = slice(index[0], index[-1] + 1, step)

        def pick(value):
            if not isinstance(index, slice):
                return np.take(value, index, axis=-1)
            return value[..., index] if step == 1 else value[..., index].copy()

        nodes = {name: pick(value) for name, value in vars(self).items() if name != "basis"}
        return GeometryTable(**nodes, basis=tuple(pick(part) for part in self.basis))


@dataclass(frozen=True)
class ReflectionWeights:
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


@lru_cache(maxsize=1)
def _uniform_basis(q: int, nodes: int):
    """fourier_basis on uniform_grid(nodes), shared read-only by every pose."""
    basis = fourier_basis(q, uniform_grid(nodes)[0])
    for array in basis:
        array.flags.writeable = False
    return basis


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


def geometry_at(params: ContourParams, pose: TargetPose, u: np.ndarray,
                 du=None, basis=None) -> GeometryTable:
    if basis is None:
        basis = fourier_basis(params.q, u)
    rho, rho_dot = eval_local(params, u, basis)
    rot = rotation(pose.heading)
    r = pose.p[:, None] + rot @ rho
    r_dot = rot @ rho_dot
    d = np.hypot(r[0], r[1])
    phi = np.arctan2(r[1], r[0])
    beta = np.arctan2(r_dot[1], r_dot[0])
    arc = np.hypot(r_dot[0], r_dot[1])
    if du is None:
        du = np.array(0.0)
    return GeometryTable(u=u, du=np.asarray(du, dtype=float), rho=rho, rho_dot=rho_dot,
                         r=r, r_dot=r_dot, d=d, phi=phi, beta=beta, arc=arc,
                         basis=basis)


def reflection_weights(geometry, alpha: float) -> ReflectionWeights:
    """Illumination weights on a GeometryTable."""
    if alpha < 0.0:
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
    """One pose's lit arc on one grid, gathered once per node count
    (Scenario.lit_arc, Scenario.lit_arc_on) and read by efim_exact,
    t_blocks and, on the full grid, the synthesis energy norm.

    table and weights hold the lit quadrature nodes only (w > 0, in grid
    order; none for a fully shadowed pose): the shadow adds nothing to any
    bound. index holds each lit node's index on the grid. w_norm_sq is the
    squared star norm of w over the whole contour.
    """

    table: GeometryTable
    weights: ReflectionWeights
    w_norm_sq: float
    index: np.ndarray

    def subgrid(self, stride: int) -> "PoseField":
        """The arc on the grid of every stride-th node, at stride times the
        weight, with no geometry evaluated."""
        keep = np.flatnonzero(self.index % stride == 0)
        table = self.table.at(keep)
        table = replace(table, du=stride * table.du)
        w = self.weights.w[keep]
        return PoseField(table=table,
                         weights=ReflectionWeights(w=w, v=self.weights.v[keep]),
                         w_norm_sq=float(np.sum(w * w * (table.arc * table.du))),
                         index=self.index[keep] // stride)


def pose_field(scenario) -> PoseField:
    """The lit arc of a Scenario's target pose: its geometry table and
    reflection weights at the lit quadrature nodes, and ||w||^2."""
    table = geometry_table(scenario.contour, scenario.pose, scenario.quadrature)
    weights = reflection_weights(table, scenario.alpha)
    w_norm_sq = star_norm_sq(SampledField(weights.w, table.arc, table.du))
    lit = np.flatnonzero(weights.w > 0.0)
    return PoseField(table=table.at(lit),
                     weights=ReflectionWeights(w=weights.w[lit], v=weights.v[lit]),
                     w_norm_sq=w_norm_sq, index=lit)


def uniform_grid(nodes: int):
    """Uniform periodic grid with equal weights (trapezoid on a periodic function)."""
    u = np.arange(nodes) * (TWO_PI / nodes)
    return u, np.full(nodes, TWO_PI / nodes)


def geometry_table(params: ContourParams, pose: TargetPose,
                   spec: QuadratureSpec = QuadratureSpec()) -> GeometryTable:
    """Evaluate the full contour geometry on the uniform quadrature grid."""
    u, du = uniform_grid(spec.nodes)
    table = geometry_at(params, pose, u, du, _uniform_basis(params.q, spec.nodes))
    if table.arc.min() <= 0.0:
        raise RegularityError("contour is not regular: ||rho_dot|| vanishes on the grid")
    return table


def _coefficient_key(params: ContourParams):
    """Cache key of a contour: the exact bytes of its coefficients."""
    return params.m.tobytes(), params.n.tobytes()


def _from_key(key) -> ContourParams:
    m, n = key
    return ContourParams(np.frombuffer(m), np.frombuffer(n))


def perimeter(params: ContourParams, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Total contour length; raises unless doubling the nodes moves it by at
    most PERIMETER_REL_TOL.

    It depends on the contour alone, so it is cached per coefficients and
    node count; failures raise on every call."""
    return _perimeter(_coefficient_key(params), spec.nodes)


@lru_cache(maxsize=8)
def _perimeter(key, base_nodes: int) -> float:
    params = _from_key(key)
    total = None
    for nodes in (base_nodes, 2 * base_nodes):
        u, du = uniform_grid(nodes)
        _, rho_dot = eval_local(params, u)
        speed = np.hypot(rho_dot[0], rho_dot[1])
        if speed.min() <= 0.0:
            raise RegularityError("contour is not regular: ||rho_dot|| vanishes on the grid")
        prev, total = total, float(np.sum(speed * du))
    if abs(total - prev) > PERIMETER_REL_TOL * abs(total):
        raise QuadratureError(
            f"perimeter quadrature not converged: {prev} vs {total} at {base_nodes} nodes"
        )
    return total


def arclength_params(params: ContourParams, fractions) -> np.ndarray:
    """Contour parameters u at the given arc-length fractions of the perimeter."""
    s, u = _cumulative_length(_coefficient_key(params))
    return np.interp(np.asarray(fractions, dtype=float) * s[-1], s, u)


@lru_cache(maxsize=8)
def _cumulative_length(key):
    """Cumulative trapezoid arc length s along u on ARCLENGTH_NODES + 1
    points, both read-only; like the perimeter it depends on the contour
    alone."""
    u = np.linspace(0.0, TWO_PI, ARCLENGTH_NODES + 1)
    _, rho_dot = eval_local(_from_key(key), u)
    speed = np.hypot(rho_dot[0], rho_dot[1])
    s = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) / 2.0 * np.diff(u))])
    for array in (s, u):
        array.flags.writeable = False
    return s, u


def check_simple(params: ContourParams, nodes: int = 256) -> bool:
    """Advisory self-intersection test on a polygonal sampling; warns if it fails."""
    u, _ = uniform_grid(nodes)
    rho, _ = eval_local(params, u)
    pts = rho.T
    a = pts
    b = np.roll(pts, -1, axis=0)
    for i in range(nodes):
        # skip the segment itself and its two neighbours
        js = np.arange(i + 2, nodes if i > 0 else nodes - 1)
        if js.size == 0:
            continue
        if np.any(_segments_cross(a[i], b[i], a[js], b[js])):
            warnings.warn("contour appears to self-intersect (advisory check)", stacklevel=2)
            return False
    return True


def _segments_cross(p0, p1, q0, q1):
    def orient(o, a, b):
        return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
            a[..., 1] - o[..., 1]
        ) * (b[..., 0] - o[..., 0])

    d1 = orient(p0, p1, q0) * orient(p0, p1, q1)
    d2 = orient(q0, q1, p0[None]) * orient(q0, q1, p1[None])
    return (d1 < 0) & (d2 < 0)
