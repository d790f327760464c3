"""Star-product calculus on contour-sampled fields.

The star product <f, g> = integral of f g ||r_dot|| du over [0, 2pi) is the
inner product under which all bound formulas are assembled. Fields are
tabulated on a shared quadrature grid; vector-valued fields are stacks of
rows, for which the overloaded product returns the Gram matrix.
"""

import copy
from dataclasses import dataclass

import numpy as np

from ._linalg import solve_spd
from .errors import ScenarioError


@dataclass(frozen=True)
class SampledField:
    """Field values tabulated on a quadrature grid with arc-length weights.

    values is (K,) for a scalar field or (P, K) for a stack of P fields;
    arc_weights holds ||r_dot(u_i)|| and du the quadrature weights in u
    (scalar for uniform grids).
    """

    values: np.ndarray
    arc_weights: np.ndarray
    du: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        arc = np.asarray(self.arc_weights, dtype=float)
        du = np.asarray(self.du, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "arc_weights", arc)
        object.__setattr__(self, "du", du)
        if arc.ndim != 1 or arc.size < 2:
            raise ScenarioError("arc_weights must be a 1-D array of length >= 2")
        if values.shape[-1] != arc.size:
            raise ScenarioError("field values and arc_weights lengths differ")
        if arc.min() <= 0.0:
            raise ScenarioError("arc_weights must be strictly positive")
        if du.ndim not in (0, 1) or (du.ndim == 1 and du.size != arc.size):
            raise ScenarioError("du must be a scalar or match the grid length")

    @property
    def quad_weights(self) -> np.ndarray:
        """Per-node integration weights ||r_dot|| du."""
        return self.arc_weights * self.du

    def with_values(self, values) -> "SampledField":
        """The same grid with new values; the grid was checked when self was
        built, so only the new values' length is."""
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != self.arc_weights.shape:
            raise ScenarioError("field values and arc_weights lengths differ")
        field = copy.copy(self)
        object.__setattr__(field, "values", values)
        return field


def unit_weights(values) -> SampledField:
    """values on a grid of unit weights, so star products are plain sums:
    for fields whose values already carry their quadrature weights."""
    values = np.asarray(values, dtype=float)
    return SampledField(values, np.ones(values.shape[-1]), 1.0)


def _require_same_grid(f: SampledField, g: SampledField):
    if f.arc_weights is g.arc_weights and f.du is g.du:
        return
    if f.arc_weights.shape != g.arc_weights.shape or not (
        np.array_equal(f.arc_weights, g.arc_weights) and np.array_equal(f.du, g.du)
    ):
        raise ScenarioError("fields live on different quadrature grids")


def star_inner(f: SampledField, g: SampledField):
    """<f, g> under the arc-weighted quadrature.

    Scalar for two scalar fields; a (P,) vector or (P1, P2) Gram matrix when
    either argument is a stack.
    """
    _require_same_grid(f, g)
    a = np.atleast_2d(f.values)
    b = np.atleast_2d(g.values)
    gram = (a * f.quad_weights) @ b.T
    if f.values.ndim == 1 and g.values.ndim == 1:
        return float(gram[0, 0])
    if f.values.ndim == 1:
        return gram[0]
    if g.values.ndim == 1:
        return gram[:, 0]
    return gram


def star_norm_sq(f: SampledField):
    """Squared star norm; per-row for stacked fields."""
    a = np.atleast_2d(f.values)
    out = np.sum(a * a * f.quad_weights, axis=1)
    return float(out[0]) if f.values.ndim == 1 else out


def project(f: SampledField, basis: SampledField) -> SampledField:
    """Star-orthogonal projection of f onto the span of the basis rows."""
    gram = np.atleast_2d(star_inner(basis, basis))
    rhs = np.atleast_2d(star_inner(basis, f))
    if f.values.ndim == 1:
        rhs = rhs.reshape(-1, 1)
    coef = solve_spd(gram, rhs)
    proj = coef.T @ np.atleast_2d(basis.values)
    return f.with_values(proj.reshape(f.values.shape))


def project_perp(f: SampledField, basis: SampledField) -> SampledField:
    """Residual of f after projecting out the span of the basis rows."""
    # the projection's values are a fresh array: the residual overwrites it
    residual = project(f, basis).values
    return f.with_values(np.subtract(f.values, residual, out=residual))
