"""Long-range limit of the bound: T-blocks, closed-form inverses, projections.

As the range grows, the information matrix approaches 2(E/N0) T where T
depends on range only through the energy. Its pose block and pose/shape
coupling admit closed-form inverses; the same variances can be reproduced
by star-orthogonal projections against the shape basis, which serves as an
independent cross-check of the Schur algebra.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from ._linalg import solve_spd
from .contour import PERP, PoseField, pose_field, rotation
from .errors import IdentifiabilityError, NoIlluminationError
from .fisher import check_not_endfire, gamma_labels, radar_constants
from .scenario import Scenario
from .starcalc import (
    FieldPair,
    SampledField,
    extended_inner,
    pair_norm_sq,
    pair_project_perp,
    pair_stack,
    project_perp,
    star_inner,
    star_norm_sq,
)


@dataclass(frozen=True)
class TBlocks:
    """Range-free factor T of the asymptotic information 2(E/N0) T.

    t11 is the pose block [[L, A, -A], [A, Z+B, -B], [-A, -B, B]], t21 the
    shape/pose coupling [c q -q], t22 the shape block. The field pairs
    pair_f, pair_b and pair_basis carry the corresponding star-calculus
    objects for the projection route; only that route reads them, so they are
    built on first access from the fields kept below.
    """

    t11: np.ndarray
    t21: np.ndarray
    t22: np.ndarray
    big_l: float
    big_m: float
    big_z: float
    a_coef: float
    b_coef: float
    c_vec: np.ndarray
    q_vec: np.ndarray
    e_over_n0: float
    w_norm_sq: float
    alpha: float
    labels: tuple
    # w on the grid, cross-range offsets x, shape rows s, P_w v and P_w(v delta)
    w_field: SampledField = dataclass_field(repr=False, compare=False)
    x_vals: np.ndarray = dataclass_field(repr=False, compare=False)
    s_rows: np.ndarray = dataclass_field(repr=False, compare=False)
    pv: SampledField = dataclass_field(repr=False, compare=False)
    t_rows: SampledField = dataclass_field(repr=False, compare=False)

    @cached_property
    def pair_f(self) -> FieldPair:
        """Range probe (sqrt(L) w, 0)."""
        w = self.w_field
        return FieldPair(w.with_values(np.sqrt(self.big_l) * w.values),
                         w.with_values(np.zeros_like(w.values)))

    @cached_property
    def pair_b(self) -> FieldPair:
        """Width probe (sqrt(L) w x, (1+alpha) P_w v)."""
        w = self.w_field
        return FieldPair(
            w.with_values(np.sqrt(self.big_l) * w.values * self.x_vals),
            w.with_values((self.alpha + 1.0) * self.pv.values),
        )

    @cached_property
    def pair_basis(self) -> FieldPair:
        """Shape basis rows (sqrt(L) w s_q, (1+alpha) t_q)."""
        w = self.w_field
        return FieldPair(
            w.with_values(np.sqrt(self.big_l) * w.values * self.s_rows),
            w.with_values((self.alpha + 1.0) * self.t_rows.values),
        )

    @property
    def t_full(self) -> np.ndarray:
        """Assembled (2Q+3) x (2Q+3) symmetric T."""
        return np.block([[self.t11, self.t21.T], [self.t21, self.t22]])


def t_blocks(scenario: Scenario, field: PoseField | None = None) -> TBlocks:
    """Evaluate the asymptotic blocks on the scenario's quadrature grid.

    field is pose_field(scenario), built here when not given; efim_exact can
    share it.
    """
    if field is None:
        field = pose_field(scenario)
    table, weights, grid = field.table, field.weights, field.grid
    w_norm_sq = field.w_norm_sq
    if not np.any(weights.w > 0.0):
        raise NoIlluminationError(
            "no contour point is lit: sin(phi - beta) <= 0 everywhere"
        )
    wbar = grid.with_values(weights.w / np.sqrt(w_norm_sq))
    big_l, big_m, big_z = radar_constants(scenario)
    alpha = scenario.alpha
    q = scenario.contour.q

    pose = scenario.pose
    rot = rotation(pose.heading)
    p_bar = pose.p / pose.d
    # cross-range offset of each contour point, in units of range
    x_vals = (PERP @ p_bar) @ (rot @ table.rho)
    rt_pbar = rot.T @ p_bar
    sigma, varsigma, sigma_dot, varsigma_dot = table.basis
    s_rows = np.empty((2 * q, table.u.size))
    np.multiply(rt_pbar[0], sigma, out=s_rows[:q])
    np.multiply(rt_pbar[1], varsigma, out=s_rows[q:])
    # v delta, built in one (2Q, K) array: product, quotient, then the weight
    vdelta = np.empty_like(s_rows)
    np.multiply(table.rho_dot[1], sigma_dot, out=vdelta[:q])
    np.multiply(-table.rho_dot[0], varsigma_dot, out=vdelta[q:])
    vdelta /= table.arc * table.arc
    vdelta *= weights.v

    wbx = grid.with_values(wbar.values * x_vals)
    pv = project_perp(grid.with_values(weights.v), grid)
    t_rows = project_perp(grid.with_values(vdelta), grid)
    wbs = grid.with_values(wbar.values * s_rows)

    ap1_sq = (alpha + 1.0) ** 2
    a_coef = big_l * star_inner(wbar, wbx)
    b_coef = big_l * star_norm_sq(wbx) + ap1_sq * star_norm_sq(pv) / w_norm_sq
    t11 = np.array(
        [
            [big_l, a_coef, -a_coef],
            [a_coef, big_z + b_coef, -b_coef],
            [-a_coef, -b_coef, b_coef],
        ]
    )
    c_vec = big_l * star_inner(wbs, wbar)
    q_vec = (
        big_l * star_inner(wbs, wbx)
        + ap1_sq * star_inner(t_rows, pv) / w_norm_sq
    )
    t21 = np.column_stack([c_vec, q_vec, -q_vec])
    t22 = (
        big_l * star_inner(wbs, wbs)
        + ap1_sq * star_inner(t_rows, t_rows) / w_norm_sq
    )
    t22 = 0.5 * (t22 + t22.T)

    return TBlocks(
        t11=t11,
        t21=t21,
        t22=t22,
        big_l=big_l,
        big_m=big_m,
        big_z=big_z,
        a_coef=a_coef,
        b_coef=b_coef,
        c_vec=c_vec,
        q_vec=q_vec,
        e_over_n0=scenario.e_over_n0(w_norm_sq),
        w_norm_sq=w_norm_sq,
        alpha=alpha,
        labels=tuple(gamma_labels(q)),
        w_field=grid,
        x_vals=x_vals,
        s_rows=s_rows,
        pv=pv,
        t_rows=t_rows,
    )


def _pose_inverse(big_l: float, a: float, b: float, big_z: float) -> np.ndarray:
    """Closed-form inverse of [[L, A, -A], [A, Z+B, -B], [-A, -B, B]].

    Written with the determinant L B - A^2 so the expression stays finite
    when the range/heading coupling A vanishes by symmetry.
    """
    check_not_endfire(big_z)
    det = big_l * b - a * a
    if b <= 0.0 or det <= 0.0:
        raise IdentifiabilityError(
            f"degenerate pose block: B = {b:.3e}, L B - A^2 = {det:.3e}"
        )
    return np.array(
        [
            [b / det, 0.0, a / det],
            [0.0, 1.0 / big_z, 1.0 / big_z],
            [a / det, 1.0 / big_z, 1.0 / big_z + big_l / det],
        ]
    )


@dataclass(frozen=True)
class AsymptoticReport:
    """3x3 pose covariance in the long-range regime."""

    covariance: np.ndarray
    labels: tuple
    contour_known: bool
    e_over_n0: float
    blocks: TBlocks

    @property
    def c_range(self) -> float:
        return float(self.covariance[0, 0])

    @property
    def c_bearing(self) -> float:
        return float(self.covariance[1, 1])

    @property
    def c_heading(self) -> float:
        return float(self.covariance[2, 2])


def hcrb_known_shape(blocks: TBlocks) -> AsymptoticReport:
    """Asymptotic pose bound with the contour coefficients known."""
    cov = _pose_inverse(blocks.big_l, blocks.a_coef, blocks.b_coef, blocks.big_z)
    cov = cov / (2.0 * blocks.e_over_n0)
    return AsymptoticReport(
        covariance=cov,
        labels=blocks.labels[:3],
        contour_known=True,
        e_over_n0=blocks.e_over_n0,
        blocks=blocks,
    )


def heading_variance_split(blocks: TBlocks):
    """Known-shape heading variance split into the point-bearing floor 1/Z
    and the contour-induced excess; the excess term B^-1 is a tight upper
    proxy whenever A^2 << L B."""
    scale = 1.0 / (2.0 * blocks.e_over_n0)
    det = blocks.big_l * blocks.b_coef - blocks.a_coef**2
    return {
        "bearing_floor": scale / blocks.big_z,
        "excess_exact": scale * blocks.big_l / det,
        "excess_proxy": scale / blocks.b_coef,
    }


def _schur_primes(blocks: TBlocks):
    """L' = L - H, A' = A - J, B' = B - I after eliminating the shape block."""
    rhs = np.column_stack([blocks.c_vec, blocks.q_vec])
    sol = solve_spd(blocks.t22, rhs)
    h = float(blocks.c_vec @ sol[:, 0])
    j = float(blocks.c_vec @ sol[:, 1])
    i = float(blocks.q_vec @ sol[:, 1])
    return blocks.big_l - h, blocks.a_coef - j, blocks.b_coef - i


def hcrb_unknown_shape(blocks: TBlocks) -> AsymptoticReport:
    """Asymptotic pose bound with the contour coefficients jointly unknown.

    Eliminating the shape block leaves a pose block with the same algebraic
    structure, only with L, A, B replaced by their Schur complements; Z is
    untouched because the bearing row decouples at long range.
    """
    lp, ap, bp = _schur_primes(blocks)
    cov = _pose_inverse(lp, ap, bp, blocks.big_z)
    cov = cov / (2.0 * blocks.e_over_n0)
    return AsymptoticReport(
        covariance=cov,
        labels=blocks.labels[:3],
        contour_known=False,
        e_over_n0=blocks.e_over_n0,
        blocks=blocks,
    )


def unknown_shape_projection(blocks: TBlocks) -> dict:
    """Unknown-shape variances via orthogonal projections in the pair space.

    The shape basis zeta_q = (sqrt(L) w s_q, (1+alpha) t_q) spans what the
    contour coefficients can absorb; projecting the range probe
    f = (sqrt(L) w, 0) and the width probe b = (sqrt(L) w x, (1+alpha) P_w v)
    onto its complement reproduces the Schur-complement quantities without
    ever forming T22.
    """
    check_not_endfire(blocks.big_z)
    wn_sq = blocks.w_norm_sq
    res_f = pair_project_perp(blocks.pair_f, blocks.pair_basis)
    res_b = pair_project_perp(blocks.pair_b, blocks.pair_basis)
    l_prime = pair_norm_sq(res_f) / wn_sq
    b_prime = pair_norm_sq(res_b) / wn_sq
    a_prime = extended_inner(res_f, res_b) / wn_sq

    basis_with_b = pair_stack([blocks.pair_basis, blocks.pair_b])
    basis_with_f = pair_stack([blocks.pair_basis, blocks.pair_f])
    res_f_full = pair_project_perp(blocks.pair_f, basis_with_b)
    res_b_full = pair_project_perp(blocks.pair_b, basis_with_f)
    denom_f = pair_norm_sq(res_f_full)
    denom_b = pair_norm_sq(res_b_full)
    if denom_f <= 0.0 or denom_b <= 0.0:
        raise IdentifiabilityError("projection residual vanished: pose not identifiable")
    scale = 1.0 / (2.0 * blocks.e_over_n0)
    return {
        "l_prime": l_prime,
        "a_prime": a_prime,
        "b_prime": b_prime,
        "c_range": scale * wn_sq / denom_f,
        "c_heading": scale * (1.0 / blocks.big_z + wn_sq / denom_b),
    }
