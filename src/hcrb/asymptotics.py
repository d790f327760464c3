"""Long-range limit of the bound: T-blocks, closed-form inverses, projections.

As the range grows, the information matrix approaches 2(E/N0) T where T
depends on range only through the energy. T is the Gram of the far-field
stack (fisher.field_stack), the limit of the exact rows. Its pose block and
the pose block left after eliminating the shape, read off the stack's QR,
admit closed-form inverses; the same variances can be reproduced by
star-orthogonal projections of the stack's rows against its shape rows,
which serves as an independent cross-check of the QR route.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ._linalg import check_rank, triangular_factor
from .contour import PoseField, pose_field
from .errors import IdentifiabilityError
from .fisher import CrbReport, check_not_endfire, field_stack, gamma_labels, radar_constants
from .scenario import Scenario
from .starcalc import project_perp, star_inner, star_norm_sq, unit_weights


@dataclass(frozen=True)
class TBlocks:
    """Range-free factor T of the asymptotic information 2(E/N0) T.

    t11 is the pose block [[L, A, -A], [A, Z+B, -B], [-A, -B, B]], t21 the
    shape/pose coupling [c q -q], t22 the shape block. T = rows @ rows.T
    with rows the far-field stack in the state order (d, phi, heading, then
    the shape; see fisher.field_stack). r is the triangular factor of the
    QR of those rows with the shape rows first, so that its trailing 3x3
    block is the pose block left after eliminating the shape.
    """

    t11: np.ndarray
    t21: np.ndarray
    t22: np.ndarray
    big_l: float
    big_z: float
    a_coef: float
    b_coef: float
    e_over_n0: float
    labels: tuple
    rows: np.ndarray = dataclass_field(repr=False, compare=False)
    r: np.ndarray = dataclass_field(repr=False, compare=False)

    @property
    def t_full(self) -> np.ndarray:
        """Assembled (2Q+3) x (2Q+3) symmetric T."""
        return np.block([[self.t11, self.t21.T], [self.t21, self.t22]])


def t_blocks(scenario: Scenario, field: PoseField | None = None) -> TBlocks:
    """T from the QR of the far-field stack of the scenario's pose.

    field is pose_field(scenario), built here when not given; efim_exact can
    share it.
    """
    if field is None:
        field = pose_field(scenario)
    rows = field_stack(scenario, field, far_field=True)
    r = triangular_factor(np.roll(rows, -3, axis=0))
    big_l, _, big_z = radar_constants(scenario)
    q = scenario.contour.q
    # T in the state order: R's columns run shape first
    t_full = np.roll(r.T @ r, 3, axis=(0, 1))
    t11 = t_full[:3, :3]
    return TBlocks(
        t11=t11,
        t21=t_full[3:, :3],
        t22=t_full[3:, 3:],
        big_l=big_l,
        big_z=big_z,
        a_coef=float(t11[0, 1]),
        b_coef=float(t11[2, 2]),
        e_over_n0=scenario.e_over_n0(field.w_norm_sq),
        labels=tuple(gamma_labels(q)),
        rows=rows,
        r=r,
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


def hcrb_known_shape(blocks: TBlocks) -> CrbReport:
    """Asymptotic pose bound with the contour coefficients known."""
    cov = _pose_inverse(blocks.big_l, blocks.a_coef, blocks.b_coef, blocks.big_z)
    cov = cov / (2.0 * blocks.e_over_n0)
    return CrbReport(covariance=cov, labels=blocks.labels[:3])


def hcrb_unknown_shape(blocks: TBlocks) -> CrbReport:
    """Asymptotic pose bound with the contour coefficients jointly unknown.

    Eliminating the shape block leaves a pose block with the same algebraic
    structure, only with L, A, B replaced by their Schur complements L', A',
    B'; Z is untouched because the bearing row decouples at long range. The
    complement is R_pp^T R_pp with R_pp the trailing 3x3 block of R.
    """
    check_not_endfire(blocks.big_z)
    check_rank(blocks.r, blocks.labels[3:] + blocks.labels[:3])
    r_pp = blocks.r[-3:, -3:]
    schur = r_pp.T @ r_pp
    cov = _pose_inverse(schur[0, 0], schur[0, 1], schur[2, 2], blocks.big_z)
    cov = cov / (2.0 * blocks.e_over_n0)
    return CrbReport(covariance=cov, labels=blocks.labels[:3])


def unknown_shape_projection(blocks: TBlocks) -> dict:
    """Unknown-shape variances via orthogonal projections of the far-field rows.

    The shape rows zeta_q span what the contour coefficients can absorb;
    projecting the range row f and the width probe b (minus the heading row)
    onto their complement, by normal equations on the shape rows' Gram,
    reproduces the Schur-complement quantities without the QR of the stack.
    """
    check_not_endfire(blocks.big_z)
    rows = blocks.rows
    probe_f = unit_weights(rows[0])
    probe_b = probe_f.with_values(-rows[2])
    basis = probe_f.with_values(rows[3:])
    res_f = project_perp(probe_f, basis)
    res_b = project_perp(probe_b, basis)
    l_prime = star_norm_sq(res_f)
    b_prime = star_norm_sq(res_b)
    a_prime = star_inner(res_f, res_b)

    basis_with_b = basis.with_values(np.vstack([basis.values, probe_b.values]))
    basis_with_f = basis.with_values(np.vstack([basis.values, probe_f.values]))
    denom_f = star_norm_sq(project_perp(probe_f, basis_with_b))
    denom_b = star_norm_sq(project_perp(probe_b, basis_with_f))
    if denom_f <= 0.0 or denom_b <= 0.0:
        raise IdentifiabilityError("projection residual vanished: pose not identifiable")
    scale = 1.0 / (2.0 * blocks.e_over_n0)
    return {
        "l_prime": l_prime,
        "a_prime": a_prime,
        "b_prime": b_prime,
        "c_range": scale / denom_f,
        "c_heading": scale * (1.0 / blocks.big_z + 1.0 / denom_b),
    }
