"""The paper's closed forms and a projection route: referees of the QR
route by which hcrb reads the long-range bound (asymptotics.t_blocks).

At long range the pose block of the information is
[[L, A, -A], [A, Z+B, -B], [-A, -B, B]]: L and Z are the radar constants,
A and B come from the contour. With the shape known it inverts in closed
form; with the shape unknown the same form holds with L, A, B replaced by
their Schur complements L', A', B' after the shape is eliminated, Z
untouched because the bearing row decouples. Every argument is in units of
the information 2(E/N0) T, not of T.
"""

import numpy as np

from hcrb._linalg import triangular_factor
from hcrb.errors import IdentifiabilityError
from hcrb.starcalc import project_perp, star_inner, star_norm_sq, unit_weights


def pose_inverse(big_l: float, a: float, b: float, big_z: float) -> np.ndarray:
    """Closed-form inverse of [[L, A, -A], [A, Z+B, -B], [-A, -B, B]].

    Written with the determinant L B - A^2 so the expression stays finite
    when the range/heading coupling A vanishes by symmetry.
    """
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


def schur_pose_block(stack: np.ndarray):
    """(L', A', B') of the far-field stack (fisher.field_stack, state
    order): the pose block left after eliminating the shape is R_pp^T R_pp,
    R_pp the trailing 3x3 block of R from the QR of the stack's rows with
    the shape rows first."""
    r = triangular_factor(np.roll(stack, -3, axis=0))
    r_pp = r[-3:, -3:]
    schur = r_pp.T @ r_pp
    return schur[0, 0], schur[0, 1], schur[2, 2]


def unknown_shape_projection(stack: np.ndarray, big_z: float) -> dict:
    """Unknown-shape variances via orthogonal projections of the far-field rows.

    The shape rows zeta_q span what the contour coefficients can absorb;
    projecting the range row f and the width probe b (minus the heading row)
    onto their complement, by normal equations on the shape rows' Gram,
    reproduces the Schur-complement quantities without the QR of the stack.
    """
    probe_f = unit_weights(stack[0])
    probe_b = probe_f.with_values(-stack[2])
    basis = probe_f.with_values(stack[3:])
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
    return {
        "l_prime": l_prime,
        "a_prime": a_prime,
        "b_prime": b_prime,
        "c_range": 1.0 / denom_f,
        "c_heading": 1.0 / big_z + 1.0 / denom_b,
    }
