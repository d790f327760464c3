"""Small linear-algebra helpers: guarded SPD solves, null spaces, inverses."""

import warnings

import numpy as np
import scipy.linalg

# relative ridge added to a Gram matrix when a Cholesky solve fails
GRAM_RIDGE = 1e-12
# relative eigenvalue cutoff below which a direction counts as null
NULL_RCOND = 1e-12


def solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ x = rhs for a symmetric PSD gram matrix.

    Tries Cholesky first; on failure falls back to a ridge-regularized solve
    (ridge = 1e-12 * trace) and warns, since a rank-deficient basis usually
    signals a degenerate projection rather than a programming error.
    """
    gram = np.atleast_2d(np.asarray(gram, dtype=float))
    try:
        c, low = scipy.linalg.cho_factor(gram, check_finite=False)
        return scipy.linalg.cho_solve((c, low), rhs, check_finite=False)
    except scipy.linalg.LinAlgError:
        warnings.warn("rank-deficient Gram matrix, using ridge-regularized solve", stacklevel=2)
        ridge = GRAM_RIDGE * max(np.trace(gram), np.finfo(float).tiny)
        return scipy.linalg.solve(
            gram + ridge * np.eye(gram.shape[0]), rhs, assume_a="pos", check_finite=False
        )


def null_space(mat: np.ndarray, rcond: float = NULL_RCOND):
    """Eigenvectors of a symmetric matrix with eigenvalues below rcond * max.

    Returns an (n, k) array of null directions, k possibly 0.
    """
    w, v = np.linalg.eigh(np.atleast_2d(mat))
    cutoff = rcond * max(abs(w).max(), np.finfo(float).tiny)
    return v[:, np.abs(w) <= cutoff]


def invert_info_matrix(mat: np.ndarray, labels=None, rcond: float = NULL_RCOND) -> np.ndarray:
    """Invert an information matrix, raising IdentifiabilityError when singular.

    The error carries the null-space basis and the parameter labels so the
    unidentifiable combinations can be reported to the user.
    """
    from .errors import IdentifiabilityError

    mat = np.atleast_2d(mat)
    ns = null_space(mat, rcond)
    if ns.shape[1] > 0:
        raise IdentifiabilityError(
            f"information matrix is singular ({ns.shape[1]} null direction(s))",
            null_space=ns,
            labels=labels,
        )
    return np.linalg.inv(mat)
