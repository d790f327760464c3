"""Small linear-algebra helpers: guarded SPD solves and checked inverses."""

import warnings

import numpy as np
import scipy.linalg

from .errors import IdentifiabilityError

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


def invert_info_matrix(mat: np.ndarray, labels=None) -> np.ndarray:
    """Invert an information matrix, raising IdentifiabilityError when singular.

    A direction is null when its eigenvalue is at most NULL_RCOND times the
    largest. The error carries the orthonormal null-space basis and the labels
    of the parameters it involves: those whose basis row has norm above
    sqrt(NULL_RCOND).
    """
    mat = np.atleast_2d(mat)
    w, v = np.linalg.eigh(mat)
    cutoff = NULL_RCOND * max(abs(w).max(), np.finfo(float).tiny)
    ns = v[:, np.abs(w) <= cutoff]
    if ns.shape[1] > 0:
        if labels is not None:
            involved = np.linalg.norm(ns, axis=1) > np.sqrt(NULL_RCOND)
            labels = [label for label, keep in zip(labels, involved) if keep]
        raise IdentifiabilityError(
            f"information matrix is singular ({ns.shape[1]} null direction(s))",
            null_space=ns,
            labels=labels,
        )
    return np.linalg.inv(mat)
