"""Small linear-algebra helpers: SPD solves and checked inverses."""

import numpy as np
import scipy.linalg

from .errors import IdentifiabilityError

# relative eigenvalue cutoff below which a direction counts as null
NULL_RCOND = 1e-12


def solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ x = rhs for a symmetric positive definite gram matrix.

    A gram that Cholesky cannot factor comes from a rank-deficient basis: the
    quantity it projects out is not identifiable, so IdentifiabilityError is
    raised rather than a regularized answer returned.
    """
    gram = np.atleast_2d(np.asarray(gram, dtype=float))
    try:
        factor = scipy.linalg.cho_factor(gram, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise IdentifiabilityError(
            f"{gram.shape[0]}x{gram.shape[0]} Gram matrix is singular (Cholesky "
            "failed): its basis is rank-deficient"
        ) from err
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


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
