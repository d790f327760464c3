"""Small linear-algebra helpers: SPD solves, the triangular factor R of
an information J = R^T R from the QR of its rows, and covariances from R
(never from J, whose condition number is that of R squared).

A covariance is read off R^-1 (dtrtri), which also certifies that J has
full rank: sigma_max^2 <= ||R||_F^2 and 1/sigma_min^2 <= ||R^-1||_F^2, so
NULL_RCOND ||R||_F^2 ||R^-1||_F^2 < 1/2 puts every sigma^2 of R above
twice the cutoff at which check_rank calls a direction null. The SVD of
check_rank runs only when that product is not below 1/2 or R^-1 does not
exist, and it alone decides those cases and names their null space.

The two LAPACK routines come from scipy's compiled wrappers,
scipy/linalg/_flapack, loaded from their file: the same functions that
scipy.linalg.lapack exports, without importing scipy.linalg (5 MB of
start-up beside scipy.fft, which loads most of what scipy.linalg needs).
Only the test-only solve_spd imports scipy.linalg, in its body."""

import importlib.machinery
import importlib.util
import os

import numpy as np

from ._pool import _ONE_BLAS_THREAD
from .errors import IdentifiabilityError, ScenarioError

# relative cutoff on sigma^2 of R (the eigenvalues of J = R^T R) below which
# a direction counts as null
NULL_RCOND = 1e-12
# reflectors per panel of the blocked QR in triangular_factor
QR_BLOCK = 8


def _load_flapack():
    """scipy.linalg._flapack, loaded from its file in scipy's directory
    without importing scipy.linalg; imported through scipy.linalg only when
    that file is not found (its location is scipy's private layout)."""
    scipy_spec = importlib.util.find_spec("scipy")
    dirs = [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations or ()]
    spec = importlib.machinery.PathFinder.find_spec("_flapack", dirs)
    if spec is None:
        from scipy.linalg import _flapack
        return _flapack
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()
dgeqrt, dtrtri = _FLAPACK.dgeqrt, _FLAPACK.dtrtri


def solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ x = rhs for a symmetric positive definite gram matrix.

    A gram that Cholesky cannot factor comes from a rank-deficient basis: the
    quantity it projects out is not identifiable, so IdentifiabilityError is
    raised rather than a regularized answer returned.
    """
    import scipy.linalg

    gram = np.atleast_2d(np.asarray(gram, dtype=float))
    try:
        factor = scipy.linalg.cho_factor(gram, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise IdentifiabilityError(
            f"{gram.shape[0]}x{gram.shape[0]} Gram matrix is singular (Cholesky "
            "failed): its basis is rank-deficient"
        ) from err
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def triangular_factor(rows: np.ndarray) -> np.ndarray:
    """Upper-triangular R with R^T R = rows @ rows.T, from a Householder QR
    of rows.T. rows is a C-ordered (P, N) array and is overwritten; with
    N < P the trailing rows of R are zero.

    The QR is LAPACK's blocked dgeqrt, which applies each panel of
    QR_BLOCK reflectors as one matrix product, where dgeqrf's unblocked
    path (taken for so few columns) applies them one at a time; LAPACK
    wants the block no larger than min(N, P). OpenBLAS is held to one
    thread for the factorization: on a tall (N, 23) matrix its second
    thread costs more than it brings.
    """
    size = rows.shape[0]
    with _ONE_BLAS_THREAD:
        qr = dgeqrt(min(QR_BLOCK, *rows.shape), rows.T, overwrite_a=True)[0]
    r = np.zeros((size, size))
    r[:min(qr.shape)] = np.triu(qr[:size])
    return r


def _check_finite(r: np.ndarray) -> None:
    if not np.isfinite(r).all():
        raise ScenarioError("information matrix is not finite: the scenario overflows float64")


def check_rank(r: np.ndarray, labels=None) -> None:
    """Raise IdentifiabilityError when J = R^T R is singular, ScenarioError
    when R is not finite (the scenario overflowed the arithmetic).

    A direction is null when its sigma^2 of R is at most NULL_RCOND times
    the largest. The error carries the orthonormal null-space basis and the
    labels (in R's column order) of the parameters it involves: those whose
    basis row has norm above sqrt(NULL_RCOND).
    """
    _check_finite(r)
    sigma_sq = np.linalg.svd(r, compute_uv=False) ** 2
    cutoff = NULL_RCOND * max(sigma_sq.max(), np.finfo(float).tiny)
    null = np.count_nonzero(sigma_sq <= cutoff)
    if null == 0:
        return
    # singular values come in descending order: the null rows of V^T are last
    ns = np.linalg.svd(r)[2][-null:].T
    if labels is not None:
        involved = np.linalg.norm(ns, axis=1) > np.sqrt(NULL_RCOND)
        labels = [label for label, keep in zip(labels, involved) if keep]
    raise IdentifiabilityError(
        f"information matrix is singular ({ns.shape[1]} null direction(s))",
        null_space=ns,
        labels=labels,
    )


def invert_info_matrix(r: np.ndarray, labels=None) -> np.ndarray:
    """Covariance J^-1 = R^-1 R^-T of the information J = R^T R, R upper
    triangular; ScenarioError when R is not finite, IdentifiabilityError
    (check_rank) when J is singular. Full rank is certified from R^-1
    (module docstring), so check_rank's SVD runs only where it may find a
    null direction; every decision is the SVD's."""
    _check_finite(r)
    r_inv, failed = dtrtri(r)
    with np.errstate(over="ignore", invalid="ignore"):
        certified = not failed and NULL_RCOND * np.vdot(r, r) * np.vdot(r_inv, r_inv) < 0.5
    if not certified:
        check_rank(r, labels)
    return r_inv @ r_inv.T
