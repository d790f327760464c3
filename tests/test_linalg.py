"""The full-rank certificate of invert_info_matrix against check_rank's SVD."""

import numpy as np
import pytest
from scipy.linalg.lapack import dtrtri

from hcrb._linalg import NULL_RCOND, check_rank, invert_info_matrix
from hcrb.contour import TargetPose
from hcrb.experiments import run_range_sweep

# sigma_min^2 / sigma_max^2 of the drawn factors, across check_rank's cutoff
RATIOS = np.geomspace(1e-14, 1e-8, 13)


def _factor(p: int, ratio: float, seed: int) -> np.ndarray:
    """Upper-triangular R with sigma_min^2 / sigma_max^2 = ratio: the R of
    the QR of U diag(sigma) V^T, U and V random orthogonal, sigma spaced
    geometrically."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.normal(size=(p, p)))[0] for _ in range(2))
    sigma = np.geomspace(1.0, np.sqrt(ratio), p)
    return np.linalg.qr((u * sigma) @ v.T, mode="r")


def _cases():
    for p in (3, 23):
        for i, ratio in enumerate(RATIOS):
            yield f"p{p}_ratio{ratio:.0e}", _factor(p, ratio, 100 * p + i)
        r = _factor(p, 1e-4, p)
        r[p // 2, p // 2] = 0.0
        yield f"p{p}_zero_diagonal", r
        r = _factor(p, 1e-4, p)
        r[0, -1] = np.inf
        yield f"p{p}_inf", r


CASES = dict(_cases())


def _outcome(fn, r, labels):
    try:
        return fn(r, labels), None
    except Exception as err:  # the test compares what each raises
        return None, err


@pytest.mark.parametrize("name", list(CASES))
def test_certificate_decides_as_the_svd_does(name):
    """invert_info_matrix raises exactly when check_rank does, with the
    same type, message, labels and null space; otherwise it returns the
    bytes of R^-1 R^-T from dtrtri, with no RuntimeWarning (which the
    suite turns into an error)."""
    r = CASES[name]
    labels = [f"x{k}" for k in range(r.shape[0])]
    _, rank_error = _outcome(check_rank, r.copy(), labels)
    covariance, error = _outcome(invert_info_matrix, r.copy(), labels)
    if rank_error is None:
        assert error is None, error
        r_inv = dtrtri(r)[0]
        assert covariance.tobytes() == (r_inv @ r_inv.T).tobytes()
        return
    assert type(error) is type(rank_error) and str(error) == str(rank_error)
    assert getattr(error, "labels", None) == getattr(rank_error, "labels", None)
    null_space = getattr(rank_error, "null_space", None)
    if null_space is not None:
        assert error.null_space.tobytes() == null_space.tobytes()


def test_the_cases_straddle_the_cutoff():
    """Some drawn factors are singular to check_rank and some are not, so
    the test above sees both answers at both sizes."""
    for p in (3, 23):
        singular = []
        for name, r in CASES.items():
            if name.startswith(f"p{p}_ratio"):
                singular.append(_outcome(check_rank, r, None)[1] is not None)
        assert any(singular) and not all(singular)


@pytest.mark.parametrize("p", [3, 23])
def test_a_well_conditioned_factor_runs_no_svd(p, monkeypatch):
    """||R||_F^2 ||R^-1||_F^2 <= P^2 sigma_max^2 / sigma_min^2, so any R with
    sigma_min^2 / sigma_max^2 above 2 P^2 NULL_RCOND is certified."""
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
    ratio = 4.0 * p * p * NULL_RCOND
    invert_info_matrix(_factor(p, ratio, p))
    assert calls == []


def test_range_sweeps_run_no_svd(scenario, monkeypatch):
    """Every bound of a 30-point sweep at headings 60, 90, 120 and 180
    degrees is certified full rank from R^-1: np.linalg.svd is never
    called."""
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for heading in (60.0, 90.0, 120.0, 180.0):
        pose = TargetPose(scenario.pose.d, scenario.pose.phi, np.radians(heading))
        assert len(run_range_sweep(scenario.with_pose(pose), n_points=30).rows) == 30 * 14
    assert calls == []
