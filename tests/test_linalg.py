"""The full-rank certificate of invert_info_matrix against check_rank's SVD,
and the directly loaded LAPACK routines against scipy.linalg.lapack's."""

import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.lapack import dtrtri

import hcrb
from hcrb import _linalg
from hcrb._linalg import NULL_RCOND, check_rank, invert_info_matrix
from hcrb.contour import TargetPose
from hcrb.experiments import run_range_sweep
from hcrb.fisher import field_stack

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


def _lapack_results(module, rows: np.ndarray):
    """The bytes of R (dgeqrt with QR_BLOCK, as triangular_factor calls
    it, on a copy of rows.T) and of R^-1 (dtrtri) from one LAPACK module."""
    rows = np.array(rows, order="C")
    block = min(_linalg.QR_BLOCK, *rows.shape)
    qr = module.dgeqrt(block, rows.T, overwrite_a=True)[0]
    size = min(rows.shape)
    r = np.triu(qr[:size, :size])
    r_inv, info = module.dtrtri(r)
    return r.tobytes(), r_inv.tobytes(), info


def _tall_matrices():
    rng = np.random.default_rng(31)
    for p, n in ((3, 3), (3, 40), (8, 9), (23, 512), (23, 1500), (40, 41)):
        yield f"random_{p}x{n}", rng.normal(size=(p, n))


def _vehicle_stacks(scenario):
    for heading in (60.0, 90.0, 180.0):
        pose = TargetPose(scenario.pose.d, scenario.pose.phi, np.radians(heading))
        sc = scenario.with_pose(pose)
        yield f"exact_{heading:g}", field_stack(sc, nodes=1024)
        yield f"far_field_{heading:g}", field_stack(sc, far_field=True, nodes=1024)


def test_direct_lapack_is_scipy_linalgs(scenario):
    """dgeqrt and dtrtri as loaded from scipy's extension file give the
    bytes of R and R^-1 that scipy.linalg.lapack's give, on random tall
    matrices and on the vehicle's exact and far-field stacks."""
    assert _linalg._FLAPACK is not scipy.linalg._flapack  # the file was found
    cases = dict(_tall_matrices())
    cases.update(_vehicle_stacks(scenario))
    for name, rows in cases.items():
        ours = _lapack_results(_linalg._FLAPACK, rows)
        assert ours == _lapack_results(lapack, rows), name
        assert ours[2] == 0, name


def test_lapack_falls_back_to_scipy_linalg(scenario, monkeypatch):
    """Where the extension file is not found, _load_flapack imports it
    through scipy.linalg; the R and R^-1 are the same bytes."""
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, *args, **kwargs: None))
    fallback = _linalg._load_flapack()
    assert fallback is scipy.linalg._flapack
    rows = dict(_vehicle_stacks(scenario))["exact_90"]
    assert _lapack_results(fallback, rows) == _lapack_results(_linalg._FLAPACK, rows)


_OPENBLAS_PROBE = """
import json, sys
from hcrb._pool import openblas_libraries
from hcrb.cli import entry

def mapped():
    with open("/proc/self/maps") as maps:
        return sorted({line.split(maxsplit=5)[5].strip() for line in maps
                       if len(line.split(maxsplit=5)) == 6 and "openblas" in line})

entry(["bounds", "--scenario", sys.argv[1]])
before = {"linalg": "scipy.linalg" in sys.modules, "found": len(openblas_libraries()),
          "mapped": mapped()}
import scipy.linalg
openblas_libraries.cache_clear()
after = {"linalg": "scipy.linalg" in sys.modules, "found": len(openblas_libraries()),
         "mapped": mapped()}
print(json.dumps([before, after]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")
def test_bounds_process_finds_the_openblas_that_scipy_linalg_brings():
    """A fresh process that ran hcrb bounds without scipy.linalg has mapped
    every OpenBLAS that importing scipy.linalg maps, so _pool's thread
    limit finds the same libraries as when scipy.linalg was imported."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(Path(hcrb.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", _OPENBLAS_PROBE,
                          str(root / "scenarios" / "vehicle.json")],
                         capture_output=True, text=True, env=env, check=True)
    before, after = json.loads(run.stdout.splitlines()[-1])
    assert not before["linalg"] and after["linalg"]
    assert before["mapped"] and before["mapped"] == after["mapped"]
    assert before["found"] == after["found"] >= 1
