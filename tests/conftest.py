"""Shared fixtures and generators for the test suite."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from hcrb.contour import ContourParams, TargetPose
from hcrb.scenario import EnergySpec, Scenario, WaveformSpec
from hcrb.scenario_io import load_file

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")

SCENARIO_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "vehicle.json"


@pytest.fixture(scope="session")
def bundle():
    return load_file(SCENARIO_FILE)


@pytest.fixture(scope="session")
def scenario(bundle):
    return bundle.scenario


def random_scenario(rng: np.random.Generator) -> Scenario:
    """Draw a smooth random contour and a benign pose.

    The first harmonic dominates (higher ones decay like 1/k^2) so the curve
    stays star-shaped and regular; the pose keeps the target inside the
    unambiguous bearing sector and away from endfire.
    """
    q = int(rng.integers(2, 11))
    k = np.arange(2, q + 1, dtype=float)
    m = np.concatenate(([rng.uniform(1.5, 2.5)], rng.normal(0.0, 0.3 / k**2)))
    n = np.concatenate(([rng.uniform(1.5, 2.5)], rng.normal(0.0, 0.3 / k**2)))
    pose = TargetPose(
        d=float(rng.uniform(5.0, 60.0)),
        phi=float(rng.uniform(-1.2, 1.2)),
        heading=float(rng.uniform(-np.pi, np.pi)),
    )
    return Scenario(
        contour=ContourParams(m, n),
        pose=pose,
        alpha=float(rng.choice([0.0, 1.0, 2.0, 5.0])),
        array_n=30,
        waveform=WaveformSpec(bandwidth=1e9, duration=1e-5),
        energy=EnergySpec(e_over_n0_db=40.0),
    )


def small_waveform() -> WaveformSpec:
    """A short low-rate chirp so synthesis-heavy tests stay cheap."""
    return WaveformSpec(bandwidth=5e7, duration=2e-6, sample_rate=1e8)


def finite_difference_gradients(sc: Scenario, u: np.ndarray):
    """Central differences of (d, phi, beta) under each gamma perturbation.

    Angles are differenced through the complex exponential so wrap points do
    not poison the quotient. Returns (mu, eta, xi) with xi = eta - dbeta.
    """
    from hcrb.contour import geometry_at
    from hcrb.fisher import gamma_vector, scenario_with_gamma

    gamma = gamma_vector(sc)
    mu = np.empty((gamma.size, u.size))
    eta = np.empty_like(mu)
    xi = np.empty_like(mu)
    for i in range(gamma.size):
        h = 1e-6 * max(1.0, abs(gamma[i]))
        hi, lo = gamma.copy(), gamma.copy()
        hi[i] += h
        lo[i] -= h
        sp = scenario_with_gamma(sc, hi)
        sm = scenario_with_gamma(sc, lo)
        gp = geometry_at(sp.contour, sp.pose, u)
        gm = geometry_at(sm.contour, sm.pose, u)
        mu[i] = (gp.d - gm.d) / (2.0 * h)
        eta[i] = np.angle(np.exp(1j * (gp.phi - gm.phi))) / (2.0 * h)
        dbeta = np.angle(np.exp(1j * (gp.beta - gm.beta))) / (2.0 * h)
        xi[i] = eta[i] - dbeta
    return mu, eta, xi


def exact_gram(x: np.ndarray):
    """x @ x.T of a float64 (P, N) array, exactly: Python integers g and a
    power of two e with x @ x.T = g * 2**e."""
    mant, expo = np.frexp(x)
    mant = np.ldexp(mant, 53).astype(np.int64)
    expo = expo.astype(np.int64) - 53
    base = int(expo[mant != 0].min())
    shift = np.where(mant != 0, expo - base, 0)
    ints = np.frompyfunc(lambda m, s: int(m) << int(s), 2, 1)(mant, shift)
    return ints @ ints.T, 2 * base


def mp_inverse_gram(stacks, chains=None, dps: int = 40):
    """mpmath inverse, at dps digits, of sum_r C_r X_r X_r^T C_r^T.

    Each Gram X_r X_r^T of a float64 stack is formed exactly and each chain
    matrix C_r (the identity when chains is None) enters exactly, so the
    result is the inverse of the information the float64 rows define, free
    of the rounding of any route that computes it.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        total = None
        for index, x in enumerate(stacks):
            ints, expo = exact_gram(x)
            gram = mpmath.matrix([[mpmath.ldexp(mpmath.mpf(int(v)), expo) for v in row]
                                  for row in ints])
            if chains is not None:
                chain = mpmath.matrix(chains[index].tolist())
                gram = chain * gram * chain.T
            total = gram if total is None else total + gram
        return mpmath.inverse(total)

