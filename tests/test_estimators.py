"""Matched-filter baseline: beamscan direction, de-chirp range."""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from conftest import small_waveform

from hcrb import estimators
from hcrb._pool import THREADS_ENV
from hcrb.contour import ContourParams, TargetPose
from hcrb.estimators import estimate, estimate_direction, estimate_range
from hcrb.fisher import point_target_crb
from hcrb.scenario import EnergySpec, Scenario, WaveformSpec
from hcrb.waveform import (
    SignalFrame,
    chirp,
    point_workspace,
    steering,
    synthesis_workspace,
    synthesize_frame,
)

CIRCLE = ContourParams(np.array([2.0]), np.array([2.0]))


def _point_scenario(d, phi, energy, waveform, array_n=30):
    return Scenario(
        contour=CIRCLE,
        pose=TargetPose(d, phi, 0.0),
        alpha=5.0,
        array_n=array_n,
        waveform=waveform,
        energy=energy,
    )


def test_noiseless_point_estimates_are_sharp():
    """A clean single return lands within a quarter range bin and one
    direction grid step of the truth."""
    sc = _point_scenario(
        30.0, 0.2, EnergySpec(gain=1.0, n0=1e-30),
        WaveformSpec(bandwidth=1e9, duration=1e-5),
    )
    frame = synthesize_frame(point_workspace(sc), 0)
    result = estimate(frame, sc.waveform)
    assert result.confident
    assert abs(result.d - 30.0) < 0.0375  # c/(2B)/4
    assert abs(result.phi - 0.2) < np.pi / 2048.0


def test_pure_noise_sets_low_confidence():
    sc = _point_scenario(10.0, 0.0, EnergySpec(gain=0.0, n0=1.0),
                         small_waveform())
    frame = synthesize_frame(point_workspace(sc), 42)
    result = estimate(frame, sc.waveform)
    assert not result.direction.confident
    assert not result.confident


def test_dc_peak_maps_to_zero_range():
    wf = small_waveform()
    ref = chirp(wf)
    frame = SignalFrame(
        samples=np.tile(ref, (8, 1)),
        sample_rate=wf.sample_rate,
        time_offset=-wf.duration / 2.0,
        noise_density=1.0,
        seed=0,
        truth={},
    )
    result = estimate_range(frame, wf, 0.0)
    assert result.d == 0.0


def test_direction_stays_in_unambiguous_sector():
    sc = _point_scenario(10.0, 0.0, EnergySpec(gain=0.0, n0=1.0),
                         small_waveform())
    for seed in range(4):
        frame = synthesize_frame(point_workspace(sc), seed)
        est = estimate_direction(frame, sc.waveform)
        assert -np.pi / 2.0 < est.phi < np.pi / 2.0


def test_reference_chirp_is_built_once_per_waveform(monkeypatch):
    wf = small_waveform()
    sc = _point_scenario(10.0, 0.1, EnergySpec(e_over_n0_db=40.0), wf)
    calls = []

    def counting_chirp(waveform):
        calls.append(waveform)
        return chirp(waveform)

    monkeypatch.setattr(estimators, "chirp", counting_chirp)
    estimators._reference_conj.cache_clear()
    first_frame = synthesize_frame(point_workspace(sc), 0)
    first = estimate(first_frame, wf)
    second = estimate(synthesize_frame(point_workspace(sc), 1), wf)
    assert calls == [wf]
    ref = estimators._reference_conj(wf, first_frame.n_samples)
    assert not ref.flags.writeable
    assert np.array_equal(ref[: wf.samples], chirp(wf).conj())
    assert not ref[wf.samples:].any()
    assert first.confident and second.confident


def test_scan_grid_is_read_only_and_conjugated():
    grid, steer_h = estimators._scan_grid(12)
    assert not grid.flags.writeable and not steer_h.flags.writeable
    assert steer_h.shape == (estimators.SCAN_POINTS, 12)
    assert np.array_equal(steer_h, steering(12, grid).conj().T)
    assert estimators._scan_grid(12)[1] is steer_h


def _stacked_direction(frame, wf):
    """The direction stage on the stacked transform of every row, with the
    snapshot read off the spectra and the products done by @."""
    y = frame.samples
    ref = np.zeros(y.shape[1], dtype=complex)
    ref[: wf.samples] = chirp(wf).conj()
    nfft = 2 * int(2 ** np.ceil(np.log2(y.shape[1])))
    spectra = np.fft.fft(ref * y, nfft, axis=1)
    profile = np.sum(np.abs(spectra) ** 2, axis=0)
    bin_ = int(np.argmax(profile))
    snapshot = spectra[:, bin_]
    grid = np.linspace(-np.pi / 2.0, np.pi / 2.0, estimators.SCAN_POINTS + 2)[1:-1]
    peak = int(np.argmax(np.abs(steering(y.shape[0], grid).conj().T @ snapshot)))
    res = minimize_scalar(
        lambda phi: -abs(steering(y.shape[0], phi).conj() @ snapshot) ** 2,
        bounds=(grid[max(peak - 1, 0)], grid[min(peak + 1, grid.size - 1)]),
        method="bounded", options={"xatol": 1e-10})
    return ref, nfft, profile, profile[bin_] / np.median(profile), res.x


@pytest.mark.parametrize("kind", ("extended", "point"))
def test_direction_matches_the_stacked_transform(kind, bundle):
    """The row-by-row profile is the stacked one bit for bit, so the bin and
    the peak-to-median ratio are the same; the directly computed snapshot
    moves the bearing by rounding only."""
    if kind == "extended":
        sc = bundle.scenario
        workspace = synthesis_workspace(sc, bundle.segmentation)
    else:
        sc = _point_scenario(25.0, -0.3, EnergySpec(e_over_n0_db=30.0),
                             small_waveform())
        workspace = point_workspace(sc)
    frame = synthesize_frame(workspace, 17)
    ref, nfft, profile, ratio, phi = _stacked_direction(frame, sc.waveform)
    assert np.array_equal(
        estimators._dechirped_profile(frame.samples, ref, nfft), profile)
    est = estimate_direction(frame, sc.waveform)
    assert est.peak_to_median == ratio
    assert est.confident
    assert abs(est.phi - phi) < 1e-9


@pytest.mark.parametrize("kind", ("extended", "point"))
def test_the_same_bits_at_any_worker_count(kind, bundle, monkeypatch):
    """Frames, profiles and estimates do not depend on how many workers
    share a frame. At 3 workers the bins split unevenly; at 4 the last
    block of the 30 rows is short. Threads switch every microsecond, so a
    lost or reordered update between workers would show."""
    if kind == "extended":
        sc = bundle.scenario
        workspace = synthesis_workspace(sc, bundle.segmentation)
    else:
        sc = _point_scenario(25.0, -0.3, EnergySpec(e_over_n0_db=30.0),
                             small_waveform())
        workspace = point_workspace(sc)
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in ("1", "2", "3", "4"):
            monkeypatch.setenv(THREADS_ENV, threads)
            frame = synthesize_frame(workspace, 17)
            ref, nfft, profile, _, _ = _stacked_direction(frame, sc.waveform)
            assert np.array_equal(
                estimators._dechirped_profile(frame.samples, ref, nfft), profile)
            seen.append((frame.samples, estimate(frame, sc.waveform)))
    finally:
        sys.setswitchinterval(interval)
    for samples, result in seen[1:]:
        assert np.array_equal(samples, seen[0][0])
        assert result == seen[0][1]


@pytest.mark.parametrize("kind", ("extended", "point"))
def test_one_partition_median_is_numpys(kind, bundle, monkeypatch):
    """The peak-to-median ratios divide by np.median's value bit for bit:
    on the direction profile and the range spectrum of a frame, on an odd
    length, on ties, and with a NaN present (NaN, as in np.median)."""
    if kind == "extended":
        sc = bundle.scenario
        workspace = synthesis_workspace(sc, bundle.segmentation)
    else:
        sc = _point_scenario(25.0, -0.3, EnergySpec(e_over_n0_db=30.0),
                             small_waveform())
        workspace = point_workspace(sc)
    seen = []
    median = estimators._median
    monkeypatch.setattr(estimators, "_median",
                        lambda values: seen.append(values.copy()) or median(values))
    estimate(synthesize_frame(workspace, 17), sc.waveform)
    assert len(seen) == 2
    profile, spectrum = seen
    with_nan = spectrum.copy()
    with_nan[123] = np.nan
    ties = np.round(profile / profile.max(), 3)
    assert np.unique(ties).size < ties.size // 4
    for values in (profile, spectrum, spectrum[:-1], ties, with_nan):
        assert np.asarray(median(values)).tobytes() == np.median(values).tobytes()
    assert np.isnan(median(with_nan))


def test_point_estimator_is_unbiased_and_efficient():
    """At 40 dB the matched filter tracks the CRB within 3 dB and its mean
    error stays below a tenth of the CRB standard deviation."""
    wf = WaveformSpec(bandwidth=1e8, duration=2e-6, sample_rate=2e8)
    sc = _point_scenario(30.0, 0.2, EnergySpec(e_over_n0_db=40.0), wf)
    crb = point_target_crb(sc)
    sigma_d = np.sqrt(crb[0, 0])
    sigma_phi = np.sqrt(crb[1, 1])

    d_hat, phi_hat = [], []
    for seed in range(300):
        frame = synthesize_frame(point_workspace(sc), seed)
        result = estimate(frame, sc.waveform)
        assert result.confident
        d_hat.append(result.d)
        phi_hat.append(result.phi)
    d_err = np.array(d_hat) - 30.0
    phi_err = np.array(phi_hat) - 0.2

    assert abs(d_err.mean()) < 0.1 * sigma_d
    assert abs(phi_err.mean()) < 0.1 * sigma_phi
    assert 0.5 < d_err.var() / crb[0, 0] < 2.0
    assert 0.5 < phi_err.var() / crb[1, 1] < 2.0


def _scipy_polish(func, lo, hi, xatol):
    return minimize_scalar(func, bounds=(lo, hi), method="bounded",
                           options={"xatol": xatol}).x


def _polish_trace(polish, func, lo, hi, xatol):
    """The bits of the point polish returns and of every point it asks func
    for, in order; or the ValueError it raises."""
    points = []

    def recorded(x):
        points.append(np.float64(x).tobytes())
        return func(x)

    try:
        x = polish(recorded, lo, hi, xatol)
    except ValueError as err:
        return str(err), points
    return np.float64(x).tobytes(), points


def _assert_polishes_agree(func, lo, hi, xatol, polish=estimators._bounded_minimum):
    ours = _polish_trace(polish, func, lo, hi, xatol)
    theirs = _polish_trace(_scipy_polish, func, lo, hi, xatol)
    assert ours == theirs
    return ours


_FINITE = {"allow_nan": False, "allow_infinity": False}
intervals = st.tuples(st.floats(-1e3, 1e3, **_FINITE),
                      st.floats(0.0, 1e3, **_FINITE)).map(lambda t: (t[0], t[0] + t[1]))
tolerances = st.sampled_from([1e-12, 1e-10, 1e-7, 1e-5, 1e-2])


@given(intervals, st.floats(-2e3, 2e3, **_FINITE), st.integers(1, 3), tolerances)
def test_polish_is_scipys_on_single_minima(interval, centre, power, xatol):
    """Smooth single-minimum functions, the minimum inside the interval or
    beyond either bound: the same points asked for, the same x returned,
    bit for bit, as scipy's bounded minimize_scalar."""
    _assert_polishes_agree(lambda x: (x - centre) ** (2 * power), *interval, xatol)


@given(intervals, st.floats(0.01, 50.0, **_FINITE), st.floats(-1.0, 1.0, **_FINITE),
       tolerances)
def test_polish_is_scipys_on_several_minima(interval, freq, slope, xatol):
    _assert_polishes_agree(lambda x: np.cos(freq * x) + slope * x, *interval, xatol)


@given(intervals, tolerances)
def test_polish_is_scipys_on_flat_and_monotone_functions(interval, xatol):
    """A constant, and minima at the lower and the upper bound."""
    for func in (lambda x: 1.0, lambda x: x, lambda x: -x, lambda x: np.tanh(-x)):
        _assert_polishes_agree(func, *interval, xatol)


@given(intervals, st.floats(-1e3, 1e3, **_FINITE), tolerances)
def test_polish_is_scipys_where_the_function_is_nan(interval, edge, xatol):
    """NaN beyond a point, and NaN everywhere: the comparisons that NaN
    fails steer both the same way."""
    _assert_polishes_agree(lambda x: np.nan if x > edge else (x - edge) ** 2, *interval, xatol)
    _assert_polishes_agree(lambda x: np.nan, *interval, xatol)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_polish_is_scipys_where_its_arithmetic_overflows():
    """Bounds whose width or midpoint overflow put inf and NaN into the
    steps: some runs end at once, others at the 500-call limit. scipy's
    numpy scalars warn there (hence the filters); the polish's floats do
    not."""
    calls = set()
    for interval in ((-1.5e308, 1.5e308), (0.0, 1.7e308), (-1.7e308, -1.6e308),
                     (0.0, 5e-324)):
        for func in (lambda x: 1.0, abs, lambda x: -x, lambda x: np.nan):
            calls.add(len(_assert_polishes_agree(func, *interval, 1e-5)[1]))
    assert {1, estimators._POLISH_MAXITER} <= calls


def test_polish_sign_and_maximum_are_numpys():
    """The polish's two scalar helpers give np.sign(v) + (v == 0) and
    np.maximum's value, NaN included, on the values its steps can meet."""
    values = (-np.inf, -1.5, -0.0, 0.0, 5e-324, 2.0, np.inf, np.nan)
    for v in values:
        want = np.sign(v) + (v == 0)
        assert np.float64(estimators._sign_or_one(v)).tobytes() == want.tobytes(), v
        for w in values:
            want = np.maximum(v, w)
            got = np.float64(estimators._nan_max(v, w))
            assert got.tobytes() == want.tobytes(), (v, w)


def test_polish_refuses_the_bounds_scipy_refuses():
    for lo, hi in ((np.nan, 1.0), (0.0, np.inf), (2.0, 1.0)):
        message, points = _assert_polishes_agree(lambda x: x, lo, hi, 1e-5)
        assert isinstance(message, str) and points == []


@pytest.mark.parametrize("kind", ("extended", "point"))
def test_frame_polishes_are_scipys(kind, bundle, monkeypatch):
    """On seeded frames, both stages' polishes (bearing, then range) ask for
    the same points and return the same bits as scipy's."""
    if kind == "extended":
        sc = bundle.scenario
        workspace = synthesis_workspace(sc, bundle.segmentation)
    else:
        sc = _point_scenario(25.0, -0.3, EnergySpec(e_over_n0_db=30.0),
                             small_waveform())
        workspace = point_workspace(sc)
    polish = estimators._bounded_minimum
    seen = []

    def refereed(func, lo, hi, xatol):
        seen.append(_assert_polishes_agree(func, lo, hi, xatol, polish))
        return polish(func, lo, hi, xatol)

    monkeypatch.setattr(estimators, "_bounded_minimum", refereed)
    for seed in range(3):
        estimate(synthesize_frame(workspace, seed), sc.waveform)
    assert len(seen) == 6
    assert all(len(points) > 5 for _, points in seen)
