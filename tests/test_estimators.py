"""Matched-filter baseline: beamscan direction, de-chirp range."""

import numpy as np
import pytest

from conftest import small_waveform

from hcrb import estimators
from hcrb.contour import ContourParams, TargetPose
from hcrb.estimators import estimate, estimate_direction, estimate_range
from hcrb.fisher import point_target_crb
from hcrb.scenario import EnergySpec, Scenario, WaveformSpec
from hcrb.waveform import SignalFrame, chirp, synthesize_point

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
    frame = synthesize_point(sc, seed=0)
    result = estimate(frame, sc.waveform)
    assert result.confident
    assert abs(result.d - 30.0) < 0.0375  # c/(2B)/4
    assert abs(result.phi - 0.2) < np.pi / 2048.0


def test_pure_noise_sets_low_confidence():
    sc = _point_scenario(10.0, 0.0, EnergySpec(gain=0.0, n0=1.0),
                         small_waveform())
    frame = synthesize_point(sc, seed=42)
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
        frame = synthesize_point(sc, seed=seed)
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
    estimators._conj_pulse.cache_clear()
    first = estimate(synthesize_point(sc, seed=0), wf)
    second = estimate(synthesize_point(sc, seed=1), wf)
    assert calls == [wf]
    pulse = estimators._conj_pulse(wf)
    assert not pulse.flags.writeable
    assert np.array_equal(pulse, chirp(wf).conj())
    assert first.confident and second.confident


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
        frame = synthesize_point(sc, seed=seed)
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
