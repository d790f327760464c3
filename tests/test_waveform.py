"""Chirp, steering, and backscatter synthesis."""

import json
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.stats import chi2

from conftest import small_waveform

import hcrb.contour
from hcrb._pool import THREADS_ENV, openblas_libraries
from hcrb.asymptotics import t_blocks
from hcrb.contour import (
    ContourParams,
    TargetPose,
    arclength_params,
    geometry_at,
    geometry_table,
    perimeter,
    pose_field,
    reflection_weights,
)
from hcrb.errors import ScenarioError
from hcrb.fisher import efim_exact, radar_constants
from hcrb.scenario import EnergySpec, Scenario, SegmentationConfig, WaveformSpec
from hcrb.starcalc import SampledField, star_norm_sq
from hcrb.waveform import (
    _delayed_chirps,
    chirp,
    dump_frame,
    effective_bandwidth,
    point_workspace,
    steering,
    synthesis_workspace,
    synthesize_frame,
)


def test_chirp_unit_energy():
    wf = WaveformSpec(bandwidth=1e9, duration=1e-5, sample_rate=2e9)
    s = chirp(wf)
    assert np.sum(np.abs(s) ** 2) / wf.sample_rate == pytest.approx(1.0, abs=1e-9)


def test_chirp_sweeps_full_band():
    wf = small_waveform()
    s = chirp(wf)
    freq = np.diff(np.unwrap(np.angle(s))) * wf.sample_rate / (2.0 * np.pi)
    assert freq[0] == pytest.approx(-wf.bandwidth / 2.0, rel=2e-2)
    assert freq[-1] == pytest.approx(wf.bandwidth / 2.0, rel=2e-2)
    assert np.all(np.diff(freq) > 0.0)  # linear up-sweep


def test_rms_bandwidth_rect_approximation():
    wf = WaveformSpec(bandwidth=1e9, duration=1e-5)
    b_rms = effective_bandwidth(wf)
    assert b_rms == pytest.approx(1e9 / np.sqrt(12.0), rel=0.02)


def test_rms_bandwidth_dilation():
    one = effective_bandwidth(WaveformSpec(bandwidth=5e8, duration=1e-5))
    two = effective_bandwidth(WaveformSpec(bandwidth=1e9, duration=1e-5))
    assert two / one == pytest.approx(2.0, rel=1e-3)


def test_rms_bandwidth_of_a_short_chirp_warns_nothing():
    """Below 500 samples the chirp's center of mass, -B/(2N), exceeds 1e-3 B;
    re-centering it is routine, not a reason to warn."""
    effective_bandwidth.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        effective_bandwidth(WaveformSpec(1e8, 2e-6))


def test_waveform_spec_guards():
    with pytest.raises(ScenarioError):
        WaveformSpec(bandwidth=1e9, duration=1e-5, sample_rate=1e9)
    assert WaveformSpec(bandwidth=1e9, duration=1e-5).sample_rate == 2e9
    with pytest.warns(UserWarning):
        WaveformSpec(bandwidth=1e6, duration=1e-6)  # tiny time-bandwidth product


def test_steering_identities():
    n = 30
    npt.assert_allclose(steering(n, 0.0), np.ones(n))
    a = steering(n, 0.7)
    assert a[0] == pytest.approx(1.0)  # first-element phase reference
    assert np.sum(np.abs(a) ** 2) == pytest.approx(n)


def test_steering_curvature_is_the_bounds_array_constant():
    """||d a_c / d phi||^2 = N M cos^2(phi), with a_c the steering vector
    referenced to the array centre and M from radar_constants: the bounds'
    array constant belongs to the array the frames are synthesized with."""
    sc = _extended_scenario(EnergySpec(e_over_n0_db=40.0))
    n, h = sc.array_n, 1e-6
    _, big_m, _ = radar_constants(sc)

    def centred(bearing):
        return steering(n, bearing) * np.exp(1j * np.pi * (n - 1) / 2.0 * np.sin(bearing))

    for phi in (sc.pose.phi, -0.4, 1.2):
        adot = (centred(phi + h) - centred(phi - h)) / (2.0 * h)
        expected = n * big_m * np.cos(phi) ** 2
        assert np.sum(np.abs(adot) ** 2) == pytest.approx(expected, rel=1e-7)


def test_steering_matched_peak():
    n = 16
    grid = np.linspace(-1.2, 1.2, 241)
    mat = steering(n, grid)
    assert mat.shape == (n, 241)
    response = np.abs(mat.conj().T @ steering(n, grid[170]))
    assert np.argmax(response) == 170


def _extended_scenario(energy, alpha=5.0):
    contour = ContourParams(
        np.array([2.05, -0.02, 0.17, 0.05, -0.03, -0.01, -0.02, 0.03, -0.01, -0.01]),
        np.array([1.12, 0.005, 0.24, -0.01, 0.05, 0.01, -0.01, -0.02, -0.02, 0.014]),
    )
    return Scenario(
        contour=contour,
        pose=TargetPose(6.708203932499369, 0.4636476090008061, np.pi / 2.0),
        alpha=alpha,
        array_n=30,
        waveform=small_waveform(),
        energy=energy,
    )


def test_synthesis_is_seed_deterministic():
    sc = _extended_scenario(EnergySpec(e_over_n0_db=40.0))
    ws = synthesis_workspace(sc)
    a = synthesize_frame(ws, 7)
    b = synthesize_frame(synthesis_workspace(sc), 7)
    assert np.array_equal(a.samples, b.samples)
    c = synthesize_frame(ws, 8)
    assert not np.array_equal(a.samples, c.samples)
    assert a.samples.shape[0] == 30
    assert a.sample_rate == sc.waveform.sample_rate
    assert a.time_offset == pytest.approx(-sc.waveform.duration / 2.0)


@pytest.mark.parametrize("kind", ("extended", "point"))
def test_frame_equals_clean_plus_noise_from_the_same_draws(kind):
    """The frame is bit-identical to clean + noise_std * (re + 1j * im) with
    the gains, then the real and the imaginary noise drawn in that order."""
    sc = _extended_scenario(EnergySpec(e_over_n0_db=40.0))
    ws = synthesis_workspace(sc) if kind == "extended" else point_workspace(sc)
    seed = 1234
    rng = np.random.default_rng(seed)
    k = len(ws.amps)
    if kind == "extended":
        h = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    else:
        h = np.exp(2j * np.pi * rng.uniform(size=k))
    clean = (ws.steer * (ws.amps * h)) @ ws.delayed
    shape = clean.shape
    noise = ws.noise_std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert np.array_equal(synthesize_frame(ws, seed).samples, clean + noise)


def test_zero_gain_frame_is_calibrated_noise(scenario):
    quiet = replace(scenario, energy=EnergySpec(gain=0.0, n0=2.5e-10))
    ws = synthesis_workspace(quiet)
    samples = np.concatenate(
        [synthesize_frame(ws, s).samples.ravel() for s in (0, 1)]
    )
    assert samples.size >= 1_000_000
    level = np.mean(np.abs(samples) ** 2)
    expected = 2.5e-10 * scenario.waveform.sample_rate
    assert level == pytest.approx(expected, rel=0.03)


def test_mean_frame_energy_matches_closed_form():
    sc = _extended_scenario(EnergySpec(gain=1.0, n0=1e-30))
    workspace = synthesis_workspace(sc)
    energies = [
        np.sum(np.abs(synthesize_frame(workspace, seed).samples) ** 2)
        / sc.waveform.sample_rate
        for seed in range(500)
    ]
    expected = sc.received_energy(pose_field(sc).w_norm_sq)
    assert np.mean(energies) == pytest.approx(expected, rel=0.05)


def test_scenario_builds_its_lit_arc_once(monkeypatch):
    """The exact bound, the long-range bound and the synthesis energy norm
    read one lit arc per scenario; a moved scenario builds its own, and the
    contour it is built from cannot change under it."""
    poses = []
    original = hcrb.contour.geometry_table

    def counted(*args, **kwargs):
        poses.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(hcrb.contour, "geometry_table", counted)
    sc = _extended_scenario(EnergySpec(e_over_n0_db=40.0))
    efim_exact(sc)
    t_blocks(sc)
    synthesis_workspace(sc, SegmentationConfig())
    assert poses == [sc.pose]
    moved = sc.with_pose(TargetPose(10.0, 0.3, 1.0))
    assert moved.lit_arc is not sc.lit_arc
    assert poses == [sc.pose, moved.pose]

    m, n = np.array([2.0, 0.1]), np.array([1.0, 0.05])
    contour = ContourParams(m, n)
    m[0] = n[0] = 5.0
    assert (contour.m[0], contour.n[0]) == (2.0, 1.0)
    assert not (contour.m.flags.writeable or contour.n.flags.writeable)
    with pytest.raises(ValueError):
        contour.m[0] = 3.0


def test_delayed_chirps_equal_the_plain_phase_ramp(monkeypatch):
    """The in-place ramp and scipy's overwriting inverse FFT give the bits of
    the textbook expression, in one row block or in one block per worker."""
    wf = small_waveform()
    n_total = wf.samples + 37
    delays = np.array([1.3e-8, 5.07e-8, 2.2e-7])
    ref = np.zeros(n_total, dtype=complex)
    ref[: wf.samples] = chirp(wf)
    spec = np.fft.fft(ref)
    freq = np.fft.fftfreq(n_total, d=1.0 / wf.sample_rate)
    expected = np.fft.ifft(
        spec[None, :] * np.exp(-2j * np.pi * np.outer(delays, freq)), axis=1)
    for workers in ("1", "2", "3"):
        monkeypatch.setenv(THREADS_ENV, workers)
        assert np.array_equal(_delayed_chirps(wf, delays, n_total), expected), workers


@pytest.mark.parametrize("kind", ("extended", "point"))
def test_workspace_tables_are_read_only(kind):
    """The trial threads share the tables; frames are the same as from
    writable copies of them."""
    sc = _extended_scenario(EnergySpec(e_over_n0_db=40.0))
    ws = synthesis_workspace(sc) if kind == "extended" else point_workspace(sc)
    names = ("steer", "amps", "delayed", "delays")
    assert not any(getattr(ws, name).flags.writeable for name in names)
    with pytest.raises(ValueError):
        ws.delayed[0, 0] = 0.0
    writable = replace(ws, **{name: getattr(ws, name).copy() for name in names})
    assert np.array_equal(synthesize_frame(ws, 5).samples,
                          synthesize_frame(writable, 5).samples)


def test_extended_frame_is_the_same_at_any_blas_thread_count(scenario):
    # the vehicle's (30, K) x (K, W) GEMM is large enough to be split
    libraries = openblas_libraries()
    if not libraries:
        pytest.skip("no OpenBLAS found in this process")
    ws = synthesis_workspace(scenario)
    original = [get() for get, _ in libraries]
    frames = []
    try:
        for threads in (1, 2):
            for _, put in libraries:
                put(threads)
            frames.append(synthesize_frame(ws, 11).samples)
    finally:
        for (_, put), count in zip(libraries, original):
            put(count)
    assert np.array_equal(frames[0], frames[1])


def test_single_return_delay_lands_on_the_right_sample():
    wf = small_waveform()
    sc = Scenario(
        contour=ContourParams(np.array([2.0]), np.array([2.0])),
        pose=TargetPose(30.0, 0.2, 0.0),
        alpha=5.0,
        array_n=8,
        waveform=wf,
        energy=EnergySpec(gain=1.0, n0=1e-30),
    )
    frame = synthesize_frame(point_workspace(sc), 3)
    lags = np.abs(np.correlate(frame.samples[0], chirp(wf), mode="full"))
    lag = np.argmax(lags) - (wf.samples - 1)
    expected = 2.0 * 30.0 / SPEED_OF_LIGHT * wf.sample_rate
    assert abs(lag - expected) <= 1.0


def test_segmentation_guards():
    sc = _extended_scenario(EnergySpec(e_over_n0_db=40.0))
    with pytest.raises(ScenarioError):
        synthesis_workspace(sc, SegmentationConfig(segment_length=2.0))
    with pytest.warns(UserWarning):
        synthesis_workspace(sc, SegmentationConfig(segment_length=0.03))


def test_dump_frame_roundtrip(tmp_path):
    sc = _extended_scenario(EnergySpec(e_over_n0_db=40.0))
    frame = synthesize_frame(synthesis_workspace(sc), 11)
    raw_path = tmp_path / "frame.c64"
    sidecar_path = dump_frame(frame, raw_path)
    assert sidecar_path == tmp_path / "frame.c64.json"
    sidecar = json.loads(sidecar_path.read_text())
    assert sidecar["dtype"] == "complex64-interleaved-le"
    assert sidecar["shape"] == [frame.samples.shape[0], frame.n_samples]
    assert sidecar["seed"] == 11
    assert sidecar["truth"]["kind"] == "extended"
    raw = np.fromfile(raw_path, dtype="<f4").reshape(-1, 2)
    data = (raw[:, 0] + 1j * raw[:, 1]).reshape(frame.samples.shape)
    npt.assert_array_equal(data, frame.samples.astype(np.complex64))


def _origin_shifted_workspace(sc, seg, shift):
    """Rebuild the synthesis tables with segment midpoints moved by a
    fraction of a segment along the contour."""
    base = synthesis_workspace(sc, seg)
    total = perimeter(sc.contour, sc.quadrature)
    k = seg.count(total)
    mids = np.sort(((np.arange(k) + 0.5 + shift) % k) / k)
    u_k = arclength_params(sc.contour, mids)
    geo = geometry_at(sc.contour, sc.pose, u_k)
    weights = reflection_weights(geo, sc.alpha)
    table = geometry_table(sc.contour, sc.pose, sc.quadrature)
    w2 = star_norm_sq(
        SampledField(reflection_weights(table, sc.alpha).w, table.arc, table.du)
    )
    amps = sc.gain_g(w2) * np.sqrt(total / k) * weights.w
    delays = 2.0 * geo.d / SPEED_OF_LIGHT
    return replace(
        base,
        amps=amps,
        delays=delays,
        delayed=_delayed_chirps(sc.waveform, delays, base.n_total),
        steer=steering(sc.array_n, geo.phi),
    )


def test_partition_origin_does_not_shift_energy_distribution():
    """Frame energies from half-segment-shifted partitions share one
    distribution (two-sample chi-squared on binned energies, 5% level)."""
    sc = _extended_scenario(EnergySpec(e_over_n0_db=40.0))
    seg = SegmentationConfig()
    ws_a = synthesis_workspace(sc, seg)
    ws_b = _origin_shifted_workspace(sc, seg, shift=0.5)

    def energies(ws, seed0, count=150):
        return np.array([
            np.sum(np.abs(synthesize_frame(ws, seed0 + i).samples) ** 2)
            for i in range(count)
        ])

    ea = energies(ws_a, 0)
    eb = energies(ws_b, 10_000)
    edges = np.quantile(np.concatenate([ea, eb]), np.linspace(0.0, 1.0, 7))
    edges[0] -= 1.0
    edges[-1] += 1.0
    ha, _ = np.histogram(ea, edges)
    hb, _ = np.histogram(eb, edges)
    stat = np.sum((ha - hb) ** 2 / (ha + hb))
    assert chi2.sf(stat, df=len(ha) - 1) > 0.05


def test_point_workspace_energy(scenario):
    ws = point_workspace(scenario)
    # one return, unit-variance h: expected energy is E = amp^2 * N
    expected = ws.amps[0] ** 2 * scenario.array_n
    assert expected == pytest.approx(1e4, rel=1e-12)
    assert ws.delays[0] == pytest.approx(2.0 * scenario.pose.d / SPEED_OF_LIGHT)
