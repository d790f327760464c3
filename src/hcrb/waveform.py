"""Chirp waveform, ULA steering vectors, and backscatter synthesis.

The transmit pulse is a unit-energy linear chirp sampled at complex
baseband.  Received frames stack one row per antenna; echoes from the
contour are delayed copies of the chirp weighted by per-segment Rayleigh
gains and the deterministic reflection weights.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from .contour import arclength_params, geometry_at, perimeter, pose_field, reflection_weights
from .errors import ScenarioError
from .scenario import Scenario, SegmentationConfig, WaveformSpec

# Guard samples appended after the last echo so delayed chirps never wrap.
FRAME_GUARD = 8


def chirp(wf: WaveformSpec) -> np.ndarray:
    """Unit-energy baseband chirp sampled on t_n = n/fs - T/2.

    The instantaneous frequency sweeps from -B/2 to +B/2 across the pulse.
    Energy is normalized so that sum(|s|^2)/fs == 1 exactly.
    """
    fs = wf.sample_rate
    n = np.arange(wf.samples)
    t = n / fs - wf.duration / 2.0
    s = np.exp(1j * np.pi * (wf.bandwidth / wf.duration) * t * t)
    s /= np.sqrt(np.sum(np.abs(s) ** 2) / fs)
    return s


@lru_cache(maxsize=32)
def effective_bandwidth(wf: WaveformSpec) -> float:
    """RMS bandwidth of the sampled chirp, in Hz.

    Computed from the discrete spectrum on a 4x zero-padded FFT grid.  The
    spectrum is re-centered on its own center of mass first; a chirp built
    by :func:`chirp` is already centered, so the shift is ~0, but any
    asymmetric waveform would otherwise inflate the second moment.
    """
    s = chirp(wf)
    fs = wf.sample_rate
    nfft = 4 * int(2 ** np.ceil(np.log2(len(s))))
    spec = np.fft.fft(s, nfft)
    psd = np.abs(spec) ** 2
    psd /= psd.sum()
    freq = np.fft.fftfreq(nfft, d=1.0 / fs)
    mean = float(np.sum(psd * freq))
    if abs(mean) > 1e-3 * wf.bandwidth:
        warnings.warn(
            f"spectrum center of mass at {mean:.3e} Hz, re-centering",
            stacklevel=2,
        )
    return float(np.sqrt(np.sum(psd * (freq - mean) ** 2)))


def steering(n_elem: int, phi, centered: bool = False, derivative: bool = False):
    """Half-wavelength ULA steering vector(s) for bearing(s) phi.

    Phase convention: element n carries exp(-j*pi*n*sin(phi)), n = 0..N-1.
    With centered=True the reference moves to the array midpoint, which
    multiplies every element by exp(+j*pi*(N-1)/2*sin(phi)).  The optional
    derivative is taken with respect to phi about the array centroid.

    phi may be a scalar or an array; the element axis comes first, so the
    result has shape (n_elem,) + shape(phi).
    """
    phi = np.asarray(phi, dtype=float)
    n = np.arange(n_elem, dtype=float).reshape((n_elem,) + (1,) * phi.ndim)
    sin_phi = np.sin(phi)
    a = np.exp(-1j * np.pi * n * sin_phi)
    if centered:
        a = a * np.exp(1j * np.pi * (n_elem - 1) / 2.0 * sin_phi)
    if not derivative:
        return a if phi.ndim else a.reshape(n_elem)
    # Differentiating about the array centroid keeps adot orthogonal to a.
    adot = -1j * np.pi * np.cos(phi) * (n - (n_elem - 1) / 2.0) * a
    if phi.ndim:
        return a, adot
    return a.reshape(n_elem), adot.reshape(n_elem)


def steering_matrix(n_elem: int, grid: np.ndarray) -> np.ndarray:
    """Stack steering vectors for a bearing grid into an (N, P) matrix."""
    return steering(n_elem, np.asarray(grid, dtype=float))


@dataclass(frozen=True)
class SignalFrame:
    """One received burst: rows are antennas, columns time samples."""

    samples: np.ndarray  # complex (N, W_total)
    sample_rate: float
    time_offset: float  # time of column 0 relative to the chirp center
    noise_density: float
    seed: int
    truth: dict

    @property
    def n_antennas(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class SynthWorkspace:
    """Precomputed per-scenario synthesis tables, reusable across seeds."""

    scenario: Scenario
    kind: str  # "extended" or "point"
    steer: np.ndarray  # (N, K)
    amps: np.ndarray  # (K,) real deterministic segment amplitudes
    delayed: np.ndarray  # (K, W_total) delayed chirp replicas
    delays: np.ndarray  # (K,) seconds
    n_total: int
    noise_std: float  # per real/imag component, per sample
    truth: dict


def _delayed_chirps(wf: WaveformSpec, delays: np.ndarray, n_total: int) -> np.ndarray:
    """Delay the reference chirp by fractional-sample amounts.

    Uses a frequency-domain phase ramp on the zero-padded pulse; exact for
    the band-limited interpolation of the sampled chirp, and the guard
    padding keeps the circular shift from wrapping.
    """
    ref = np.zeros(n_total, dtype=complex)
    ref[: wf.samples] = chirp(wf)
    spec = np.fft.fft(ref)
    freq = np.fft.fftfreq(n_total, d=1.0 / wf.sample_rate)
    ramp = np.exp(-2j * np.pi * np.outer(delays, freq))
    return np.fft.ifft(spec[None, :] * ramp, axis=1)


def synthesis_workspace(
    scenario: Scenario, seg: SegmentationConfig | None = None
) -> SynthWorkspace:
    """Build the reusable tables for extended-target synthesis.

    The contour is cut into K equal arc-length segments (K from the
    segmentation config and the perimeter); each contributes one echo from
    its midpoint with deterministic amplitude g*sqrt(l_T/K)*w_k.
    """
    if seg is None:
        seg = SegmentationConfig()
    wf = scenario.waveform
    wavelength = SPEED_OF_LIGHT / wf.carrier
    if seg.segment_length < 10.0 * wavelength:
        warnings.warn(
            "segment length is within 10 wavelengths; independent-scatterer "
            "synthesis is dubious at this resolution",
            stacklevel=2,
        )
    total = perimeter(scenario.contour, scenario.quadrature)
    k = seg.count(total)
    if k < 8:
        raise ScenarioError(
            f"only {k} segments on a {total:.2f} m contour; need at least 8"
        )
    mids = (np.arange(k) + 0.5) / k
    u_k = arclength_params(scenario.contour, mids)
    geo = geometry_at(scenario.contour, scenario.pose, u_k)
    weights = reflection_weights(geo, scenario.alpha)

    # Continuous-contour weight norm fixes g in fixed-energy mode.
    w_norm_sq = pose_field(scenario).w_norm_sq
    gain = scenario.gain_g(w_norm_sq)
    amps = gain * np.sqrt(total / k) * weights.w

    delays = 2.0 * geo.d / SPEED_OF_LIGHT
    n_total = wf.samples + int(np.ceil(delays.max() * wf.sample_rate)) + FRAME_GUARD
    delayed = _delayed_chirps(wf, delays, n_total)
    steer = steering(scenario.array_n, geo.phi)
    noise_std = np.sqrt(scenario.energy.n0 * wf.sample_rate / 2.0)
    truth = {
        "kind": "extended",
        "d": scenario.pose.d,
        "phi": scenario.pose.phi,
        "heading": scenario.pose.heading,
        "segments": k,
    }
    return SynthWorkspace(
        scenario=scenario,
        kind="extended",
        steer=steer,
        amps=amps,
        delayed=delayed,
        delays=delays,
        n_total=n_total,
        noise_std=noise_std,
        truth=truth,
    )


def point_workspace(scenario: Scenario) -> SynthWorkspace:
    """Synthesis tables for a point target at the contour's reference pose."""
    wf = scenario.waveform
    if scenario.energy.mode == "fixed_E_over_N0":
        energy = 10.0 ** (scenario.energy.e_over_n0_db / 10.0) * scenario.energy.n0
    else:
        energy = scenario.gain_g(1.0) ** 2 * scenario.array_n
    amp = np.sqrt(energy / scenario.array_n)
    delay = 2.0 * scenario.pose.d / SPEED_OF_LIGHT
    n_total = wf.samples + int(np.ceil(delay * wf.sample_rate)) + FRAME_GUARD
    delayed = _delayed_chirps(wf, np.array([delay]), n_total)
    steer = steering(scenario.array_n, scenario.pose.phi).reshape(-1, 1)
    noise_std = np.sqrt(scenario.energy.n0 * wf.sample_rate / 2.0)
    truth = {
        "kind": "point",
        "d": scenario.pose.d,
        "phi": scenario.pose.phi,
        "heading": scenario.pose.heading,
    }
    return SynthWorkspace(
        scenario=scenario,
        kind="point",
        steer=steer,
        amps=np.array([amp]),
        delayed=delayed,
        delays=np.array([delay]),
        n_total=n_total,
        noise_std=noise_std,
        truth=truth,
    )


def synthesize_frame(workspace: SynthWorkspace, seed: int) -> SignalFrame:
    """Draw scatterer gains and noise, return the received frame.

    Extended targets use iid CN(0,1) segment gains; the point target keeps
    unit amplitude with a uniform random phase so its echo energy is exactly
    the configured E on every draw.
    """
    rng = np.random.default_rng(seed)
    k = len(workspace.amps)
    if workspace.kind == "extended":
        h = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    else:
        h = np.exp(2j * np.pi * rng.uniform(size=k))
    coeff = workspace.amps * h
    samples = (workspace.steer * coeff) @ workspace.delayed
    # clean + noise_std * (re + 1j * im), added in place in the order drawn
    samples.real += workspace.noise_std * rng.standard_normal(samples.shape)
    samples.imag += workspace.noise_std * rng.standard_normal(samples.shape)
    wf = workspace.scenario.waveform
    return SignalFrame(
        samples=samples,
        sample_rate=wf.sample_rate,
        time_offset=-wf.duration / 2.0,
        noise_density=workspace.scenario.energy.n0,
        seed=seed,
        truth=dict(workspace.truth),
    )


def synthesize(
    scenario: Scenario,
    seed: int,
    seg: SegmentationConfig | None = None,
    workspace: SynthWorkspace | None = None,
) -> SignalFrame:
    """Extended-target received frame for one noise/scatterer draw."""
    if workspace is None:
        workspace = synthesis_workspace(scenario, seg)
    return synthesize_frame(workspace, seed)


def synthesize_point(
    scenario: Scenario, seed: int, workspace: SynthWorkspace | None = None
) -> SignalFrame:
    """Point-target frame with the same energy accounting as the bound."""
    if workspace is None:
        workspace = point_workspace(scenario)
    return synthesize_frame(workspace, seed)


def dump_frame(frame: SignalFrame, path: str | Path) -> Path:
    """Write samples as little-endian interleaved complex64 plus a sidecar.

    Row-major antenna-by-antenna layout; the .json sidecar records shape,
    rates, seed and ground truth so the dump is self-describing.
    """
    path = Path(path)
    data = np.ascontiguousarray(frame.samples.astype("<c8"))
    path.write_bytes(data.tobytes())
    sidecar = {
        "dtype": "complex64-interleaved-le",
        "shape": list(frame.samples.shape),
        "sample_rate": frame.sample_rate,
        "time_offset": frame.time_offset,
        "noise_density": frame.noise_density,
        "seed": frame.seed,
        "truth": {
            key: (float(val) if isinstance(val, (int, float, np.floating)) else val)
            for key, val in frame.truth.items()
        },
    }
    meta = path.with_suffix(path.suffix + ".json")
    meta.write_text(json.dumps(sidecar, indent=2) + "\n")
    return meta
