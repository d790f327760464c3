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
import scipy.fft
from scipy.constants import c as SPEED_OF_LIGHT

from ._pool import map_items, map_workers
from .contour import arclength_params, geometry_at, perimeter, reflection_weights
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
    spectrum is re-centered on its own center of mass first, or any offset
    would inflate the second moment.  A chirp built by :func:`chirp` sits on
    the half-open grid t_n = n/fs - T/2, so its center of mass is -B/(2N)
    for N samples, not 0.
    """
    s = chirp(wf)
    fs = wf.sample_rate
    nfft = 4 * int(2 ** np.ceil(np.log2(len(s))))
    spec = np.fft.fft(s, nfft)
    psd = np.abs(spec) ** 2
    psd /= psd.sum()
    freq = np.fft.fftfreq(nfft, d=1.0 / fs)
    mean = float(np.sum(psd * freq))
    return float(np.sqrt(np.sum(psd * (freq - mean) ** 2)))


def steering(n_elem: int, phi):
    """Half-wavelength ULA steering vector(s) for bearing(s) phi.

    Phase convention: element n carries exp(-j*pi*n*sin(phi)), n = 0..N-1.

    phi may be a scalar or an array; the element axis comes first, so the
    result has shape (n_elem,) + shape(phi).
    """
    phi = np.asarray(phi, dtype=float)
    n = np.arange(n_elem, dtype=float).reshape((n_elem,) + (1,) * phi.ndim)
    sin_phi = np.sin(phi)
    a = np.exp(-1j * np.pi * n * sin_phi)
    return a if phi.ndim else a.reshape(n_elem)


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
    padding keeps the circular shift from wrapping. Rows are built in one
    contiguous block per worker, each in place in the output.
    """
    ref = np.zeros(n_total, dtype=complex)
    ref[: wf.samples] = chirp(wf)
    spec = np.fft.fft(ref)
    freq = np.fft.fftfreq(n_total, d=1.0 / wf.sample_rate)
    out = np.empty((len(delays), n_total), dtype=complex)

    def fill(rows: slice):
        # the block carries the ramp, the product and the transform; spec
        # stays the left operand, which fixes the rounding
        ramp = out[rows]
        np.outer(delays[rows], freq, out=ramp.real)
        ramp.imag = 0.0
        np.multiply(-2j * np.pi, ramp, out=ramp)
        np.exp(ramp, out=ramp)
        np.multiply(spec[None, :], ramp, out=ramp)
        shifted = scipy.fft.ifft(ramp, axis=1, overwrite_x=True)
        if not np.shares_memory(shifted, ramp):
            ramp[...] = shifted

    blocks = min(map_workers(), len(delays))
    edges = [len(delays) * i // blocks for i in range(blocks + 1)]
    map_items(fill, [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])
    return out


def _workspace(scenario: Scenario, kind: str, amps: np.ndarray, d: np.ndarray,
               phi: np.ndarray, **truth) -> SynthWorkspace:
    """Tables for echoes of amplitudes amps from ranges d at bearings phi."""
    wf = scenario.waveform
    delays = 2.0 * d / SPEED_OF_LIGHT
    n_total = wf.samples + int(np.ceil(delays.max() * wf.sample_rate)) + FRAME_GUARD
    steer = steering(scenario.array_n, phi)
    delayed = _delayed_chirps(wf, delays, n_total)
    # the trial threads share these tables
    for table in (steer, amps, delayed, delays):
        table.flags.writeable = False
    pose = scenario.pose
    return SynthWorkspace(
        scenario=scenario,
        kind=kind,
        steer=steer,
        amps=amps,
        delayed=delayed,
        delays=delays,
        n_total=n_total,
        noise_std=np.sqrt(scenario.energy.n0 * wf.sample_rate / 2.0),
        truth={"kind": kind, "d": pose.d, "phi": pose.phi, "heading": pose.heading,
               **truth},
    )


def synthesis_workspace(scenario: Scenario,
                        seg: SegmentationConfig | None = None) -> SynthWorkspace:
    """Build the reusable tables for extended-target synthesis.

    The contour is cut into K equal arc-length segments (K from the
    segmentation config and the perimeter); each contributes one echo from
    its midpoint with deterministic amplitude g*sqrt(l_T/K)*w_k.
    """
    if seg is None:
        seg = SegmentationConfig()
    wavelength = SPEED_OF_LIGHT / scenario.waveform.carrier
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
    gain = scenario.gain_g(scenario.lit_arc.w_norm_sq)
    amps = gain * np.sqrt(total / k) * weights.w
    return _workspace(scenario, "extended", amps, geo.d, geo.phi, segments=k)


def point_workspace(scenario: Scenario) -> SynthWorkspace:
    """Synthesis tables for a point target at the contour's reference pose:
    one echo from the pose centre carrying the energy at ||w||^2 = 1."""
    amp = np.sqrt(scenario.received_energy(1.0) / scenario.array_n)
    pose = scenario.pose
    return _workspace(scenario, "point", np.array([amp]), np.array([pose.d]),
                      np.array([pose.phi]))


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
    noise = np.empty((len(workspace.steer), workspace.n_total))

    def draw_noise():
        rng.standard_normal(out=noise)
        np.multiply(noise, workspace.noise_std, out=noise)

    def step(item):
        # item 0 runs on the calling thread, so the frame comes from its
        # malloc arena; the GEMM runs while the real-part noise is drawn
        if item == 0:
            return (workspace.steer * coeff) @ workspace.delayed
        draw_noise()

    # clean + noise_std * (re + 1j * im), added in place in the order drawn;
    # both halves pass through one buffer
    samples, _ = map_items(step, (0, 1))
    samples.real += noise
    draw_noise()
    samples.imag += noise
    wf = workspace.scenario.waveform
    return SignalFrame(
        samples=samples,
        sample_rate=wf.sample_rate,
        time_offset=-wf.duration / 2.0,
        noise_density=workspace.scenario.energy.n0,
        seed=seed,
        truth=dict(workspace.truth),
    )


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
