"""Backscatter synthesis: the per-scenario tables that frames are drawn over.

Echoes from the contour are delayed copies of the chirp weighted by
per-segment Rayleigh gains and the deterministic reflection weights; the
delays are fractional-sample phase ramps inverted with scipy.fft. Only
frame-making code imports this module. The chirp, the steering vectors,
SignalFrame, synthesize_frame and dump_frame live in hcrb.frames, which
loads no SciPy FFT; hcrb.waveform.<name> is the same object for each.

scipy.fft stays a module-level import: perfbench's tracer finds the FFT
functions it wraps in sys.modules when it installs, so a process that has
imported this module must have them there. The import can move into
_delayed_chirps once the tracer imports the modules it wraps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from ._pool import map_items, map_workers
from .contour import arclength_params, geometry_at, perimeter, reflection_weights
from .errors import ScenarioError
# re-exported: perfbench traces hcrb.waveform.synthesize_frame and .chirp
# and reads the cache of .effective_bandwidth
from .frames import (
    SignalFrame,
    chirp,
    dump_frame,
    effective_bandwidth,
    steering,
    synthesize_frame,
)
from .scenario import SPEED_OF_LIGHT, Scenario, SegmentationConfig, WaveformSpec

# Guard samples appended after the last echo so delayed chirps never wrap.
FRAME_GUARD = 8


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
    delay_samples = np.ceil(delays.max() * wf.sample_rate)
    # N x n_total (frame) and K x n_total (delayed chirps) complex128 samples
    rows, cols = max(scenario.array_n, delays.size), wf.samples + delay_samples + FRAME_GUARD
    if 16.0 * rows * cols > np.iinfo(np.intp).max:
        raise ScenarioError(f"synthesis needs {rows:.3g} x {cols:.3g} complex samples, "
                            "beyond numpy's array size limit")
    n_total = wf.samples + int(delay_samples) + FRAME_GUARD
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
    segmentation config and the perimeter, both read off the contour's
    arc-length table, not the bound's quadrature); each contributes one
    echo from its midpoint with deterministic amplitude g*sqrt(l_T/K)*w_k.
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
    total = perimeter(scenario.contour)
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
