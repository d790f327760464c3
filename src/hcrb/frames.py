"""Chirp waveform, ULA steering vectors, and received frames.

The transmit pulse is a unit-energy linear chirp sampled at complex
baseband. Received frames stack one row per antenna: synthesize_frame draws
the segment gains and the noise over the tables a synthesis workspace holds
(built by hcrb.waveform, the module that imports scipy.fft).

Nothing here imports an FFT module from SciPy, so the bound path (fisher
reads effective_bandwidth) loads this module and not hcrb.waveform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ._pool import map_items
from .scenario import WaveformSpec

if TYPE_CHECKING:
    from .waveform import SynthWorkspace


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
