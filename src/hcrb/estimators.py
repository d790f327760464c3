"""Bearing and range estimation from one received frame.

Conventional FMCW processing chain: every element is de-chirped against the
transmit reference so returns collapse into beat-frequency peaks; the dominant
peak of the incoherent range profile supplies a coherent array snapshot whose
beamscan gives the bearing; the beamformed series is then de-chirped and the
refined beat-frequency peak gives the range. Both stages finish with a bounded
scalar polish on the continuous objective so grid quantization never floors
the error.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.optimize import minimize_scalar

from .scenario import WaveformSpec
from .waveform import SignalFrame, chirp, steering, steering_matrix

# de-chirped range profiles below this peak-to-median power ratio are
# noise-like (pure noise sits near 2, any usable return above ~50)
CONFIDENCE_RATIO = 10.0

# for an exponential-bin power spectrum the noise-only peak-to-median
# concentrates near log2(nbins); a confident beat peak must clear a
# multiple of that level
BEAT_MARGIN = 3.0


@dataclass(frozen=True)
class DirectionEstimate:
    phi: float
    peak_to_median: float  # de-chirped range-profile peak over median
    confident: bool


@dataclass(frozen=True)
class RangeEstimate:
    d: float
    beat_cycles: float  # signed beat frequency in cycles/sample
    peak_to_median: float
    confident: bool


@dataclass(frozen=True)
class EstimateResult:
    direction: DirectionEstimate
    range_: RangeEstimate

    @property
    def phi(self) -> float:
        return self.direction.phi

    @property
    def d(self) -> float:
        return self.range_.d

    @property
    def confident(self) -> bool:
        return self.direction.confident and self.range_.confident


@lru_cache(maxsize=8)
def _scan_grid(n_elem: int, n_grid: int):
    grid = np.linspace(-np.pi / 2.0, np.pi / 2.0, n_grid + 2)[1:-1]
    return grid, steering_matrix(n_elem, grid)


@lru_cache(maxsize=8)
def _conj_pulse(waveform: WaveformSpec) -> np.ndarray:
    pulse = chirp(waveform).conj()
    pulse.flags.writeable = False
    return pulse


def _reference_conj(waveform: WaveformSpec, n_samples: int) -> np.ndarray:
    """Conjugate transmit chirp zero-padded to n_samples: the de-chirp mixer."""
    ref = np.zeros(n_samples, dtype=complex)
    pulse = _conj_pulse(waveform)
    ref[: pulse.size] = pulse
    return ref


def estimate_direction(
    frame: SignalFrame, waveform: WaveformSpec, n_grid: int = 2048
) -> DirectionEstimate:
    """Beamscan bearing on the dominant de-chirped range bin.

    Each element is mixed with the conjugate reference chirp and FFT'd; the
    peak of the incoherent profile picks the range bin, and the beamformed
    power a(phi)^H z z^H a(phi) of that coherent snapshot is maximized over
    a coarse grid followed by a bounded polish, so the result is grid-free.
    The confidence flag compares the profile peak to its median: a flat
    profile means no detectable return.
    """
    y = frame.samples
    ref = _reference_conj(waveform, y.shape[1])
    nfft = 2 * int(2 ** np.ceil(np.log2(y.shape[1])))
    spectra = np.fft.fft(ref * y, nfft, axis=1)
    profile = np.sum(np.abs(spectra) ** 2, axis=0)
    bin_ = int(np.argmax(profile))
    ratio = float(profile[bin_] / np.median(profile))

    snapshot = spectra[:, bin_]
    grid, mat = _scan_grid(y.shape[0], n_grid)
    power = np.abs(mat.conj().T @ snapshot) ** 2
    peak = int(np.argmax(power))

    def negpower(phi):
        a = steering(y.shape[0], phi)
        return -abs(a.conj() @ snapshot) ** 2

    lo = grid[max(peak - 1, 0)]
    hi = grid[min(peak + 1, len(grid) - 1)]
    res = minimize_scalar(negpower, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    return DirectionEstimate(
        phi=float(res.x),
        peak_to_median=ratio,
        confident=ratio >= CONFIDENCE_RATIO,
    )


def _signed_cycles(index: float, nfft: int) -> float:
    """FFT bin index -> frequency in cycles/sample on (-1/2, 1/2]."""
    nu = index / nfft
    return nu - 1.0 if nu > 0.5 else nu


def estimate_range(
    frame: SignalFrame, waveform: WaveformSpec, phi: float
) -> RangeEstimate:
    """De-chirp beat-frequency range at a fixed bearing.

    The beamformed series is multiplied by the conjugate reference chirp;
    the echo then sits at beat frequency -(B/T) tau in the FFT, so the
    range is |nu| fs T c / (2B). A DC peak is reported as range zero.
    """
    y = frame.samples
    a = steering(y.shape[0], phi)
    z = a.conj() @ y
    mix = _reference_conj(waveform, z.size) * z

    nfft = 8 * int(2 ** np.ceil(np.log2(z.size)))
    spec = np.fft.fft(mix, nfft)
    mag = np.abs(spec) ** 2
    peak = int(np.argmax(mag))
    ratio = float(mag[peak] / np.median(mag))
    confident = ratio >= BEAT_MARGIN * np.log2(nfft)
    if peak == 0:
        return RangeEstimate(d=0.0, beat_cycles=0.0, peak_to_median=ratio,
                             confident=confident)

    # quadratic interpolation, then polish the continuous spectrum
    left, right = mag[(peak - 1) % nfft], mag[(peak + 1) % nfft]
    denom = left - 2.0 * mag[peak] + right
    shift = 0.0 if denom == 0.0 else 0.5 * (left - right) / denom
    coarse = peak + np.clip(shift, -0.5, 0.5)
    n_idx = np.arange(mix.size)

    def negmag(idx):
        probe = np.exp(-2j * np.pi * (idx / nfft) * n_idx)
        return -abs(mix @ probe) ** 2

    res = minimize_scalar(negmag, bounds=(coarse - 1.0, coarse + 1.0),
                          method="bounded", options={"xatol": 1e-7})
    cycles = _signed_cycles(float(res.x), nfft)
    sweep_rate = waveform.bandwidth / waveform.duration
    tau = abs(cycles) * frame.sample_rate / sweep_rate
    return RangeEstimate(
        d=float(tau * SPEED_OF_LIGHT / 2.0),
        beat_cycles=cycles,
        peak_to_median=ratio,
        confident=confident,
    )


def estimate(frame: SignalFrame, waveform: WaveformSpec,
             n_grid: int = 2048) -> EstimateResult:
    """Bearing first, then range at the estimated bearing."""
    direction = estimate_direction(frame, waveform, n_grid)
    rng = estimate_range(frame, waveform, direction.phi)
    return EstimateResult(direction=direction, range_=rng)
