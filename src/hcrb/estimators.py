"""Bearing and range estimation from one received frame.

Conventional FMCW processing chain: every element is de-chirped against the
transmit reference so returns collapse into beat-frequency peaks; the dominant
peak of the incoherent range profile supplies a coherent array snapshot whose
beamscan gives the bearing; the beamformed series is then de-chirped and the
refined beat-frequency peak gives the range. Both stages finish with a bounded
scalar polish on the continuous objective so grid quantization never floors
the error.

Every estimate runs once per Monte Carlo trial, beside other trial threads.
Its vector products (a^H y, the snapshot, the beamscan, the range polish)
therefore use np.einsum rather than @: matmul hands them to BLAS, whose
worker threads would spin beside the trial threads. A frame estimated on
its own (hcrb simulate) has the cores to itself, so the direction stage
spreads its de-chirped row transforms and their powers over the pool;
inside pooled trials it runs one row at a time on the trial's thread.
Either way the profile is the same bits.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.optimize import minimize_scalar

from ._pool import map_items, map_workers
from .scenario import WaveformSpec
from .waveform import SignalFrame, chirp, steering

# de-chirped range profiles below this peak-to-median power ratio are
# noise-like (pure noise sits near 2, any usable return above ~50)
CONFIDENCE_RATIO = 10.0

# for an exponential-bin power spectrum the noise-only peak-to-median
# concentrates near log2(nbins); a confident beat peak must clear a
# multiple of that level
BEAT_MARGIN = 3.0

# bearings on the coarse beamscan grid, strictly inside (-pi/2, pi/2)
SCAN_POINTS = 2048


@dataclass(frozen=True)
class DirectionEstimate:
    phi: float
    peak_to_median: float  # de-chirped range-profile peak over median
    confident: bool


@dataclass(frozen=True)
class RangeEstimate:
    d: float
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
def _scan_grid(n_elem: int):
    """Coarse beamscan bearings and the (SCAN_POINTS, n_elem) matrix of
    conjugated steering vectors, one row per bearing; both read-only."""
    grid = np.linspace(-np.pi / 2.0, np.pi / 2.0, SCAN_POINTS + 2)[1:-1]
    steer_h = np.ascontiguousarray(steering(n_elem, grid).conj().T)
    grid.flags.writeable = False
    steer_h.flags.writeable = False
    return grid, steer_h


@lru_cache(maxsize=8)
def _reference_conj(waveform: WaveformSpec, n_samples: int) -> np.ndarray:
    """Conjugate transmit chirp zero-padded to n_samples: the de-chirp mixer.
    Read-only, shared by every frame of that length."""
    pulse = chirp(waveform).conj()
    ref = np.zeros(n_samples, dtype=complex)
    ref[: pulse.size] = pulse
    ref.flags.writeable = False
    return ref


def _dechirped_profile(y: np.ndarray, ref: np.ndarray, nfft: int) -> np.ndarray:
    """sum over rows of |FFT_nfft(ref * y_row)|^2, in blocks of
    map_workers() rows.

    Each worker mixes and transforms one row of the block in place, then
    each adds |X|^2 of the block's rows, in row order, to its own share of
    the bins. The row powers are therefore added in row order, so the
    result equals np.sum(np.abs(np.fft.fft(ref * y, nfft, axis=1)) ** 2,
    axis=0) bit for bit at any worker count, while holding one block of
    spectra (1 MB a row at nfft 65536) rather than the stacked transform's
    31.5 MB. Inside pooled trials the block is one row.
    """
    rows, n_samples = y.shape
    width = min(map_workers(), rows)
    block = np.empty((width, nfft), dtype=complex)
    power = np.empty(nfft)
    profile = np.zeros(nfft)
    edges = [nfft * i // width for i in range(width + 1)]
    shares = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    for start in range(0, rows, width):
        count = min(width, rows - start)

        def transform(j):
            spectrum = block[j]
            np.multiply(ref, y[start + j], out=spectrum[:n_samples])
            spectrum[n_samples:] = 0.0
            out = scipy.fft.fft(spectrum, overwrite_x=True)
            if not np.shares_memory(out, spectrum):
                spectrum[...] = out

        def accumulate(bins):
            row_power = power[bins]
            for j in range(count):
                np.abs(block[j, bins], out=row_power)
                row_power *= row_power
                profile[bins] += row_power

        map_items(transform, range(count))
        map_items(accumulate, shares)
    return profile


def estimate_direction(frame: SignalFrame, waveform: WaveformSpec) -> DirectionEstimate:
    """Beamscan bearing on the dominant de-chirped range bin.

    Each element is mixed with the conjugate reference chirp and FFT'd; the
    peak of the incoherent profile picks the range bin, and the beamformed
    power a(phi)^H z z^H a(phi) of that coherent snapshot is maximized over
    a coarse grid followed by a bounded polish, so the result is grid-free.
    The confidence flag compares the profile peak to its median: a flat
    profile means no detectable return.

    The snapshot is each mixed row's DFT at the chosen bin, computed
    directly, since the profile keeps no row's spectrum.
    """
    y = frame.samples
    n_elem, n_samples = y.shape
    ref = _reference_conj(waveform, n_samples)
    nfft = 2 * int(2 ** np.ceil(np.log2(n_samples)))
    profile = _dechirped_profile(y, ref, nfft)
    bin_ = int(np.argmax(profile))
    ratio = float(profile[bin_] / _median(profile))

    # reducing bin * t mod nfft in integers keeps every phase below 2 pi,
    # as the FFT's own twiddle factors are
    phase = (bin_ * np.arange(n_samples)) % nfft
    probe = ref * np.exp((-2j * np.pi / nfft) * phase)
    snapshot = np.einsum("ij,j->i", y, probe)
    grid, steer_h = _scan_grid(n_elem)
    power = np.abs(np.einsum("ij,j->i", steer_h, snapshot)) ** 2
    peak = int(np.argmax(power))

    def negpower(phi):
        a = steering(n_elem, phi)
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


def _median(values: np.ndarray):
    """np.median of a 1-D array, bit for bit, from one partition.

    np.median partitions at both middle ranks and at the last (its NaN
    check). One partition at n // 2 puts the upper middle value in place
    with every lower rank before it, so the lower middle value is the
    largest of those; the two are averaged as np.mean averages them. A NaN
    anywhere sorts into the upper part and gives NaN, as in np.median.
    """
    half = values.size // 2
    part = np.partition(values, half)
    top = part[half:].max()
    if np.isnan(top):
        return top
    if values.size % 2:
        return part[half]
    return (part[:half].max() + part[half]) / 2.0


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
    z = np.einsum("i,ij->j", a.conj(), y)
    mix = _reference_conj(waveform, z.size) * z

    nfft = 8 * int(2 ** np.ceil(np.log2(z.size)))
    spec = scipy.fft.fft(mix, nfft)
    mag = np.abs(spec) ** 2
    peak = int(np.argmax(mag))
    ratio = float(mag[peak] / _median(mag))
    confident = ratio >= BEAT_MARGIN * np.log2(nfft)
    if peak == 0:
        return RangeEstimate(d=0.0, peak_to_median=ratio, confident=confident)

    # quadratic interpolation, then polish the continuous spectrum
    left, right = mag[(peak - 1) % nfft], mag[(peak + 1) % nfft]
    denom = left - 2.0 * mag[peak] + right
    shift = 0.0 if denom == 0.0 else 0.5 * (left - right) / denom
    coarse = peak + np.clip(shift, -0.5, 0.5)
    n_idx = np.arange(mix.size)

    def negmag(idx):
        probe = np.exp(-2j * np.pi * (idx / nfft) * n_idx)
        return -abs(np.einsum("i,i->", mix, probe)) ** 2

    res = minimize_scalar(negmag, bounds=(coarse - 1.0, coarse + 1.0),
                          method="bounded", options={"xatol": 1e-7})
    cycles = _signed_cycles(float(res.x), nfft)
    sweep_rate = waveform.bandwidth / waveform.duration
    tau = abs(cycles) * frame.sample_rate / sweep_rate
    return RangeEstimate(
        d=float(tau * SPEED_OF_LIGHT / 2.0),
        peak_to_median=ratio,
        confident=confident,
    )


def estimate(frame: SignalFrame, waveform: WaveformSpec) -> EstimateResult:
    """Bearing first, then range at the estimated bearing."""
    direction = estimate_direction(frame, waveform)
    rng = estimate_range(frame, waveform, direction.phi)
    return EstimateResult(direction=direction, range_=rng)
