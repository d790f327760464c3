"""Scenario container: contour + pose + channel + waveform + array + quadrature."""

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .contour import ContourParams, PoseField, QuadratureSpec, TargetPose, pose_field
from .errors import ScenarioError

SPEED_OF_LIGHT = 299792458.0  # m/s, exact in SI (tests check it against scipy)
DEFAULT_CARRIER_HZ = 77e9  # used only for the wavelength heuristic in segmentation


@dataclass(frozen=True)
class WaveformSpec:
    """Chirp sweep bandwidth B, duration T and complex sampling rate fs (Hz, s)."""

    bandwidth: float
    duration: float
    sample_rate: float = 0.0  # 0 means critically sampled: fs = 2B
    carrier: float = DEFAULT_CARRIER_HZ

    def __post_init__(self):
        if not (self.bandwidth > 0.0 and self.duration > 0.0):
            raise ScenarioError("waveform needs positive bandwidth and duration")
        if not self.carrier > 0.0:
            raise ScenarioError(f"carrier frequency must be positive, got {self.carrier:g} Hz")
        if self.sample_rate == 0.0:
            object.__setattr__(self, "sample_rate", 2.0 * self.bandwidth)
        if not self.sample_rate >= 2.0 * self.bandwidth:
            raise ScenarioError(
                f"sample rate {self.sample_rate:g} Hz under-samples the complex baseband "
                f"(need >= 2B = {2 * self.bandwidth:g} Hz)"
            )
        for name, value in (("bandwidth", self.bandwidth), ("duration", self.duration),
                            ("sample rate", self.sample_rate), ("carrier", self.carrier)):
            if not value < np.inf:
                raise ScenarioError(f"waveform {name} must be finite, got {value:g}")
        if not self.duration * self.sample_rate < np.inf:
            raise ScenarioError(
                f"waveform duration times sample rate (the sample count) must be finite, "
                f"got {self.duration:g} s x {self.sample_rate:g} Hz")
        if self.bandwidth * self.duration < 100.0:
            warnings.warn("time-bandwidth product is small; chirp approximations degrade",
                          stacklevel=2)

    @property
    def samples(self) -> int:
        return int(np.ceil(self.duration * self.sample_rate))


@dataclass(frozen=True)
class EnergySpec:
    """Channel energy description; exactly one mode is active.

    fixed mode pins the bound-side knob E/N0 = 10^(dB/10) directly (N0 = 1);
    physical mode carries an aggregate two-way gain G so that g = sqrt(G)/d^2,
    E = g^2 N ||w||^2, plus an explicit noise PSD N0.
    """

    e_over_n0_db: float = None
    gain: float = None
    n0: float = 1.0

    def __post_init__(self):
        if (self.e_over_n0_db is None) == (self.gain is None):
            raise ScenarioError("set exactly one of e_over_n0_db or gain")
        if not self.n0 > 0.0:
            raise ScenarioError("noise PSD must be positive")
        if not self.n0 < np.inf:
            raise ScenarioError(f"noise PSD must be finite, got {self.n0:g}")
        if self.gain is not None and not self.gain >= 0.0:
            raise ScenarioError("gain must be non-negative")
        if self.gain is not None and not self.gain < np.inf:
            raise ScenarioError(f"gain must be finite, got {self.gain:g}")
        if self.e_over_n0_db is not None:
            try:
                linear = 10.0 ** (float(self.e_over_n0_db) / 10.0)
            except OverflowError:
                linear = np.inf
            if not 0.0 < linear < np.inf:
                raise ScenarioError(f"E/N0 of {self.e_over_n0_db:g} dB is out of range: "
                                    "10^(dB/10) must be a positive finite number")

    @property
    def mode(self) -> str:
        return "fixed_E_over_N0" if self.e_over_n0_db is not None else "physical_gain"


@dataclass(frozen=True)
class SegmentationConfig:
    """Contour segmentation for signal synthesis: target segment length (m)."""

    segment_length: float = 0.2

    def __post_init__(self):
        if not self.segment_length > 0.0:
            raise ScenarioError("segment length must be positive")

    def count(self, perimeter_m: float) -> int:
        return max(1, int(np.ceil(perimeter_m / self.segment_length)))


@dataclass(frozen=True)
class Scenario:
    """A single radar (at the origin, broadside on +x) observing one target."""

    contour: ContourParams
    pose: TargetPose
    alpha: float
    array_n: int
    waveform: WaveformSpec
    energy: EnergySpec
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if not self.array_n >= 2:
            raise ScenarioError(f"need at least 2 antennas, got {self.array_n}")
        if not self.alpha >= 0.0:
            raise ScenarioError(f"surface roughness must be >= 0, got {self.alpha}")

    @cached_property
    def lit_arc(self) -> PoseField:
        """The pose's lit contour arc (contour.pose_field) on the full grid,
        quadrature.nodes, built on first read and kept: every bound and the
        synthesis energy norm read this one or a subgrid of it. A scenario
        is immutable (its contour arrays are read-only), so the arc cannot
        go stale; with_pose and the like return a new scenario, which builds
        its own."""
        return pose_field(self)

    # The energy model E = g^2 N ||w||^2, with ||w||^2 the squared star norm
    # of the illumination profile (1 for a point target). Fixed mode pins
    # E/N0 = 10^(dB/10) and derives g; physical mode pins g = sqrt(G)/d^2 and
    # derives E/N0. Each mode starts from its pinned quantity, so neither
    # divides out and re-multiplies N0.

    def received_energy(self, w_norm_sq: float) -> float:
        """Mean echo energy E given the squared star norm of the illumination profile."""
        if self.energy.mode == "fixed_E_over_N0":
            return self.e_over_n0(w_norm_sq) * self.energy.n0
        return self.gain_g(w_norm_sq) ** 2 * self.array_n * w_norm_sq

    def gain_g(self, w_norm_sq: float) -> float:
        """Channel amplitude g consistent with the configured energy mode."""
        if self.energy.mode == "physical_gain":
            try:
                d_sq = self.pose.d**2
            except OverflowError:  # a Python float's square beyond float64
                d_sq = np.inf
            if not np.isfinite(d_sq):
                raise ScenarioError(f"target range {self.pose.d:g} m: d^2 overflows "
                                    "float64 in the physical-gain model")
            return np.sqrt(self.energy.gain) / d_sq
        if w_norm_sq <= 0.0:
            raise ScenarioError("cannot place energy on a fully shadowed target")
        return float(np.sqrt(self.received_energy(w_norm_sq) / (self.array_n * w_norm_sq)))

    def e_over_n0(self, w_norm_sq: float) -> float:
        """Linear E/N0 given the squared star norm of the illumination profile."""
        if self.energy.mode == "fixed_E_over_N0":
            return 10.0 ** (self.energy.e_over_n0_db / 10.0)
        return self.received_energy(w_norm_sq) / self.energy.n0

    def with_pose(self, pose: TargetPose) -> "Scenario":
        return replace(self, pose=pose)

    def with_e_over_n0_db(self, db: float) -> "Scenario":
        """This scenario in fixed mode at E/N0 = db, keeping its N0."""
        return replace(self, energy=EnergySpec(e_over_n0_db=db, n0=self.energy.n0))
