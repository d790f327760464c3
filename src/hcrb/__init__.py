"""Estimation bounds and signal simulation for extended automotive radar
targets with Fourier-series contours."""

__version__ = "0.1.0"

from .asymptotics import t_blocks
from .contour import (
    ContourParams,
    QuadratureSpec,
    TargetPose,
    eval_local,
    geometry_table,
    perimeter,
    reflection_weights,
)
from .errors import (
    HcrbError,
    IdentifiabilityError,
    NoIlluminationError,
    QuadratureError,
    RegularityError,
    ScenarioError,
)
from .estimators import EstimateResult, estimate, estimate_direction, estimate_range
from .experiments import ResultTable, run_diversity, run_mc, run_range_sweep
from .fisher import (
    CrbReport,
    FisherInfo,
    efim_exact,
    gamma_derivatives,
    gamma_labels,
    gamma_vector,
    hcrb_exact,
    point_target_crb,
    radar_constants,
    scenario_with_gamma,
)
from .multiradar import RadarPose, fuse, peb, uniform_constellation
from .scenario import EnergySpec, Scenario, SegmentationConfig, WaveformSpec
from .scenario_io import ScenarioBundle, build, dumps_normalized, load_file, normalize
from .starcalc import SampledField, project_perp, star_inner
from .waveform import (
    SignalFrame,
    chirp,
    dump_frame,
    effective_bandwidth,
    steering,
)
