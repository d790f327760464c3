"""JSON scenario files: validation, normalization and construction.

File units follow automotive convention: meters, seconds, Hz, dB, and
degrees for every angle (phi, heading, kappa). Internally everything is
radians. Normalization fills defaults and canonicalizes key order but never
rewrites user-provided numbers, so a normalized file re-parses to an
identical scenario bit for bit.
"""

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contour import ContourParams, QuadratureSpec, TargetPose, wrap_angle
from .errors import ScenarioError
from .multiradar import RadarPose
from .scenario import (
    DEFAULT_CARRIER_HZ,
    EnergySpec,
    Scenario,
    SegmentationConfig,
    WaveformSpec,
)

SCHEMA_VERSION = "2"


def _finite(value) -> bool:
    """A JSON number that converts to a finite float64. json parses true and
    false as ints, NaN and Infinity as floats, and integers of any size."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float64's range
        return False


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# A kind is the phrase an error gives and the test a value must pass.
_NUMBER = ("a finite number", _finite)
_INTEGER = ("an integer", _integer)
_NUMBERS = ("an array of finite numbers",
            lambda value: isinstance(value, list) and all(map(_finite, value)))
# N enters the bounds as N^2 - 1 (fisher.radar_constants), a float64
_ARRAY_SIZE = ("an integer >= 2 with N^2 - 1 finite in float64",
               lambda value: _integer(value) and value >= 2 and _finite(value * value - 1))
_BOOLEAN = ("true or false", lambda value: isinstance(value, bool))

# A key's default is a value, a function of the section as given, or one of:
_REQUIRED = "required"
_OMITTED = "omitted"  # left out of the normalized section when not given

# section -> key -> (kind, default), in the normalized order
_SCHEMA = {
    "contour": {"Q": (_INTEGER, lambda given: len(given["m"])),
                "m": (_NUMBERS, _REQUIRED), "n": (_NUMBERS, _REQUIRED)},
    "target": {"x": (_NUMBER, _REQUIRED), "y": (_NUMBER, _REQUIRED),
               "heading": (_NUMBER, _REQUIRED)},
    "radar": {"x": (_NUMBER, 0.0), "y": (_NUMBER, 0.0), "kappa": (_NUMBER, 0.0),
              "N": (_ARRAY_SIZE, _REQUIRED)},
    "channel": {"alpha": (_NUMBER, _REQUIRED), "E_over_N0_dB": (_NUMBER, _OMITTED),
                "gain": (_NUMBER, _OMITTED), "N0": (_NUMBER, EnergySpec.n0)},
    "waveform": {"B": (_NUMBER, _REQUIRED), "T": (_NUMBER, _REQUIRED),
                 "fs": (_NUMBER, lambda given: 2.0 * given["B"]),
                 "fc": (_NUMBER, DEFAULT_CARRIER_HZ)},
    # schema 1 carried split_at_shadow; its default (false) still loads
    "quadrature": {"nodes": (_INTEGER, QuadratureSpec.nodes),
                   "split_at_shadow": (_BOOLEAN, _OMITTED)},
    "segmentation": {"lR": (_NUMBER, SegmentationConfig.segment_length)},
}
# the target's polar form, for a single radar
_POLAR_TARGET = {"d": (_NUMBER, _REQUIRED), "phi": (_NUMBER, _REQUIRED),
                 "heading": (_NUMBER, _REQUIRED)}


def _section(name: str, given, fields: dict) -> dict:
    """One section checked against its fields and filled in their order."""
    if not isinstance(given, dict):
        raise ScenarioError(f"{name} must be a JSON object")
    unknown = set(given) - set(fields)
    if unknown:
        raise ScenarioError(
            f"{name}: unknown key(s) {sorted(unknown)}; allowed: {sorted(fields)}")
    missing = {key for key, (_, default) in fields.items()
               if default is _REQUIRED} - set(given)
    if missing:
        raise ScenarioError(f"{name}: missing required key(s) {sorted(missing)}")
    for key, value in given.items():
        phrase, test = fields[key][0]
        if not test(value):
            raise ScenarioError(f"{name}.{key} must be {phrase}, got {value!r}")
    filled = {}
    for key, (_, default) in fields.items():
        if key in given:
            filled[key] = copy.copy(given[key])  # a new list, not the caller's
        elif callable(default):
            filled[key] = default(given)
        elif default is not _OMITTED:
            filled[key] = default
    return filled


def normalize(doc: dict) -> dict:
    """Validate a raw scenario document and fill defaults.

    Returns a new document in canonical section/key order; values the user
    supplied are passed through untouched.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = set(doc) - set(_SCHEMA)
    if unknown:
        raise ScenarioError(
            f"unknown top-level section(s) {sorted(unknown)}; "
            f"allowed: {list(_SCHEMA)}"
        )
    for name in ("contour", "target", "channel", "waveform"):
        if name not in doc:
            raise ScenarioError(f"missing required section {name!r}")

    polar = isinstance(doc["target"], dict) and "d" in doc["target"]
    radars = doc.get("radar", [{"N": 30}])
    if not isinstance(radars, list) or not radars:
        raise ScenarioError("radar must be a non-empty array of radar objects")
    out = {}
    for name, fields in _SCHEMA.items():
        if name == "radar":
            out[name] = [_section(f"radar[{i}]", entry, fields)
                         for i, entry in enumerate(radars)]
        else:
            out[name] = _section(name, doc.get(name, {}),
                                 _POLAR_TARGET if polar and name == "target" else fields)

    m, n, q = out["contour"]["m"], out["contour"]["n"], out["contour"]["Q"]
    if len(m) != len(n) or not m:
        raise ScenarioError("contour.m and contour.n must have equal, nonzero length")
    if q != len(m):
        raise ScenarioError(f"contour.Q = {q} but {len(m)} coefficients given")
    if polar and len(radars) > 1:
        raise ScenarioError(
            "target given as (d, phi) supports a single radar; "
            "use target (x, y) with constellations"
        )
    if ("E_over_N0_dB" in out["channel"]) == ("gain" in out["channel"]):
        raise ScenarioError(
            "channel: set exactly one of E_over_N0_dB (fixed energy) or gain"
        )
    if out["quadrature"].pop("split_at_shadow", False):
        raise ScenarioError("quadrature.split_at_shadow was removed in schema 2; "
                            "the uniform periodic trapezoid is the only rule")
    return out


@dataclass(frozen=True)
class ScenarioBundle:
    """Built scenario plus the constellation context it came from."""

    scenario: Scenario  # local to the first radar
    radars: tuple
    target_xy: np.ndarray  # global coordinates
    heading: float  # global heading, radians
    segmentation: SegmentationConfig
    document: dict  # normalized source document


def build(doc: dict) -> ScenarioBundle:
    """Construct the internal scenario objects from a (raw) document."""
    doc = normalize(doc)
    contour = ContourParams(m=np.array(doc["contour"]["m"], dtype=float),
                            n=np.array(doc["contour"]["n"], dtype=float))
    contour.arc_length  # the contour's admission: every command refuses it here
    radars = tuple(
        RadarPose(position=np.array([r["x"], r["y"]]),
                  kappa=np.radians(float(r["kappa"])), array_n=r["N"])
        for r in doc["radar"]
    )
    first = radars[0]

    target = doc["target"]
    if "d" in target:
        pose = TargetPose(d=float(target["d"]), phi=np.radians(float(target["phi"])),
                          heading=np.radians(float(target["heading"])))
        bearing = first.kappa + pose.phi
        target_xy = first.position + pose.d * np.array(
            [np.cos(bearing), np.sin(bearing)])
        heading_global = wrap_angle(pose.heading + first.kappa)
    else:
        target_xy = np.array([target["x"], target["y"]], dtype=float)
        heading_global = wrap_angle(np.radians(float(target["heading"])))
        pose = first.local_pose(target_xy, heading_global)

    channel = doc["channel"]
    energy = EnergySpec(e_over_n0_db=channel.get("E_over_N0_dB"),
                        gain=channel.get("gain"), n0=channel["N0"])
    waveform = WaveformSpec(bandwidth=doc["waveform"]["B"],
                            duration=doc["waveform"]["T"],
                            sample_rate=doc["waveform"]["fs"],
                            carrier=doc["waveform"]["fc"])
    quadrature = QuadratureSpec(nodes=doc["quadrature"]["nodes"])
    if 32 * contour.q * quadrature.nodes > np.iinfo(np.intp).max:  # 4 Q x nodes float64
        raise ScenarioError(f"quadrature.nodes = {quadrature.nodes}: its Fourier basis "
                            "is beyond numpy's array size limit")
    scenario = Scenario(contour=contour, pose=pose, alpha=channel["alpha"],
                        array_n=first.array_n, waveform=waveform, energy=energy,
                        quadrature=quadrature)
    return ScenarioBundle(scenario=scenario, radars=radars, target_xy=target_xy,
                          heading=float(heading_global),
                          segmentation=SegmentationConfig(doc["segmentation"]["lR"]),
                          document=doc)


def load_file(path) -> ScenarioBundle:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as err:  # JSONDecodeError, or an integer too long to parse
        raise ScenarioError(f"{path}: invalid JSON ({err})") from err
    except OSError as err:
        raise ScenarioError(f"{path}: {err}") from err
    return build(doc)


def dumps_normalized(doc: dict) -> str:
    """Canonical JSON text of a normalized document."""
    return json.dumps(normalize(doc), indent=2) + "\n"
