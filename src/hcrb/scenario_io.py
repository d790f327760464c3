"""JSON scenario files: validation, normalization and construction.

File units follow automotive convention: meters, seconds, Hz, dB, and
degrees for every angle (phi, heading, kappa). Internally everything is
radians. Normalization fills defaults and canonicalizes key order but never
rewrites user-provided numbers, so a normalized file re-parses to an
identical scenario bit for bit.
"""

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

_SECTIONS = ("contour", "target", "radar", "channel", "waveform",
             "quadrature", "segmentation")


def _check_keys(section: str, given: dict, allowed: set, required: set):
    if not isinstance(given, dict):
        raise ScenarioError(f"{section} must be a JSON object")
    unknown = set(given) - allowed
    if unknown:
        raise ScenarioError(
            f"{section}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    missing = required - set(given)
    if missing:
        raise ScenarioError(f"{section}: missing required key(s) {sorted(missing)}")


def _is_number(value) -> bool:
    """A JSON number other than NaN and the infinities, which json parses."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return not isinstance(value, float) or math.isfinite(value)


def _is_integer(value) -> bool:
    """A JSON integer; json parses true and false as bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(section: str, obj: dict, key: str, default=None):
    if key not in obj:
        return default
    value = obj[key]
    if not _is_number(value):
        raise ScenarioError(f"{section}.{key}: expected a finite number, got {value!r}")
    return value


def normalize(doc: dict) -> dict:
    """Validate a raw scenario document and fill defaults.

    Returns a new document in canonical section/key order; values the user
    supplied are passed through untouched.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ScenarioError(
            f"unknown top-level section(s) {sorted(unknown)}; "
            f"allowed: {list(_SECTIONS)}"
        )
    for name in ("contour", "target", "channel", "waveform"):
        if name not in doc:
            raise ScenarioError(f"missing required section {name!r}")

    contour = doc["contour"]
    _check_keys("contour", contour, {"Q", "m", "n"}, {"m", "n"})
    m, n = contour["m"], contour["n"]
    if not (isinstance(m, list) and isinstance(n, list)):
        raise ScenarioError("contour.m and contour.n must be arrays")
    if len(m) != len(n) or not m:
        raise ScenarioError("contour.m and contour.n must have equal, nonzero length")
    for name, coeffs in (("m", m), ("n", n)):
        if not all(_is_number(c) for c in coeffs):
            raise ScenarioError(f"contour.{name} must contain finite numbers only")
    q = contour.get("Q", len(m))
    if not _is_integer(q):
        raise ScenarioError(f"contour.Q must be an integer, got {q!r}")
    if q != len(m):
        raise ScenarioError(f"contour.Q = {q} but {len(m)} coefficients given")

    target = doc["target"]
    if isinstance(target, dict) and "d" in target:
        _check_keys("target", target, {"d", "phi", "heading"},
                    {"d", "phi", "heading"})
        target_norm = {"d": _number("target", target, "d"),
                       "phi": _number("target", target, "phi"),
                       "heading": _number("target", target, "heading")}
        polar = True
    else:
        _check_keys("target", target, {"x", "y", "heading"}, {"x", "y", "heading"})
        target_norm = {"x": _number("target", target, "x"),
                       "y": _number("target", target, "y"),
                       "heading": _number("target", target, "heading")}
        polar = False

    radars_in = doc.get("radar", [{"N": 30}])
    if not isinstance(radars_in, list) or not radars_in:
        raise ScenarioError("radar must be a non-empty array of radar objects")
    radars_norm = []
    for i, entry in enumerate(radars_in):
        _check_keys(f"radar[{i}]", entry, {"x", "y", "kappa", "N"}, {"N"})
        n_elem = entry["N"]
        if not _is_integer(n_elem) or n_elem < 2:
            raise ScenarioError(f"radar[{i}].N must be an integer >= 2")
        radars_norm.append({
            "x": _number(f"radar[{i}]", entry, "x", 0.0),
            "y": _number(f"radar[{i}]", entry, "y", 0.0),
            "kappa": _number(f"radar[{i}]", entry, "kappa", 0.0),
            "N": n_elem,
        })
    if polar and len(radars_norm) > 1:
        raise ScenarioError(
            "target given as (d, phi) supports a single radar; "
            "use target (x, y) with constellations"
        )

    channel = doc["channel"]
    _check_keys("channel", channel, {"alpha", "E_over_N0_dB", "gain", "N0"},
                {"alpha"})
    if ("E_over_N0_dB" in channel) == ("gain" in channel):
        raise ScenarioError(
            "channel: set exactly one of E_over_N0_dB (fixed energy) or gain"
        )
    channel_norm = {"alpha": _number("channel", channel, "alpha")}
    if "E_over_N0_dB" in channel:
        channel_norm["E_over_N0_dB"] = _number("channel", channel, "E_over_N0_dB")
    else:
        channel_norm["gain"] = _number("channel", channel, "gain")
    channel_norm["N0"] = _number("channel", channel, "N0", EnergySpec.n0)

    waveform = doc["waveform"]
    _check_keys("waveform", waveform, {"B", "T", "fs", "fc"}, {"B", "T"})
    waveform_norm = {
        "B": _number("waveform", waveform, "B"),
        "T": _number("waveform", waveform, "T"),
        "fs": _number("waveform", waveform, "fs",
                      2.0 * _number("waveform", waveform, "B")),
        "fc": _number("waveform", waveform, "fc", DEFAULT_CARRIER_HZ),
    }

    quad = doc.get("quadrature", {})
    _check_keys("quadrature", quad, {"nodes", "split_at_shadow"}, set())
    # schema 1 carried split_at_shadow; its default (false) still loads
    if quad.get("split_at_shadow", False) is not False:
        raise ScenarioError("quadrature.split_at_shadow was removed in schema 2; "
                            "the uniform periodic trapezoid is the only rule")
    quad_norm = {"nodes": quad.get("nodes", QuadratureSpec.nodes)}
    if not _is_integer(quad_norm["nodes"]):
        raise ScenarioError("quadrature.nodes must be an integer")

    seg = doc.get("segmentation", {})
    _check_keys("segmentation", seg, {"lR"}, set())
    seg_norm = {"lR": _number("segmentation", seg, "lR",
                              SegmentationConfig.segment_length)}

    return {
        "contour": {"Q": q, "m": list(m), "n": list(n)},
        "target": target_norm,
        "radar": radars_norm,
        "channel": channel_norm,
        "waveform": waveform_norm,
        "quadrature": quad_norm,
        "segmentation": seg_norm,
    }


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
    radars = tuple(
        RadarPose(position=np.array([r["x"], r["y"]]),
                  kappa=np.radians(r["kappa"]), array_n=r["N"])
        for r in doc["radar"]
    )
    first = radars[0]

    target = doc["target"]
    if "d" in target:
        pose = TargetPose(d=target["d"], phi=np.radians(target["phi"]),
                          heading=np.radians(target["heading"]))
        bearing = first.kappa + pose.phi
        target_xy = first.position + pose.d * np.array(
            [np.cos(bearing), np.sin(bearing)])
        heading_global = wrap_angle(pose.heading + first.kappa)
    else:
        target_xy = np.array([target["x"], target["y"]], dtype=float)
        heading_global = wrap_angle(np.radians(target["heading"]))
        pose = first.local_pose(target_xy, heading_global)

    channel = doc["channel"]
    energy = EnergySpec(e_over_n0_db=channel.get("E_over_N0_dB"),
                        gain=channel.get("gain"), n0=channel["N0"])
    waveform = WaveformSpec(bandwidth=doc["waveform"]["B"],
                            duration=doc["waveform"]["T"],
                            sample_rate=doc["waveform"]["fs"],
                            carrier=doc["waveform"]["fc"])
    quadrature = QuadratureSpec(nodes=doc["quadrature"]["nodes"])
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
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path}: invalid JSON ({err})") from err
    except OSError as err:
        raise ScenarioError(f"{path}: {err}") from err
    return build(doc)


def dumps_normalized(doc: dict) -> str:
    """Canonical JSON text of a normalized document."""
    return json.dumps(normalize(doc), indent=2) + "\n"
