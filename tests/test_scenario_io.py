"""Scenario JSON schema: defaults, unit conversion, validation."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import SCENARIO_FILE

from hcrb.cli import entry
from hcrb.contour import ContourParams, TargetPose
from hcrb.errors import ScenarioError
from hcrb.multiradar import RadarPose, uniform_constellation
from hcrb.scenario import EnergySpec, SegmentationConfig, WaveformSpec
from hcrb.scenario_io import (
    _POLAR_TARGET,
    _SCHEMA,
    build,
    dumps_normalized,
    load_file,
    normalize,
)

MINIMAL = {
    "contour": {"m": [2.0], "n": [1.0]},
    "target": {"x": 6, "y": 3, "heading": 90},
    "channel": {"alpha": 5, "E_over_N0_dB": 40},
    "waveform": {"B": 1e9, "T": 1e-5},
}


def _doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


def test_normalize_fills_defaults():
    nd = normalize(_doc())
    assert nd["contour"]["Q"] == 1
    assert nd["channel"]["N0"] == 1.0
    assert nd["radar"] == [{"x": 0.0, "y": 0.0, "kappa": 0.0, "N": 30}]
    assert nd["quadrature"] == {"nodes": 4096}
    assert nd["segmentation"] == {"lR": 0.2}
    assert nd["waveform"]["fs"] == 2e9
    assert nd["waveform"]["fc"] == 77e9


def test_angles_enter_in_degrees():
    bundle = build(normalize(_doc()))
    assert bundle.scenario.pose.heading == pytest.approx(np.pi / 2.0)
    doc = _doc(radar=[{"x": 1, "y": 0, "kappa": 45, "N": 12}])
    bundle = build(normalize(doc))
    assert bundle.radars[0].kappa == pytest.approx(np.pi / 4.0)
    assert bundle.radars[0].array_n == 12


def test_polar_target_form():
    doc = _doc(target={"d": 10.0, "phi": 30.0, "heading": 0.0})
    bundle = build(normalize(doc))
    assert bundle.scenario.pose.d == pytest.approx(10.0)
    assert bundle.scenario.pose.phi == pytest.approx(np.pi / 6.0)
    np.testing.assert_allclose(
        bundle.target_xy, [10.0 * np.cos(np.pi / 6.0), 5.0], rtol=1e-12
    )


def test_polar_target_rejects_constellations():
    doc = _doc(
        target={"d": 10.0, "phi": 30.0, "heading": 0.0},
        radar=[{"x": 0, "y": 0, "kappa": 0, "N": 30},
               {"x": 5, "y": 5, "kappa": 0, "N": 30}],
    )
    with pytest.raises(ScenarioError, match="single radar"):
        normalize(doc)


def test_normalized_document_is_a_fixed_point():
    nd = normalize(_doc())
    text = dumps_normalized(nd)
    again = normalize(json.loads(text))
    assert again == nd
    assert dumps_normalized(again) == text


def test_load_file_bundle(bundle):
    assert bundle.scenario.contour.q == 10
    assert bundle.scenario.array_n == 30
    assert bundle.segmentation.segment_length == pytest.approx(0.2)
    assert len(bundle.radars) == 1
    np.testing.assert_allclose(bundle.target_xy, [6.0, 3.0])
    assert bundle.document == normalize(json.loads(SCENARIO_FILE.read_text()))


def test_validation_errors():
    with pytest.raises(ScenarioError, match="channel"):
        normalize({k: v for k, v in MINIMAL.items() if k != "channel"})
    with pytest.raises(ScenarioError, match="waveform"):
        normalize({k: v for k, v in MINIMAL.items() if k != "waveform"})
    with pytest.raises(ScenarioError, match="heading"):
        normalize(_doc(target={"x": 6, "y": 3}))
    with pytest.raises(ScenarioError, match="unknown top-level"):
        normalize(_doc(extra={}))
    with pytest.raises(ScenarioError, match="integer"):
        normalize(_doc(radar=[{"x": 0, "y": 0, "kappa": 0, "N": True}]))
    with pytest.raises(ScenarioError):
        normalize(_doc(radar=[{"x": 0, "y": 0, "kappa": 0, "N": 1}]))
    with pytest.raises(ScenarioError, match="anti-clockwise"):
        build(normalize(_doc(contour={"m": [-2.0], "n": [1.0]})))
    with pytest.raises(ScenarioError):
        normalize(_doc(contour={"m": [2.0, 0.1], "n": [1.0]}))
    # counts are JSON integers: 10.0 and true are not
    for key, doc in (
        ("contour.Q", _doc(contour={"Q": 1.0, "m": [2.0], "n": [1.0]})),
        ("contour.Q", _doc(contour={"Q": True, "m": [2.0], "n": [1.0]})),
        ("quadrature.nodes", _doc(quadrature={"nodes": True})),
    ):
        with pytest.raises(ScenarioError, match=rf"^{re.escape(key)} must be an integer"):
            normalize(doc)
    # a carrier at or below 0 Hz has no wavelength
    for fc in (0, -77e9):
        with pytest.raises(ScenarioError, match="carrier"):
            build(_doc(waveform={"B": 1e9, "T": 1e-5, "fc": fc}))
    # a section or radar entry that is not an object is named, not iterated
    for key, doc in (
        ("contour", _doc(contour=5)),
        ("radar[0]", _doc(radar=[5])),
        ("target", _doc(target=[1, 2])),
        ("target", _doc(target=5)),
        ("quadrature", _doc(quadrature=[1])),
        ("channel", _doc(channel="x")),
    ):
        with pytest.raises(ScenarioError, match=rf"^{re.escape(key)} must be a JSON object"):
            normalize(doc)
    # json parses NaN and Infinity; no number in a scenario may be either
    nan, inf = float("nan"), float("inf")
    for key, doc in (
        ("channel.E_over_N0_dB", _doc(channel={"alpha": 5, "E_over_N0_dB": nan})),
        ("channel.alpha", _doc(channel={"alpha": nan, "E_over_N0_dB": 40})),
        ("target.heading", _doc(target={"x": 6, "y": 3, "heading": nan})),
        ("segmentation.lR", _doc(segmentation={"lR": nan})),
        ("waveform.B", _doc(waveform={"B": inf, "T": 1e-5})),
        ("contour.m", _doc(contour={"m": [2.0, -inf], "n": [1.0, 0.0]})),
    ):
        with pytest.raises(ScenarioError, match=key.replace(".", r"\.")):
            normalize(doc)
    # a number is a finite float64: a JSON integer beyond its range is refused
    for key, doc in (
        ("target.x", _doc(target={"x": 10**400, "y": 3, "heading": 90})),
        ("channel.alpha", _doc(channel={"alpha": 10**400, "E_over_N0_dB": 40})),
        ("contour.m", _doc(contour={"m": [2.0, 10**400], "n": [1.0, 0.0]})),
    ):
        with pytest.raises(ScenarioError, match=rf"^{re.escape(key)} must be .*finite number"):
            normalize(doc)
    # an angle that is a finite float64 but no int64 reaches numpy as a float
    big = 10**30
    for doc in (_doc(target={"x": 6, "y": 3, "heading": big}),
                _doc(target={"d": 10, "phi": big, "heading": 0}),
                _doc(radar=[{"kappa": big, "N": 30}])):
        build(doc)
    # schema-1 documents carry split_at_shadow: false; it loads and is dropped
    legacy = build(_doc(quadrature={"nodes": 512, "split_at_shadow": False}))
    assert legacy.document["quadrature"] == {"nodes": 512}
    with pytest.raises(ScenarioError, match="split_at_shadow was removed"):
        normalize(_doc(quadrature={"split_at_shadow": True}))


@pytest.mark.parametrize("nodes", [32, 100, 60, 8])
def test_quadrature_nodes_off_the_rule_exit_one(tmp_path, capsys, nodes):
    # a bound is sized on every fourth or every second node, and screened
    # against every eighth, so nodes is a multiple of 8 of at least 64
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_doc(quadrature={"nodes": nodes})))
    assert entry(["bounds", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: quadrature.nodes must be a multiple of 8 of at least 64, "
                   f"got {nodes}\n")


@pytest.mark.parametrize("nodes", [64, 512, 1024, 4096])
def test_quadrature_nodes_on_the_rule_load(nodes):
    assert build(_doc(quadrature={"nodes": nodes})).scenario.quadrature.nodes == nodes


def _fuzz_bases():
    vehicle = json.loads(SCENARIO_FILE.read_text())
    polar, gain, explicit = (json.loads(json.dumps(vehicle)) for _ in range(3))
    polar["target"] = {"d": 6.7, "phi": 26.6, "heading": 90.0}
    gain["channel"] = {"alpha": 5, "gain": 1.0}
    explicit["waveform"].update(fs=4e9, fc=24e9)
    return {"vehicle": vehicle, "polar": polar, "gain": gain, "explicit": explicit}


FUZZ_VALUES = (0, -1, 1e300, -1e300, 1e-300, 10**30, 10**400, True, False, "x",
               None, [], {}, [1.0], float("nan"), float("inf"))


@pytest.mark.filterwarnings("ignore:time-bandwidth product:UserWarning")
@pytest.mark.parametrize("base", ["vehicle", "polar", "gain", "explicit"])
def test_every_field_at_an_extreme_loads_or_is_one_error_line(tmp_path, capsys, base):
    """Each key of the schema, set in turn to each extreme value, gives exit
    0 or one error line (exit 1) at load, never a traceback."""
    doc = _fuzz_bases()[base]
    path = tmp_path / "fuzz.json"
    failures = []
    for section, fields in _SCHEMA.items():
        if section == "target" and "d" in doc["target"]:
            fields = _POLAR_TARGET
        for key in fields:
            for value in FUZZ_VALUES:
                edited = json.loads(json.dumps(doc))
                (edited["radar"][0] if section == "radar" else edited[section])[key] = value
                path.write_text(json.dumps(edited))
                case = f"{section}.{key} = {value!r}"[:60]
                try:
                    code = entry(["bounds", "--scenario", str(path), "--print-normalized"])
                except Exception as err:  # a traceback is the failure
                    failures.append(f"{case}: {type(err).__name__}: {err}")
                    continue
                err = capsys.readouterr().err
                if code == 1 and not re.fullmatch(r"error: [^\n]*\n", err):
                    failures.append(f"{case}: stderr {err!r}")
                elif code not in (0, 1):
                    failures.append(f"{case}: exit {code}")
    assert failures == []


NAN, INF = float("nan"), float("inf")
_NON_FINITE = {
    "contour-nan": lambda sc: ContourParams([2.0, NAN], [1.0, 0.0]),
    "contour-inf": lambda sc: ContourParams([2.0, INF], [1.0, 0.0]),
    "bandwidth": lambda sc: WaveformSpec(bandwidth=NAN, duration=1e-5),
    "duration": lambda sc: WaveformSpec(bandwidth=1e9, duration=NAN),
    "sample-rate": lambda sc: WaveformSpec(bandwidth=1e9, duration=1e-5, sample_rate=NAN),
    "carrier": lambda sc: WaveformSpec(bandwidth=1e9, duration=1e-5, carrier=NAN),
    "n0": lambda sc: EnergySpec(e_over_n0_db=40.0, n0=NAN),
    "gain": lambda sc: EnergySpec(gain=NAN),
    "bearing": lambda sc: TargetPose(d=6.7, phi=NAN, heading=1.0),
    "heading": lambda sc: TargetPose(d=6.7, phi=0.3, heading=INF),
    "kappa": lambda sc: RadarPose(position=[0.0, 0.0], kappa=NAN),
    "radar-position": lambda sc: RadarPose(position=[NAN, 0.0]),
    "segment": lambda sc: SegmentationConfig(NAN),
    "array": lambda sc: replace(sc, array_n=NAN),
    "alpha": lambda sc: replace(sc, alpha=NAN),
    "radius": lambda sc: uniform_constellation([6.0, 3.0], 3, NAN),
}


@pytest.mark.parametrize("make", _NON_FINITE.values(), ids=_NON_FINITE.keys())
def test_library_refuses_non_finite_input(scenario, make):
    """A NaN fails every bound a constructor checks, and contour
    coefficients, angles and radar positions must be finite: each is a
    ScenarioError where it is built, not a NaN perimeter, a RuntimeWarning,
    an untyped ValueError later or a misleading NoIlluminationError. Scenario files never get this far: the
    schema refuses non-finite numbers at load."""
    with pytest.raises(ScenarioError):
        make(scenario)


# (field named in the error, constructor call)
_INFINITE = {
    "bandwidth": ("waveform bandwidth", lambda: WaveformSpec(bandwidth=INF, duration=1e-5)),
    "duration": ("waveform duration", lambda: WaveformSpec(bandwidth=1e9, duration=INF)),
    "sample-rate": ("waveform sample rate",
                    lambda: WaveformSpec(bandwidth=1e9, duration=1e-5, sample_rate=INF)),
    "sample-rate-2B": ("waveform sample rate",
                       lambda: WaveformSpec(bandwidth=1.7e308, duration=1e-5)),
    "carrier": ("waveform carrier",
                lambda: WaveformSpec(bandwidth=1e9, duration=1e-5, carrier=INF)),
    "range": ("target range", lambda: TargetPose(d=INF, phi=0.3, heading=1.0)),
    "gain": ("gain", lambda: EnergySpec(gain=INF)),
    "n0": ("noise PSD", lambda: EnergySpec(gain=1.0, n0=INF)),
}


@pytest.mark.parametrize("field, make", _INFINITE.values(), ids=_INFINITE.keys())
def test_library_refuses_infinite_input(field, make):
    """+inf passes every "positive" bound that refuses NaN, so each field is
    also held finite: a ScenarioError naming the field where the spec is
    built, where an infinite duration or bandwidth used to end in an
    untyped OverflowError at WaveformSpec.samples. A bandwidth whose
    default sample rate 2B overflows is refused as well; a scenario file
    reaches that one (B = 1.7e308)."""
    with pytest.raises(ScenarioError, match=f"^{field} must be finite, got inf"):
        make()


def test_library_refuses_a_sample_count_that_overflows():
    """Finite B, T and fs whose product T fs (the sample count) overflows:
    a ScenarioError naming both fields, where WaveformSpec.samples used to
    end in an untyped OverflowError."""
    with pytest.raises(ScenarioError, match=r"^waveform duration times sample rate "
                       r"\(the sample count\) must be finite, got 1e\+300 s x 2e\+09 Hz$"):
        WaveformSpec(bandwidth=1e9, duration=1e300)


@pytest.mark.parametrize("make, message", [
    (lambda: WaveformSpec(bandwidth=0.0, duration=1e-5),
     "waveform needs positive bandwidth and duration"),
    (lambda: WaveformSpec(bandwidth=-INF, duration=1e-5),
     "waveform needs positive bandwidth and duration"),
    (lambda: WaveformSpec(bandwidth=1e9, duration=-1e-5),
     "waveform needs positive bandwidth and duration"),
    (lambda: TargetPose(d=0.0, phi=0.3, heading=1.0), "target range must be positive, got 0.0"),
    (lambda: TargetPose(d=-INF, phi=0.3, heading=1.0), "target range must be positive, got -inf"),
], ids=["B-zero", "B-minus-inf", "T-negative", "d-zero", "d-minus-inf"])
def test_non_positive_input_keeps_its_error_text(make, message):
    """The texts a scenario file reaches (B <= 0, d <= 0) are unchanged."""
    with pytest.raises(ScenarioError) as err:
        make()
    assert str(err.value) == message


def test_a_file_whose_default_sample_rate_overflows_is_one_error_line(tmp_path, capsys):
    doc = json.loads(SCENARIO_FILE.read_text())
    doc["waveform"] = {"B": 1.7e308, "T": 1e-5}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert entry(["bounds", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == "error: waveform sample rate must be finite, got inf\n"
