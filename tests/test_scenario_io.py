"""Scenario JSON schema: defaults, unit conversion, validation."""

import json
import re

import numpy as np
import pytest

from conftest import SCENARIO_FILE

from hcrb.errors import ScenarioError
from hcrb.scenario_io import build, dumps_normalized, load_file, normalize

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
    # schema-1 documents carry split_at_shadow: false; it loads and is dropped
    legacy = build(_doc(quadrature={"nodes": 512, "split_at_shadow": False}))
    assert legacy.document["quadrature"] == {"nodes": 512}
    with pytest.raises(ScenarioError, match="split_at_shadow was removed"):
        normalize(_doc(quadrature={"split_at_shadow": True}))
