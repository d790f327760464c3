"""Long-range block decomposition and its closed-form bounds."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from conftest import SCENARIO_FILE, mp_inverse_gram

from hcrb.asymptotics import (
    hcrb_known_shape,
    hcrb_unknown_shape,
    t_blocks,
    unknown_shape_projection,
)
from hcrb.contour import TargetPose, pose_field
from hcrb.errors import IdentifiabilityError
from hcrb.fisher import efim_exact, field_stack, hcrb_exact, point_target_crb
from hcrb.scenario_io import build


@pytest.fixture(scope="module")
def blocks(scenario):
    return t_blocks(scenario)


def test_block_structure(blocks):
    assert blocks.t11.shape == (3, 3)
    npt.assert_allclose(blocks.t11, blocks.t11.T, rtol=1e-12)
    npt.assert_allclose(blocks.t22, blocks.t22.T, rtol=1e-12)
    eig = np.linalg.eigvalsh(blocks.t22)
    assert eig.min() >= -1e-10 * max(eig.max(), 1e-300)
    full = blocks.t_full
    npt.assert_allclose(full[:3, :3], blocks.t11, rtol=1e-12)
    npt.assert_allclose(full[3:, :3], blocks.t21, rtol=1e-12)


def test_closed_form_matches_numeric_inverse(blocks):
    rep = hcrb_known_shape(blocks)
    closed = np.array([rep.c_range, rep.c_bearing, rep.c_heading])
    numeric = np.diag(np.linalg.inv(blocks.t11)) / (2.0 * blocks.e_over_n0)
    npt.assert_allclose(closed, numeric, rtol=1e-10)


def test_known_shape_frozen(blocks):
    rep = hcrb_known_shape(blocks)
    assert rep.c_range == pytest.approx(4.2928791601866925e-07, rel=1e-9)
    assert rep.c_bearing == pytest.approx(8.45282399685799e-08, rel=1e-9)
    assert rep.c_heading == pytest.approx(6.482173222501443e-07, rel=1e-9)


def test_unknown_shape_frozen(blocks):
    # the 40-digit reference of test_unknown_shape_matches_reference
    rep = hcrb_unknown_shape(blocks)
    assert rep.c_range == pytest.approx(1.4274007123017596, rel=1e-11)
    assert rep.c_bearing == pytest.approx(8.45282399685799e-08, rel=1e-9)
    assert rep.c_heading == pytest.approx(0.64242136687302265, rel=1e-11)


@pytest.mark.parametrize("pose", [None, TargetPose(20.0, 0.4, 1.2)],
                         ids=["vehicle", "other"])
def test_unknown_shape_matches_reference(scenario, pose):
    """The closed forms on the QR's Schur block against a 40-digit inverse
    of the T that the float64 far-field stack defines."""
    if pose is not None:
        scenario = scenario.with_pose(pose)
    field = pose_field(scenario)
    stack = field_stack(scenario, field, far_field=True)
    reference = mp_inverse_gram([stack])
    rep = hcrb_unknown_shape(t_blocks(scenario, field))
    scale = 2.0 * scenario.e_over_n0(field.w_norm_sq)
    for i, value in enumerate((rep.c_range, rep.c_bearing, rep.c_heading)):
        assert value == pytest.approx(float(reference[i, i]) / scale, rel=1e-12)


def test_algebraic_equals_projection_route(scenario):
    blocks = t_blocks(scenario)
    # the projection route builds its fields from the stack's rows; t_blocks
    # keeps no field of length 2K, K the quadrature node count
    k = scenario.quadrature.nodes
    kept = [np.shape(getattr(value, "values", value))
            for value in vars(blocks).values()]
    assert not any(shape and shape[-1] == 2 * k for shape in kept)
    alg = hcrb_unknown_shape(blocks)
    proj = unknown_shape_projection(blocks)
    assert proj["c_range"] == pytest.approx(alg.c_range, rel=1e-11)
    assert proj["c_heading"] == pytest.approx(alg.c_heading, rel=1e-11)
    assert proj["l_prime"] > 0.0 and proj["b_prime"] > 0.0


def test_radar_facing_pose_has_no_unknown_shape_bound():
    """With the bow facing the radar the shape block T22 is singular: both
    unknown-shape routes raise rather than report a regularized number, and
    the known-shape bounds stay finite."""
    doc = json.loads(SCENARIO_FILE.read_text())
    doc["target"]["heading"] = 206.565
    facing = build(doc).scenario
    blocks = t_blocks(facing)
    for route in (hcrb_unknown_shape, unknown_shape_projection):
        with pytest.raises(IdentifiabilityError):
            route(blocks)
    for report in (hcrb_known_shape(blocks), hcrb_exact(facing, contour_known=True)):
        variances = [report.c_range, report.c_bearing, report.c_heading]
        assert np.all(np.isfinite(variances)) and min(variances) > 0.0


def test_heading_split(scenario, blocks):
    # the known-shape heading variance is the point-bearing floor 1/Z plus
    # the contour-induced excess L / (L B - A^2); B^-1 is its upper proxy
    scale = 1.0 / (2.0 * blocks.e_over_n0)
    bearing_floor = scale / blocks.big_z
    excess_exact = scale * blocks.big_l / (blocks.big_l * blocks.b_coef
                                           - blocks.a_coef**2)
    excess_proxy = scale / blocks.b_coef
    rep = hcrb_known_shape(blocks)
    assert bearing_floor + excess_exact == pytest.approx(rep.c_heading, rel=1e-12)
    # the floor is exactly the point-target direction bound
    crb = point_target_crb(scenario)
    assert bearing_floor == pytest.approx(crb[1, 1], rel=1e-12)
    assert excess_exact > 0.0
    assert excess_proxy > 0.0


def test_orientation_bound_dominates_direction(scenario, blocks):
    for rep in (hcrb_known_shape(blocks), hcrb_unknown_shape(blocks)):
        assert rep.c_heading >= rep.c_bearing
    exact = hcrb_exact(scenario, contour_known=True)
    assert exact.c_heading >= exact.c_bearing


def test_unknown_never_below_known(blocks):
    known = hcrb_known_shape(blocks)
    unknown = hcrb_unknown_shape(blocks)
    assert unknown.c_range >= known.c_range
    assert unknown.c_heading >= known.c_heading
    assert unknown.c_bearing == pytest.approx(known.c_bearing, rel=1e-12)


def test_leading_block_approximates_efim_far_out(scenario):
    """At 200 m the pose block of J/(2E/N0) is close to T11.

    Off-diagonal entries are near zero, so the gap is measured against the
    diagonal scale rather than entrywise.
    """
    far = scenario.with_pose(TargetPose(200.0, scenario.pose.phi,
                                        scenario.pose.heading))
    j3 = efim_exact(far).matrix[:3, :3] / (2.0e4)
    t11 = t_blocks(far).t11
    scale = np.sqrt(np.outer(np.diag(t11), np.diag(t11)))
    assert np.max(np.abs(j3 - t11) / scale) < 0.02


def test_known_shape_matches_exact_at_80m(scenario):
    far = scenario.with_pose(TargetPose(80.0, scenario.pose.phi,
                                        scenario.pose.heading))
    exact = hcrb_exact(far, contour_known=True)
    asym = hcrb_known_shape(t_blocks(far))
    assert asym.c_range == pytest.approx(exact.c_range, rel=0.02)
    assert asym.c_bearing == pytest.approx(exact.c_bearing, rel=0.02)
    assert asym.c_heading == pytest.approx(exact.c_heading, rel=0.02)
