"""Long-range bound: the QR route against the paper's block structure,
its closed forms and the projection route (tests/referees.py)."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from conftest import SCENARIO_FILE, mp_inverse_gram
from referees import pose_inverse, unknown_shape_projection

from hcrb.asymptotics import t_blocks
from hcrb.contour import TargetPose, pose_field
from hcrb.errors import IdentifiabilityError
from hcrb.fisher import (
    efim_exact,
    field_stack,
    hcrb_exact,
    point_target_crb,
    radar_constants,
)
from hcrb.scenario_io import build


def _energy(scenario):
    """2 E/N0, the factor between the long-range information and T."""
    return 2.0 * scenario.e_over_n0(pose_field(scenario).w_norm_sq)


def _pose_constants(scenario, far):
    """(L, A, B, Z) of the information's pose block: L and Z from the radar
    constants, A and B read off the information."""
    energy = _energy(scenario)
    big_l, _, big_z = radar_constants(scenario)
    j = far.matrix
    return energy * big_l, j[0, 1], j[2, 2], energy * big_z


@pytest.fixture(scope="module")
def far(scenario):
    return t_blocks(scenario)


def test_block_structure(scenario, far):
    t = far.matrix / _energy(scenario)
    npt.assert_allclose(t, t.T, rtol=1e-12)
    big_l, _, big_z = radar_constants(scenario)
    a, b = t[0, 1], t[2, 2]
    pattern = np.array([[big_l, a, -a], [a, big_z + b, -b], [-a, -b, b]])
    scale = np.sqrt(np.outer(np.diag(pattern), np.diag(pattern)))
    assert np.max(np.abs(t[:3, :3] - pattern) / scale) < 1e-12
    eig = np.linalg.eigvalsh(t[3:, 3:])
    assert eig.min() >= -1e-10 * max(eig.max(), 1e-300)


def test_closed_form_matches_numeric_inverse(scenario, far):
    rep = far.pose_block().crb()
    closed = pose_inverse(*_pose_constants(scenario, far))
    npt.assert_allclose(rep.covariance, closed, rtol=1e-10, atol=1e-10 * closed.max())
    numeric = np.linalg.inv(far.matrix[:3, :3])
    npt.assert_allclose(np.diag(rep.covariance), np.diag(numeric), rtol=1e-10)


def test_known_shape_frozen(far):
    rep = far.pose_block().crb()
    assert rep.c_range == pytest.approx(4.2928791601866925e-07, rel=1e-9)
    assert rep.c_bearing == pytest.approx(8.45282399685799e-08, rel=1e-9)
    assert rep.c_heading == pytest.approx(6.482173222501443e-07, rel=1e-9)


def test_unknown_shape_frozen(far):
    # the 40-digit reference of test_unknown_shape_matches_reference
    rep = far.crb()
    assert rep.c_range == pytest.approx(1.4274007123017596, rel=1e-11)
    assert rep.c_bearing == pytest.approx(8.45282399685799e-08, rel=1e-9)
    assert rep.c_heading == pytest.approx(0.64242136687302265, rel=1e-11)


@pytest.mark.parametrize("pose", [None, TargetPose(20.0, 0.4, 1.2)],
                         ids=["vehicle", "other"])
def test_unknown_shape_matches_reference(scenario, pose):
    """The QR route against a 40-digit inverse of the information that the
    float64 far-field stack defines."""
    if pose is not None:
        scenario = scenario.with_pose(pose)
    far = t_blocks(scenario)
    stack = field_stack(scenario, far_field=True, nodes=far.nodes)
    reference = mp_inverse_gram([stack])
    rep = far.crb()
    for i, value in enumerate((rep.c_range, rep.c_bearing, rep.c_heading)):
        assert value == pytest.approx(float(reference[i, i]), rel=1e-12)


def test_algebraic_equals_projection_route(scenario, far):
    # the projection route builds its fields from the stack's rows; t_blocks
    # keeps no field of length 2K, K the quadrature node count
    k = scenario.quadrature.nodes
    kept = [np.shape(getattr(value, "values", value))
            for value in vars(far).values()]
    assert not any(shape and shape[-1] == 2 * k for shape in kept)
    alg = far.crb()
    stack = field_stack(scenario, far_field=True, nodes=far.nodes)
    proj = unknown_shape_projection(stack, _pose_constants(scenario, far)[3])
    assert proj["c_range"] == pytest.approx(alg.c_range, rel=1e-11)
    assert proj["c_heading"] == pytest.approx(alg.c_heading, rel=1e-11)
    assert proj["l_prime"] > 0.0 and proj["b_prime"] > 0.0


def test_radar_facing_pose_has_no_unknown_shape_bound():
    """With the bow facing the radar the shape block T22 is singular: the
    unknown-shape bound and the projection route raise rather than report a
    regularized number, and the known-shape bounds stay finite."""
    doc = json.loads(SCENARIO_FILE.read_text())
    doc["target"]["heading"] = 206.565
    facing = build(doc).scenario
    far = t_blocks(facing)
    with pytest.raises(IdentifiabilityError):
        far.crb()
    stack = field_stack(facing, far_field=True)
    with pytest.raises(IdentifiabilityError):
        unknown_shape_projection(stack, _pose_constants(facing, far)[3])
    for report in (far.pose_block().crb(), hcrb_exact(facing, contour_known=True)):
        variances = [report.c_range, report.c_bearing, report.c_heading]
        assert np.all(np.isfinite(variances)) and min(variances) > 0.0


def test_heading_split(scenario, far):
    # the known-shape heading variance is the point-bearing floor 1/Z plus
    # the contour-induced excess L / (L B - A^2); B^-1 is its upper proxy
    big_l, a, b, big_z = _pose_constants(scenario, far)
    bearing_floor = 1.0 / big_z
    excess_exact = big_l / (big_l * b - a**2)
    excess_proxy = 1.0 / b
    rep = far.pose_block().crb()
    assert bearing_floor + excess_exact == pytest.approx(rep.c_heading, rel=1e-12)
    # the floor is exactly the point-target direction bound
    crb = point_target_crb(scenario)
    assert bearing_floor == pytest.approx(crb[1, 1], rel=1e-12)
    assert excess_exact > 0.0
    assert excess_proxy > 0.0


def test_orientation_bound_dominates_direction(scenario, far):
    for rep in (far.pose_block().crb(), far.crb()):
        assert rep.c_heading >= rep.c_bearing
    exact = hcrb_exact(scenario, contour_known=True)
    assert exact.c_heading >= exact.c_bearing


def test_unknown_never_below_known(far):
    known = far.pose_block().crb()
    unknown = far.crb()
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
    t11 = t_blocks(far).matrix[:3, :3] / (2.0e4)
    scale = np.sqrt(np.outer(np.diag(t11), np.diag(t11)))
    assert np.max(np.abs(j3 - t11) / scale) < 0.02


def test_known_shape_matches_exact_at_80m(scenario):
    far = scenario.with_pose(TargetPose(80.0, scenario.pose.phi,
                                        scenario.pose.heading))
    exact = hcrb_exact(far, contour_known=True)
    asym = t_blocks(far).pose_block().crb()
    assert asym.c_range == pytest.approx(exact.c_range, rel=0.02)
    assert asym.c_bearing == pytest.approx(exact.c_bearing, rel=0.02)
    assert asym.c_heading == pytest.approx(exact.c_heading, rel=0.02)
