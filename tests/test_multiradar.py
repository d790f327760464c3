"""Multi-radar fusion: local re-centering, chain rule, constellation bounds."""

import numpy as np
import numpy.testing as npt
import pytest

from hcrb.contour import wrap_angle
from hcrb.errors import IdentifiabilityError, ScenarioError
from hcrb.fisher import efim_exact
from hcrb.multiradar import (
    RadarPose,
    _chain_matrix,
    fuse,
    peb,
    radar_local_scenario,
    uniform_constellation,
)

TARGET = np.array([6.0, 3.0])
HEADING = np.pi / 2.0


def test_origin_radar_reproduces_global_pose(scenario):
    radar = RadarPose(position=np.zeros(2), kappa=0.0, array_n=None)
    local = radar_local_scenario(scenario, TARGET, HEADING, radar)
    assert local.pose.d == pytest.approx(scenario.pose.d, rel=1e-15)
    assert local.pose.phi == pytest.approx(scenario.pose.phi, rel=1e-15)
    assert local.pose.heading == pytest.approx(scenario.pose.heading, rel=1e-15)


def test_local_scenario_energy_override(scenario):
    radar = RadarPose(position=np.array([1.0, -2.0]), kappa=0.3, array_n=16)
    local = radar_local_scenario(scenario, TARGET, HEADING, radar,
                                 e_over_n0_db=33.0)
    assert local.array_n == 16
    assert local.energy.e_over_n0_db == pytest.approx(33.0)
    with pytest.raises(ScenarioError):
        radar_local_scenario(scenario, (1.0, -2.0), HEADING, radar)


def test_chain_matrix_is_polar_jacobian():
    radar = np.array([3.0, -2.0])
    target = TARGET

    def local_params(p):
        delta = p - radar
        return np.array([np.hypot(*delta), np.arctan2(delta[1], delta[0])])

    h = 1e-7
    fd = np.empty((2, 2))
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        fd[:, j] = (local_params(target + step) - local_params(target - step)) / (2 * h)
    delta = target - radar
    chain = _chain_matrix(delta, float(np.hypot(*delta)), 5)
    npt.assert_allclose(chain[:2, :2], fd.T, atol=1e-7)
    npt.assert_allclose(chain[2:, 2:], np.eye(3), atol=0)


def test_fused_information_is_sum_of_psd_contributions(scenario):
    radars = uniform_constellation(TARGET, 3, 7.0, start_angle=0.9)
    fused = fuse(scenario, TARGET, HEADING, radars, total_e_over_n0_db=40.0)
    total = np.zeros_like(fused.matrix)
    for contrib in fused.contributions:
        npt.assert_allclose(contrib, contrib.T, rtol=1e-10)
        eig = np.linalg.eigvalsh(contrib)
        assert eig.min() >= -1e-8 * eig.max()
        total += contrib
    npt.assert_allclose(fused.matrix, total, rtol=1e-12)
    assert fused.labels[:3] == ("px", "py", "heading")
    assert len(fused.labels) == 3 + 2 * scenario.contour.q


def test_known_contour_fusion_is_the_pose_block(scenario):
    """Fusing only the per-radar pose blocks gives the pose block of the
    unknown-contour fusion, since the chain matrices leave shape rows alone."""
    radars = uniform_constellation(TARGET, 3, 7.0, start_angle=0.9)
    unknown = fuse(scenario, TARGET, HEADING, radars, total_e_over_n0_db=40.0)
    known = fuse(scenario, TARGET, HEADING, radars, total_e_over_n0_db=40.0,
                 contour_known=True)
    pose_only = np.zeros((3, 3))
    for radar, local in zip(radars, unknown.scenarios):
        chain = _chain_matrix(TARGET - radar.position, local.pose.d, 3)
        pose_only += chain @ efim_exact(local).matrix[:3, :3] @ chain.T
    npt.assert_allclose(known.matrix, unknown.matrix[:3, :3], rtol=1e-12, atol=0)
    npt.assert_allclose(known.matrix, pose_only, rtol=1e-12, atol=0)
    assert known.labels == unknown.labels[:3] == ("px", "py", "heading")
    assert peb(known) <= peb(unknown)


def test_energy_budget_split(scenario):
    radars = uniform_constellation(TARGET, 4, 7.0, start_angle=0.9)
    fused = fuse(scenario, TARGET, HEADING, radars, total_e_over_n0_db=40.0)
    per = 40.0 - 10.0 * np.log10(4.0)
    for local in fused.scenarios:
        assert local.energy.e_over_n0_db == pytest.approx(per)


def test_uniform_constellation_geometry():
    count, radius, start = 4, 7.0, 0.9
    radars = uniform_constellation(TARGET, count, radius, start_angle=start)
    assert len(radars) == count
    for k, radar in enumerate(radars):
        angle = start + 2.0 * np.pi * k / count
        npt.assert_allclose(
            radar.position,
            TARGET + radius * np.array([np.cos(angle), np.sin(angle)]),
            atol=1e-12,
        )
        # broadside pointed back at the target
        to_target = np.arctan2(*(TARGET - radar.position)[::-1])
        assert wrap_angle(radar.kappa - to_target) == pytest.approx(0.0, abs=1e-12)


def test_peb_invariant_under_rigid_motion(scenario):
    radars = uniform_constellation(TARGET, 3, 7.0, start_angle=0.4)
    base = peb(fuse(scenario, TARGET, HEADING, radars,
                    total_e_over_n0_db=40.0))

    shift = np.array([-12.0, 4.5])
    moved = [RadarPose(r.position + shift, r.kappa, r.array_n) for r in radars]
    shifted = peb(fuse(scenario, TARGET + shift, HEADING, moved,
                       total_e_over_n0_db=40.0))
    assert shifted == pytest.approx(base, rel=1e-9)

    delta = 0.61
    rot = np.array([[np.cos(delta), -np.sin(delta)],
                    [np.sin(delta), np.cos(delta)]])
    spun = [RadarPose(rot @ r.position, wrap_angle(r.kappa + delta), r.array_n)
            for r in radars]
    rotated = peb(fuse(scenario, rot @ TARGET, wrap_angle(HEADING + delta), spun,
                       total_e_over_n0_db=40.0))
    assert rotated == pytest.approx(base, rel=1e-9)


def test_second_radar_never_hurts(scenario):
    one = uniform_constellation(TARGET, 1, 7.0, start_angle=0.9)
    two = uniform_constellation(TARGET, 2, 7.0, start_angle=0.9)
    peb1 = peb(fuse(scenario, TARGET, HEADING, one, total_e_over_n0_db=40.0))
    peb2 = peb(fuse(scenario, TARGET, HEADING, two, total_e_over_n0_db=40.0))
    assert peb2 <= peb1


def test_bow_on_single_radar_is_singular(scenario):
    """A lone radar staring at the bow sees a shape-degenerate contour slice."""
    target = np.array([0.0, 7.0])
    radars = [RadarPose(position=np.zeros(2), kappa=np.pi / 2.0, array_n=None)]
    fused = fuse(scenario, target, np.pi / 2.0, radars, total_e_over_n0_db=40.0)
    with pytest.raises(IdentifiabilityError) as err:
        fused.covariance()
    assert err.value.null_space is not None


def test_fuse_requires_radars(scenario):
    with pytest.raises(ScenarioError):
        fuse(scenario, TARGET, HEADING, [])
