"""Multi-radar fusion: local re-centering, chain rule, constellation bounds."""

import json
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from conftest import SCENARIO_FILE, mp_inverse_gram

from hcrb.contour import wrap_angle
from hcrb.errors import IdentifiabilityError, ScenarioError
from hcrb.experiments import BOW_OFFSET, run_diversity
from hcrb.fisher import efim_exact, field_stack
from hcrb.multiradar import (
    RadarPose,
    _chain_matrix,
    fuse,
    peb,
    radar_local_scenario,
    uniform_constellation,
    unit_energy,
)
from hcrb.scenario import EnergySpec
from hcrb.scenario_io import build

TARGET = np.array([6.0, 3.0])
HEADING = np.pi / 2.0


def test_origin_radar_reproduces_global_pose(scenario):
    radar = RadarPose(position=np.zeros(2), kappa=0.0, array_n=None)
    local = radar_local_scenario(scenario, TARGET, HEADING, radar)
    assert local.pose.d == pytest.approx(scenario.pose.d, rel=1e-15)
    assert local.pose.phi == pytest.approx(scenario.pose.phi, rel=1e-15)
    assert local.pose.heading == pytest.approx(scenario.pose.heading, rel=1e-15)
    # Re-centering a file's scenario on its own first radar changes no bit
    # of the pose, whatever the offset, boresight, heading or bearing sign:
    # the multi-radar bounds path fuses from the file's scenario.
    cases = (
        ({"x": 3.5, "y": -2.0, "kappa": 250.0}, {"x": -4.0, "y": -9.0, "heading": -300.0}),
        ({"x": -7.0, "y": 5.0, "kappa": -200.0}, {"x": 8.0, "y": -6.5, "heading": 365.0}),
        ({"x": 12.0, "y": 0.0, "kappa": 180.0}, {"x": 6.0, "y": 3.0, "heading": -190.0}),
        ({"x": 1.0, "y": 2.0, "kappa": -359.0}, {"x": -6.0, "y": -0.5, "heading": 719.0}),
    )
    doc = json.loads(SCENARIO_FILE.read_text())
    for first, target in cases:
        doc["radar"] = [dict(first, N=30), {"x": 30.0, "y": 30.0, "kappa": 45.0, "N": 16}]
        doc["target"] = target
        b = build(doc)
        local = radar_local_scenario(b.scenario, b.target_xy, b.heading, b.radars[0])
        assert local.pose == b.scenario.pose, (first, target)


def test_local_scenario_energy_override(scenario):
    radar = RadarPose(position=np.array([1.0, -2.0]), kappa=0.3, array_n=16)
    local = radar_local_scenario(scenario.with_e_over_n0_db(33.0), TARGET, HEADING,
                                 radar)
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
    per = 40.0 - 10.0 * np.log10(3.0)
    for radar in radars:
        local = radar_local_scenario(scenario.with_e_over_n0_db(per), TARGET, HEADING,
                                     radar)
        j_local = efim_exact(local).matrix
        chain = _chain_matrix(TARGET - radar.position, local.pose.d, j_local.shape[0])
        contrib = chain @ j_local @ chain.T
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
    known = unknown.pose_block()
    pose_only = np.zeros((3, 3))
    per = 40.0 - 10.0 * np.log10(3.0)
    for radar in radars:
        local = radar_local_scenario(scenario.with_e_over_n0_db(per), TARGET, HEADING,
                                     radar)
        chain = _chain_matrix(TARGET - radar.position, local.pose.d, 3)
        pose_only += chain @ efim_exact(local).matrix[:3, :3] @ chain.T
    npt.assert_allclose(known.matrix, unknown.matrix[:3, :3], rtol=1e-12, atol=0)
    npt.assert_allclose(known.matrix, pose_only, rtol=1e-12, atol=0)
    assert known.labels == unknown.labels[:3] == ("px", "py", "heading")
    assert peb(known.crb()) <= peb(unknown.crb())


@pytest.mark.parametrize("count", [3, 1], ids=["three_radars", "diversity_1"])
def test_fused_peb_matches_reference(bundle, count):
    """Both PEBs of a fused constellation against a 40-digit inverse of the
    summed information that the float64 per-radar field stacks define, each
    on the grid fuse sized it on (at unit E/N0). One radar is
    run_diversity's first, at its default radius and budget."""
    scenario, target, heading = bundle.scenario, bundle.target_xy, bundle.heading
    radars = uniform_constellation(target, count, 7.0, start_angle=heading - BOW_OFFSET)
    fused = fuse(scenario, target, heading, radars, total_e_over_n0_db=40.0)
    per = 40.0 - 10.0 * np.log10(count)
    stacks, chains = [], []
    for radar in radars:
        local = radar_local_scenario(scenario.with_e_over_n0_db(per), target, heading,
                                     radar)
        sized = efim_exact(radar_local_scenario(unit_energy(scenario), target, heading,
                                                radar))
        stacks.append(field_stack(local, nodes=sized.nodes))
        chains.append(_chain_matrix(target - radar.position, local.pose.d,
                                    stacks[-1].shape[0]))
    for info, rows, size in ((fused, stacks, None), (fused.pose_block(),
                                                     [x[:3] for x in stacks], 3)):
        reference = mp_inverse_gram(rows, [c[:size, :size] for c in chains])
        expected = float((reference[0, 0] + reference[1, 1]) ** 0.5)
        assert peb(info.crb()) == pytest.approx(expected, rel=1e-12)


def test_energy_budget_split(scenario):
    radars = uniform_constellation(TARGET, 4, 7.0, start_angle=0.9)
    fused = fuse(scenario, TARGET, HEADING, radars, total_e_over_n0_db=40.0)
    per = 40.0 - 10.0 * np.log10(4.0)
    each_at_per = fuse(scenario.with_e_over_n0_db(per), TARGET, HEADING, radars)
    npt.assert_allclose(fused.matrix, each_at_per.matrix, rtol=1e-12, atol=0)


def test_budget_ignores_the_template_energy_mode(scenario, bundle):
    """A budget overrides the template's energy, so a physical-gain template
    fuses to the same bits as a fixed-mode one with the same noise PSD."""
    physical = replace(scenario, energy=EnergySpec(gain=2.5, n0=1e-3))
    fixed = replace(scenario, energy=EnergySpec(e_over_n0_db=17.0, n0=1e-3))
    radars = uniform_constellation(TARGET, 3, 7.0, start_angle=0.9)
    got, want = (fuse(template, TARGET, HEADING, radars, total_e_over_n0_db=40.0)
                 for template in (physical, fixed))
    npt.assert_array_equal(got.matrix, want.matrix)
    got, want = (run_diversity(template, bundle.target_xy, bundle.heading).rows
                 for template in (physical, fixed))
    assert got == want


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
                    total_e_over_n0_db=40.0).crb())

    shift = np.array([-12.0, 4.5])
    moved = [RadarPose(r.position + shift, r.kappa, r.array_n) for r in radars]
    shifted = peb(fuse(scenario, TARGET + shift, HEADING, moved,
                       total_e_over_n0_db=40.0).crb())
    assert shifted == pytest.approx(base, rel=1e-9)

    delta = 0.61
    rot = np.array([[np.cos(delta), -np.sin(delta)],
                    [np.sin(delta), np.cos(delta)]])
    spun = [RadarPose(rot @ r.position, wrap_angle(r.kappa + delta), r.array_n)
            for r in radars]
    rotated = peb(fuse(scenario, rot @ TARGET, wrap_angle(HEADING + delta), spun,
                       total_e_over_n0_db=40.0).crb())
    assert rotated == pytest.approx(base, rel=1e-9)


def test_second_radar_never_hurts(scenario):
    one = uniform_constellation(TARGET, 1, 7.0, start_angle=0.9)
    two = uniform_constellation(TARGET, 2, 7.0, start_angle=0.9)
    peb1 = peb(fuse(scenario, TARGET, HEADING, one, total_e_over_n0_db=40.0).crb())
    peb2 = peb(fuse(scenario, TARGET, HEADING, two, total_e_over_n0_db=40.0).crb())
    assert peb2 <= peb1


def test_bow_on_single_radar_is_singular(scenario):
    """A lone radar staring at the bow sees a shape-degenerate contour slice."""
    target = np.array([0.0, 7.0])
    radars = [RadarPose(position=np.zeros(2), kappa=np.pi / 2.0, array_n=None)]
    fused = fuse(scenario, target, np.pi / 2.0, radars, total_e_over_n0_db=40.0)
    with pytest.raises(IdentifiabilityError) as err:
        fused.crb()
    assert err.value.null_space is not None


def test_fuse_requires_radars(scenario):
    with pytest.raises(ScenarioError):
        fuse(scenario, TARGET, HEADING, [])
