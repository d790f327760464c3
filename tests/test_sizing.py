"""Each bound's quadrature sized by the change in its own variances."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_scenario

from hcrb import fisher
from hcrb._linalg import triangular_factor
from hcrb.asymptotics import t_blocks
from hcrb.contour import QuadratureSpec, TargetPose, geometry_table
from hcrb.errors import IdentifiabilityError, ScenarioError
from hcrb.experiments import (BOW_OFFSET, SWEEP_RADAR, ray_positions, run_diversity,
                              run_range_sweep)
from hcrb.fisher import (
    FisherInfo,
    efim_exact,
    field_stack,
    gamma_labels,
    sized_info,
)
from hcrb.multiradar import (
    _chain_matrix,
    fuse,
    peb,
    radar_local_scenario,
    uniform_constellation,
    unit_energy,
)
from hcrb.scenario import EnergySpec


def _full_grid(scenario, far_field=False) -> FisherInfo:
    """The unsized route: the factor of the field stack on every node."""
    stack = field_stack(scenario, far_field, scenario.quadrature.nodes)
    return FisherInfo(r=triangular_factor(stack),
                      labels=tuple(gamma_labels(scenario.contour.q)))


def _variances(info: FisherInfo) -> np.ndarray:
    """c_range, c_bearing, c_heading with the shape known, then unknown
    unless that information is singular."""
    reports = [info.pose_block().crb()]
    try:
        reports.append(info.crb())
    except IdentifiabilityError:
        pass
    return np.array([[rep.c_range, rep.c_bearing, rep.c_heading] for rep in reports])


def test_subgrid_arc_is_the_coarse_grid_arc(scenario):
    """Every fourth node of the full-grid arc at four times the weight is
    the arc a 1024-node quadrature evaluates, with no geometry evaluated;
    the arc keeps it, one per stride, and field_stack reads it: the full
    grid's stack reads the arc itself, the 1024-node one its kept subgrid."""
    coarse = scenario.lit_arc.subgrid(4)
    table = geometry_table(scenario.contour, scenario.pose, QuadratureSpec(1024))
    lit = coarse.index
    npt.assert_array_equal(coarse.table.u, table.u[lit])
    npt.assert_allclose(coarse.ds, table.arc[lit] * (2.0 * np.pi / 1024), rtol=1e-15)
    npt.assert_allclose(coarse.table.d, table.d[lit], rtol=1e-15)
    npt.assert_allclose(coarse.table.basis[0], table.basis[0][:, lit], rtol=0, atol=1e-15)
    assert coarse.w_norm_sq == pytest.approx(scenario.lit_arc.w_norm_sq, rel=1e-12)
    assert scenario.lit_arc.subgrid(4) is coarse
    assert scenario.lit_arc.subgrid(2) is not coarse
    assert scenario.lit_arc.subgrid(1) is scenario.lit_arc
    fresh = scenario.with_pose(scenario.pose)
    field_stack(fresh, nodes=fresh.quadrature.nodes)
    assert "_subgrids" not in vars(fresh.lit_arc)
    field_stack(fresh, nodes=1024)
    assert vars(fresh.lit_arc)["_subgrids"] == {4: fresh.lit_arc.subgrid(4)}
    for nodes in (1000, 2 * scenario.quadrature.nodes):
        with pytest.raises(ScenarioError):
            field_stack(scenario, nodes=nodes)


@pytest.mark.parametrize("far_field", [False, True], ids=["exact", "far_field"])
@pytest.mark.parametrize("energy", [EnergySpec(e_over_n0_db=40.0), EnergySpec(gain=2e3)],
                         ids=["fixed", "physical"])
def test_even_half_shares_the_derivative_fields(scenario, far_field, energy):
    """The even-half stack that _weighted_stack builds from the 1024-node
    derivative fields is the stack field_stack builds on 512 nodes, and
    the full one is field_stack's on 1024."""
    scenario = replace(scenario, energy=energy)
    lit = scenario.lit_arc.subgrid(4)
    fields = fisher._lit_fields(scenario, lit, far_field)
    for got, want in ((fisher._weighted_stack(scenario, fields, lit),
                       field_stack(scenario, far_field, 1024)),
                      (fisher._weighted_stack(scenario, fields, lit, half=True),
                       field_stack(scenario, far_field, 512))):
        npt.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())


_SWEEP_CASES = [(alpha, heading) for alpha in (5.0, 3.0, 4.0)
                for heading in (60.0, 90.0, 120.0, 180.0)]


@pytest.mark.parametrize("alpha, heading_deg", _SWEEP_CASES,
                         ids=[f"{heading}" if alpha == 5.0 else f"alpha{alpha:g}-{heading}"
                              for alpha, heading in _SWEEP_CASES])
def test_sized_sweep_matches_the_full_grid(scenario, alpha, heading_deg):
    """Both bounds of every pose of a 30-point sweep lie within 1e-11 of the
    full-grid route: each records an estimate of at most QUAD_REL_TOL, or
    is the full grid's factor bit for bit. For 2 < alpha < 5 the
    smoothness screen (_ladder_start) sends some poses of a sweep, and at
    alpha = 3 most, straight to the full grid. At alpha = 5, off the
    bow-stern axis, every pose is sized below the full grid; at 180
    degrees most need 2048 nodes."""
    scenario = replace(scenario, alpha=alpha)
    heading = np.radians(heading_deg)
    nodes = scenario.quadrature.nodes
    for xy in ray_positions(30):
        moved = scenario.with_pose(SWEEP_RADAR.local_pose(xy, heading))
        for far_field, sized in ((False, efim_exact(moved)), (True, t_blocks(moved))):
            full = _full_grid(moved, far_field)
            npt.assert_allclose(_variances(sized), _variances(full), rtol=1e-11, atol=0.0)
            if sized.quad_error is None or sized.quad_error > fisher.QUAD_REL_TOL:
                assert sized.nodes == nodes and np.array_equal(sized.r, full.r)
            if alpha == 5.0 and heading_deg != 180.0:
                assert sized.nodes < nodes


@pytest.mark.parametrize("heading_deg", [60.0, 90.0, 120.0])
def test_sized_diversity_matches_the_full_grid(bundle, heading_deg):
    """run_diversity's PEBs for 1-6 radars lie within 1e-11 of the same
    rings fused from full-grid factors, and every radar is sized below the
    full grid (the radars whose shape-unknown information is singular
    alone, by their pose block)."""
    scenario, target = bundle.scenario, bundle.target_xy
    heading = np.radians(heading_deg)
    nodes = scenario.quadrature.nodes
    table = run_diversity(scenario, target, heading)
    unit = unit_energy(scenario)
    for count in range(1, 7):
        radars = uniform_constellation(target, count, 7.0, start_angle=heading - BOW_OFFSET)
        factors = []
        for radar in radars:
            local = radar_local_scenario(unit, target, heading, radar)
            assert efim_exact(local).nodes < nodes
            chain = _chain_matrix(target - radar.position, local.pose.d,
                                  2 * scenario.contour.q + 3)
            factors.append(chain @ _full_grid(local).r.T)
        full = fuse(scenario, target, heading, radars, total_e_over_n0_db=40.0,
                    factors=factors)
        got = {r.quantity: r.value for r in table.rows if r.sweep == f"diversity:{count}"}
        assert got["peb_known"] == pytest.approx(peb(full.pose_block().crb()), rel=1e-11)
        assert got["peb_unknown"] == pytest.approx(peb(full.crb()), rel=1e-11)


def test_rough_surfaces_keep_the_full_grid_bit_for_bit():
    """For alpha <= 2 the weight v kinks at the shadow boundaries, so no grid
    below the full one can converge: efim_exact and t_blocks return the
    full-grid factor bit for bit, and record no estimate."""
    rng = np.random.default_rng(3)
    drawn = set()
    for _ in range(30):
        sc = random_scenario(rng)
        if sc.alpha > 2.0:
            continue
        drawn.add(sc.alpha)
        for far_field, sized in ((False, efim_exact(sc)), (True, t_blocks(sc))):
            assert sized.nodes == sc.quadrature.nodes and sized.quad_error is None
            npt.assert_array_equal(sized.r, _full_grid(sc, far_field).r)
    assert drawn == {0.0, 1.0, 2.0}


def test_smooth_surfaces_record_their_estimate(scenario):
    """A sized information records its grid, the information on the grid
    of half as many nodes (the even half of its stack), and its estimate,
    the largest relative change of the six reported variances from that
    grid; its pose block records the grid."""
    info = efim_exact(scenario)
    assert info.nodes == info.pose_block().nodes == scenario.quadrature.nodes // 4
    lit = scenario.lit_arc.subgrid(4)
    half_stack = fisher._weighted_stack(scenario, fisher._lit_fields(scenario, lit, False),
                                        lit, half=True)
    half = FisherInfo(r=triangular_factor(half_stack), labels=info.labels)
    assert info.coarse.nodes == info.nodes // 2
    npt.assert_array_equal(info.coarse.r, half.r)
    change = np.abs(_variances(info) - _variances(half)) / _variances(info)
    assert info.quad_error == change.max() <= 1e-10


def test_an_information_singular_on_one_grid_only_has_not_converged(scenario,
                                                                    monkeypatch):
    """When the shape-unknown information is singular on one of the two
    grids only, the finer grid is not accepted: here it is singular on
    nodes/4 points alone, so neither nodes/4 (against nodes/8) nor nodes/2
    (against nodes/4) converges, and the full grid reports its bound."""
    original = fisher._info
    start = scenario.quadrature.nodes // 4

    def rank_short_at_start(sc, stack, nodes, coarse=None):
        if nodes == start:
            stack[-1] = 0.0
        return original(sc, stack, nodes, coarse)

    monkeypatch.setattr(fisher, "_info", rank_short_at_start)
    sc = scenario.with_pose(scenario.pose)
    with pytest.raises(IdentifiabilityError):
        fisher._info(sc, field_stack(sc, False, start), start).crb()
    info = sized_info(sc)
    assert info.nodes == sc.quadrature.nodes and info.quad_error <= 1e-10
    npt.assert_array_equal(info.r, _full_grid(sc).r)
    assert np.isfinite(info.crb().c_heading)


def test_a_singular_pose_block_takes_the_full_grid(scenario):
    """At endfire the long-range pose block is singular on every grid, so
    its sizing takes the full grid at once; t_blocks raises before it
    builds any stack."""
    endfire = scenario.with_pose(TargetPose(10.0, np.pi / 2.0, 1.0))
    assert efim_exact(endfire).nodes < scenario.quadrature.nodes
    far = sized_info(endfire, far_field=True)
    assert far.nodes == scenario.quadrature.nodes and far.quad_error is None
    fresh = scenario.with_pose(endfire.pose)
    with pytest.raises(IdentifiabilityError, match="endfire"):
        t_blocks(fresh)
    assert "lit_arc" not in vars(fresh)


@pytest.mark.parametrize("heading_deg", [60.0, 90.0, 120.0])
def test_reported_bounds_reuse_the_ladders_inversions(scenario, monkeypatch, heading_deg):
    """Each sweep pose inverts eight factors: the pose block and the whole
    factor, on its grid and on the coarse one, for the exact and the
    long-range bound. The rows read the bounds the estimate computed on
    the information the ladder returns; rebuilding that information
    without them would invert the two accepted factors of each bound
    again (twelve per pose)."""
    calls = []
    original = fisher.invert_info_matrix

    def counted(r, labels=None):
        calls.append(r.shape[0])
        return original(r, labels)

    monkeypatch.setattr(fisher, "invert_info_matrix", counted)
    pose = scenario.pose
    moved = scenario.with_pose(TargetPose(pose.d, pose.phi, np.radians(heading_deg)))
    table = run_range_sweep(moved, n_points=3)
    assert len(table.rows) == 3 * 14
    assert len(calls) == 3 * 8
