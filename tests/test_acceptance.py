"""Acceptance gate: eight headline checks, each against its time budget.

Every test runs on the shipped vehicle scenario (or random draws seeded
here), asserts the numerical claim, then asserts it finished inside the
budget. One line of pytest -v output per criterion.
"""

import time

import numpy as np
import pytest

from conftest import finite_difference_gradients, random_scenario
from referees import pose_inverse, schur_pose_block, unknown_shape_projection

from hcrb.asymptotics import t_blocks
from hcrb.contour import (
    TargetPose,
    arclength_params,
    geometry_at,
    perimeter,
    pose_field,
    reflection_weights,
)
from hcrb.errors import IdentifiabilityError
from hcrb.experiments import MC_RANGES, run_diversity, run_mc, run_range_sweep
from hcrb.fisher import (
    efim_exact,
    field_stack,
    gamma_derivatives,
    hcrb_exact,
    point_target_crb,
    radar_constants,
)
from hcrb.waveform import synthesis_workspace, synthesize_frame


def _series(table):
    """(quantity, method) -> (2, n) array of (distance, value), sorted."""
    grouped = {}
    for row in table.rows:
        d = float(row.sweep.split(":")[1])
        grouped.setdefault((row.quantity, row.method), []).append((d, row.value))
    return {key: np.array(sorted(vals)).T for key, vals in grouped.items()}


def test_criterion_1_gradients_match_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        sc = random_scenario(rng)
        u = rng.uniform(0.0, 2.0 * np.pi, size=4)
        analytic = gamma_derivatives(sc, u)
        numeric = finite_difference_gradients(sc, u)
        for a, n in zip(analytic, numeric):
            scale = max(float(np.abs(a).max()), 1e-12)
            worst = max(worst, float(np.abs(a - n).max()) / scale)
    assert worst < 1e-6
    assert time.monotonic() - start < 10.0


def test_criterion_2_efim_matches_discrete_segment_sum(scenario):
    start = time.monotonic()
    efim = efim_exact(scenario)
    k = 2000
    params = scenario.contour
    u_mid = arclength_params(params, (np.arange(k) + 0.5) / k)
    geo = geometry_at(params, scenario.pose, u_mid)
    weights = reflection_weights(geo, scenario.alpha)
    w, v = weights.w, weights.v
    mu, eta, xi = gamma_derivatives(scenario, u_mid)

    ell = perimeter(params) / k
    g = scenario.gain_g(pose_field(scenario).w_norm_sq)
    n = scenario.array_n
    n0 = scenario.energy.n0
    big_l, big_m, _ = radar_constants(scenario)
    a1 = scenario.alpha + 1.0

    s11 = 2.0 * n / n0 * np.sum(ell * w**2)
    s21 = 2.0 * g * n / n0 * a1 * (xi @ (ell * w * v))
    s22 = 2.0 * g**2 * n / n0 * (
        big_l * (mu * (ell * w**2)) @ mu.T
        + big_m * (eta * (ell * w**2 * np.cos(geo.phi) ** 2)) @ eta.T
        + a1**2 * (xi * (ell * v**2)) @ xi.T
    )
    j_discrete = s22 - np.outer(s21, s21) / s11

    j = efim.matrix
    denom = np.maximum(np.maximum(np.abs(j), np.abs(j_discrete)),
                       1e-9 * np.abs(j).max())
    assert float(np.max(np.abs(j - j_discrete) / denom)) < 1e-3
    assert time.monotonic() - start < 30.0


def test_criterion_3_asymptotic_gap_shrinks_with_range(scenario):
    start = time.monotonic()
    gaps = []
    for d in (40.0, 80.0, 160.0, 320.0):
        moved = scenario.with_pose(
            TargetPose(d=d, phi=scenario.pose.phi, heading=scenario.pose.heading))
        j = efim_exact(moved).matrix
        t_mat = t_blocks(moved).matrix
        gaps.append(float(np.linalg.norm(j - t_mat) / np.linalg.norm(t_mat)))
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.01
    assert time.monotonic() - start < 60.0


def test_criterion_4_range_sweep_regimes(scenario):
    start = time.monotonic()
    series = _series(run_range_sweep(scenario, n_points=30, seed=0))
    d = series[("c_range_known", "exact")][0]
    far = d > 40.0
    mid = (d >= 15.0) & (d <= 60.0)
    assert far.sum() >= 5 and mid.sum() >= 5

    # (a) known-contour pose bounds collapse onto the point CRB at range
    for name in ("range", "bearing"):
        known = series[(f"c_{name}_known", "exact")][1]
        point = series[(f"c_{name}_point", "point_target")][1]
        assert np.all(np.abs(known[far] / point[far] - 1.0) < 0.05)

    # (b) joint contour estimation costs 2-4 orders of magnitude (rms) at
    # city-block ranges; the bearing pays no such penalty, its gap only closes
    for name in ("range", "heading"):
        unknown = series[(f"c_{name}_unknown", "exact")][1]
        known = series[(f"c_{name}_known", "exact")][1]
        factor = np.sqrt(unknown[mid] / known[mid])
        assert np.all((factor >= 1e2) & (factor <= 1e4)), (name, factor)
    bearing_ratio = (series[("c_bearing_unknown", "exact")][1]
                     / series[("c_bearing_known", "exact")][1])
    assert np.all(np.diff(bearing_ratio) < 0.0)

    # (c) the unknown-shape asymptotic bounds track the exact bound at range
    for name in ("range", "heading"):
        exact = series[(f"c_{name}_unknown", "exact")][1]
        asym = series[(f"c_{name}_unknown", "asymptotic")][1]
        assert np.all(np.abs(exact[far] / asym[far] - 1.0) < 0.10)
    assert time.monotonic() - start < 300.0


def test_criterion_5_closed_forms_cross_check(scenario):
    start = time.monotonic()
    far = t_blocks(scenario)
    energy = 2.0 * scenario.e_over_n0(scenario.lit_arc.w_norm_sq)
    big_l, _, big_z = radar_constants(scenario)
    big_l, big_z = energy * big_l, energy * big_z

    # shape known: the closed form in L, A, B, Z
    known = far.pose_block().crb()
    closed = pose_inverse(big_l, far.matrix[0, 1], far.matrix[2, 2], big_z)
    scale = float(np.abs(closed).max())
    assert float(np.abs(known.covariance - closed).max()) / scale < 1e-10

    # shape unknown: the same form in the Schur complements L', A', B', and
    # the projection route
    unknown = far.crb()
    stack = field_stack(scenario, far_field=True, nodes=far.nodes)
    schur = pose_inverse(*schur_pose_block(stack), big_z)
    scale = float(np.abs(schur).max())
    assert float(np.abs(unknown.covariance[:3, :3] - schur).max()) / scale < 1e-10
    projection = unknown_shape_projection(stack, big_z)
    assert abs(unknown.c_range / projection["c_range"] - 1.0) < 1e-6
    assert abs(unknown.c_heading / projection["c_heading"] - 1.0) < 1e-6
    assert time.monotonic() - start < 10.0


def test_criterion_6_constellation_diversity(bundle):
    start = time.monotonic()
    table = run_diversity(bundle.scenario, bundle.target_xy, bundle.heading,
                          counts=tuple(range(1, 7)), radius=7.0,
                          total_e_over_n0_db=40.0, seed=0)
    peb = {"known": {}, "unknown": {}}
    for row in table.rows:
        count = int(row.sweep.split(":")[1])
        peb[row.quantity.split("_", 1)[1]][count] = row.value
    known = np.array([peb["known"][k] for k in range(1, 7)])
    unknown = np.array([peb["unknown"][k] for k in range(1, 7)])

    assert np.all(known[1:] <= known[:-1] * (1.0 + 1e-9))
    assert np.all(unknown[1:] <= unknown[:-1] * (1.0 + 1e-9))
    assert unknown[0] / unknown[1] >= 5.0
    ratio = unknown[3:] / known[3:]
    assert np.all((ratio >= 1.5) & (ratio <= 3.0)), ratio
    assert time.monotonic() - start < 300.0


@pytest.mark.slow
def test_criterion_7_monte_carlo_validates_bounds(bundle):
    start = time.monotonic()
    table = run_mc(bundle.scenario, ranges=MC_RANGES, trials=500, seed=0,
                   segmentation=bundle.segmentation)
    by_range = {}
    for row in table.rows:
        d = float(row.sweep.split(":")[1])
        by_range.setdefault(d, {})[(row.quantity, row.method)] = \
            (row.value, row.n_trials)
    dists = sorted(by_range)
    assert len(dists) == len(MC_RANGES)

    # (a) the point matched filter is within 3 dB of its CRB at closest range
    nearest = by_range[dists[0]]
    for name in ("range", "bearing"):
        var, _ = nearest[(f"var_{name}_point", "monte_carlo")]
        crb, _ = nearest[(f"c_{name}_point", "point_target")]
        assert 10.0 ** -0.3 < var / crb < 10.0 ** 0.3, (name, var / crb)

    # (b) extended-target variance never undercuts the known-contour bound
    # (two standard errors of sampling slack on the variance estimate)
    for dist in dists:
        rows = by_range[dist]
        for name in ("range", "bearing"):
            var, n_used = rows[(f"var_{name}_extended", "monte_carlo")]
            bound, _ = rows[(f"c_{name}_known", "exact")]
            slack = 2.0 * var * np.sqrt(2.0 / (n_used - 1))
            assert var + slack >= bound, (dist, name, var, bound)

    # (c) the bearing gap above the bound closes as the target recedes
    ratios = [by_range[d][("var_bearing_extended", "monte_carlo")][0]
              / by_range[d][("c_bearing_known", "exact")][0] for d in dists]
    assert all(later < earlier for earlier, later in zip(ratios, ratios[1:])), ratios
    assert time.monotonic() - start < 900.0


def test_criterion_8_structural_properties(scenario, bundle):
    start = time.monotonic()
    efim = efim_exact(scenario)
    assert np.array_equal(efim.matrix, efim.matrix.T)
    eigs = np.linalg.eigvalsh(efim.matrix)
    assert eigs.min() >= -1e-8 * eigs.max()

    for known in (True, False):
        report = hcrb_exact(scenario, contour_known=known)
        assert report.c_heading >= report.c_bearing

    endfire = scenario.with_pose(
        TargetPose(d=30.0, phi=np.pi / 2.0, heading=0.0))
    with pytest.raises(IdentifiabilityError, match="endfire"):
        point_target_crb(endfire)
    with pytest.raises(IdentifiabilityError, match="endfire"):
        t_blocks(endfire)

    workspace = synthesis_workspace(scenario, bundle.segmentation)
    first = synthesize_frame(workspace, 5)
    second = synthesize_frame(workspace, 5)
    np.testing.assert_array_equal(first.samples, second.samples)
    sweep_a = run_range_sweep(scenario, n_points=3, seed=1)
    sweep_b = run_range_sweep(scenario, n_points=3, seed=1)
    assert sweep_a.csv_text() == sweep_b.csv_text()
    assert time.monotonic() - start < 60.0
