"""Exact information matrix, parameter bounds, radar constants."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.constants import c as SPEED_OF_LIGHT

from conftest import finite_difference_gradients, mp_inverse_gram, random_scenario

from hcrb.asymptotics import t_blocks
from hcrb.contour import ContourParams, TargetPose, pose_field
from hcrb.errors import IdentifiabilityError
from hcrb.fisher import (
    efim_exact,
    field_stack,
    gamma_derivatives,
    gamma_labels,
    gamma_vector,
    hcrb_exact,
    point_target_crb,
    radar_constants,
    scenario_with_gamma,
)
from hcrb.scenario import EnergySpec, Scenario, WaveformSpec
from hcrb.waveform import effective_bandwidth


def test_gamma_vector_roundtrip(scenario):
    gamma = gamma_vector(scenario)
    q = scenario.contour.q
    assert gamma.shape == (2 * q + 3,)
    npt.assert_allclose(gamma[:3], [scenario.pose.d, scenario.pose.phi,
                                    scenario.pose.heading])
    npt.assert_allclose(gamma[3:3 + q], scenario.contour.m)
    npt.assert_allclose(gamma[3 + q:], scenario.contour.n)
    back = scenario_with_gamma(scenario, gamma)
    assert back.pose.d == scenario.pose.d
    npt.assert_allclose(back.contour.m, scenario.contour.m)
    bumped = gamma.copy()
    bumped[3] += 0.1
    assert scenario_with_gamma(scenario, bumped).contour.m[0] == pytest.approx(
        scenario.contour.m[0] + 0.1
    )


def test_gamma_labels_order():
    assert gamma_labels(2) == ["d", "phi", "heading", "a1", "a2", "b1", "b2"]


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(5):
        sc = random_scenario(rng)
        u = rng.uniform(0.0, 2.0 * np.pi, size=8)
        mu, eta, xi = gamma_derivatives(sc, u)
        fd_mu, fd_eta, fd_xi = finite_difference_gradients(sc, u)
        for a, b in ((mu, fd_mu), (eta, fd_eta), (xi, fd_xi)):
            worst = max(worst, np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-12))
    assert worst < 1e-6


def test_efim_shape_symmetry_psd(scenario):
    res = efim_exact(scenario)
    q = scenario.contour.q
    assert res.matrix.shape == (2 * q + 3, 2 * q + 3)
    assert list(res.labels) == gamma_labels(q)
    npt.assert_allclose(res.matrix, res.matrix.T, rtol=1e-10)
    eig = np.linalg.eigvalsh(res.matrix)
    assert eig.min() >= -1e-8 * eig.max()
    assert scenario.e_over_n0(pose_field(scenario).w_norm_sq) == pytest.approx(1e4)


def test_radar_constants_frozen_and_formulas(scenario):
    big_l, big_m, big_z = radar_constants(scenario)
    assert big_l == pytest.approx(146.43121785261164, rel=1e-12)
    assert big_m == pytest.approx(739.3978630482778, rel=1e-12)
    assert big_z == pytest.approx(591.5182904386222, rel=1e-12)
    n = scenario.array_n
    assert big_m == pytest.approx(np.pi**2 * (n**2 - 1) / 12.0, rel=1e-12)
    assert big_z == pytest.approx(big_m * np.cos(scenario.pose.phi) ** 2, rel=1e-12)
    b_rms = effective_bandwidth(scenario.waveform)
    assert big_l == pytest.approx((4.0 * np.pi * b_rms / SPEED_OF_LIGHT) ** 2,
                                  rel=1e-12)


def test_point_target_crb_frozen(scenario):
    crb = point_target_crb(scenario)
    big_l, _, big_z = radar_constants(scenario)
    assert crb[0, 0] == pytest.approx(3.414572434296546e-07, rel=1e-12)
    assert crb[1, 1] == pytest.approx(8.45282399685799e-08, rel=1e-12)
    assert crb[0, 0] == pytest.approx(1.0 / (2e4 * big_l), rel=1e-12)
    assert crb[1, 1] == pytest.approx(1.0 / (2e4 * big_z), rel=1e-12)
    assert crb[0, 1] == 0.0


def test_endfire_raises(scenario):
    # one predicate for every route, also a hair off exact endfire; t_blocks
    # gates both long-range bounds
    for phi in (np.pi / 2.0, np.arccos(1e-6)):
        endfire = scenario.with_pose(TargetPose(30.0, phi, 0.0))
        for route in (point_target_crb, t_blocks):
            with pytest.raises(IdentifiabilityError, match="endfire"):
                route(endfire)


def test_exact_bounds_frozen(scenario):
    known = hcrb_exact(scenario, contour_known=True)
    assert known.c_range == pytest.approx(4.5656969381453924e-07, rel=1e-9)
    assert known.c_bearing == pytest.approx(9.731766113444534e-08, rel=1e-9)
    assert known.c_heading == pytest.approx(6.49744839995577e-07, rel=1e-9)
    # the 40-digit reference of test_reports_match_full_inverse
    unknown = hcrb_exact(scenario, contour_known=False)
    assert unknown.c_range == pytest.approx(0.85541828006937455, rel=1e-11)
    assert unknown.c_bearing == pytest.approx(0.020160372486978041, rel=1e-11)
    assert unknown.c_heading == pytest.approx(0.40281186163657686, rel=1e-11)
    # ignorance never helps
    assert unknown.c_range > known.c_range
    assert unknown.c_bearing > known.c_bearing
    assert unknown.c_heading > known.c_heading


def _assert_matches_reference(scenario):
    """Both exact bounds against a 40-digit inverse of the information that
    the float64 field stack defines, on the grid the bounds were sized on."""
    res = efim_exact(scenario)
    stack = field_stack(scenario, nodes=res.nodes)
    for report, rows in ((res.crb(), stack), (res.pose_block().crb(), stack[:3])):
        reference = mp_inverse_gram([rows])
        for i, value in enumerate((report.c_range, report.c_bearing, report.c_heading)):
            assert value == pytest.approx(float(reference[i, i]), rel=1e-12)


def test_reports_match_full_inverse(scenario):
    _assert_matches_reference(scenario)


def test_reports_match_full_inverse_at_another_pose(scenario):
    _assert_matches_reference(scenario.with_pose(TargetPose(20.0, 0.4, 1.2)))


def _physical_scenario(scenario, n0):
    return Scenario(
        contour=scenario.contour,
        pose=scenario.pose,
        alpha=scenario.alpha,
        array_n=scenario.array_n,
        waveform=scenario.waveform,
        energy=EnergySpec(gain=2.5, n0=n0),
        quadrature=scenario.quadrature,
    )


def test_noise_scale_equivariance(scenario):
    kappa = 3.7
    base = hcrb_exact(_physical_scenario(scenario, 1e-3), contour_known=False)
    scaled = hcrb_exact(_physical_scenario(scenario, kappa * 1e-3),
                        contour_known=False)
    assert scaled.c_range == pytest.approx(kappa * base.c_range, rel=1e-9)
    assert scaled.c_bearing == pytest.approx(kappa * base.c_bearing, rel=1e-9)
    assert scaled.c_heading == pytest.approx(kappa * base.c_heading, rel=1e-9)


def test_received_energy_modes(scenario):
    # fixed mode pins E/N0, so E = 1e4 * N0 with N0 = 1
    assert scenario.received_energy(1.0) == pytest.approx(1e4, rel=1e-12)
    phys = _physical_scenario(scenario, 1e-3)
    w_norm_sq = pose_field(phys).w_norm_sq
    g = np.sqrt(2.5) / phys.pose.d**2
    expected = g**2 * phys.array_n * w_norm_sq
    assert phys.received_energy(w_norm_sq) == pytest.approx(expected, rel=1e-12)
    assert phys.e_over_n0(w_norm_sq) == pytest.approx(expected / 1e-3, rel=1e-12)


def test_e_over_n0_override_in_either_mode(scenario):
    """with_e_over_n0_db puts either energy mode into fixed mode at the given
    dB and keeps the noise PSD."""
    fixed = replace(scenario, energy=EnergySpec(e_over_n0_db=40.0, n0=1e-3))
    for template in (fixed, _physical_scenario(scenario, 1e-3)):
        quieter = template.with_e_over_n0_db(30.0)
        assert quieter.energy.mode == "fixed_E_over_N0"
        assert quieter.energy.n0 == 1e-3
        for w_norm_sq in (0.0, 0.37, 2.0):
            assert quieter.e_over_n0(w_norm_sq) == 10 ** (30.0 / 10)


def test_efim_scales_linearly_with_snr(scenario):
    louder = scenario.with_e_over_n0_db(50.0)
    j40 = efim_exact(scenario).matrix
    j50 = efim_exact(louder).matrix
    npt.assert_allclose(j50, 10.0 * j40, rtol=1e-10)
