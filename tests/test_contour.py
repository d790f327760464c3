"""Contour geometry: Fourier curves, poses, illumination weights, arc length."""

from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_scenario

from hcrb.contour import (
    ContourParams,
    GeometryTable,
    PoseField,
    QuadratureSpec,
    TargetPose,
    arclength_params,
    eval_local,
    geometry_at,
    geometry_table,
    perimeter,
    pose_field,
    reflection_weights,
    rotation,
    uniform_grid,
    wrap_angle,
)
from hcrb.errors import RegularityError, ScenarioError

CIRCLE = ContourParams(np.array([2.0]), np.array([2.0]))


def test_wrap_angle_range_and_value():
    x = np.linspace(-12.0, 12.0, 2001)
    w = wrap_angle(x)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    npt.assert_allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)
    # pi maps to pi, not -pi
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)


def test_rotation_matrix():
    r = rotation(0.7)
    npt.assert_allclose(r.T @ r, np.eye(2), atol=1e-15)
    assert np.linalg.det(r) == pytest.approx(1.0)
    npt.assert_allclose(rotation(0.0), np.eye(2))
    npt.assert_allclose(r @ [1.0, 0.0], [np.cos(0.7), np.sin(0.7)])


def test_circle_hand_values():
    """Radius-2 circle at 10 m broadside: all quantities have textbook values."""
    pose = TargetPose(d=10.0, phi=0.0, heading=0.0)
    assert perimeter(CIRCLE) == pytest.approx(4.0 * np.pi, rel=1e-9)
    g = geometry_at(CIRCLE, pose, uniform_grid(512))
    npt.assert_allclose(g.arc, 2.0, rtol=1e-12)  # |rho_dot| = radius
    assert g.d.min() == pytest.approx(8.0, rel=1e-12)
    assert g.d.max() == pytest.approx(12.0, rel=1e-12)
    # nearest point is at u = pi, farthest at u = 0
    assert g.u[np.argmin(g.d)] == pytest.approx(np.pi)


def test_global_frame_is_pose_plus_rotated_local(scenario):
    u = np.linspace(0.0, 2.0 * np.pi, 17)
    g = geometry_at(scenario.contour, scenario.pose, u)
    rho, rho_dot = eval_local(scenario.contour, u)
    R = rotation(scenario.pose.heading)
    npt.assert_allclose(g.r, scenario.pose.p[:, None] + R @ rho, atol=1e-12)
    npt.assert_allclose(g.arc * np.stack([np.cos(g.beta), np.sin(g.beta)]), R @ rho_dot,
                        atol=1e-12)
    npt.assert_allclose(g.d, np.hypot(g.r[0], g.r[1]), rtol=1e-15)


def test_rotation_consistency(scenario):
    """Rotating bearing and heading together spins r(u) but changes nothing else."""
    delta = 0.83
    u = uniform_grid(256)
    g1 = geometry_at(scenario.contour, scenario.pose, u)
    pose2 = TargetPose(
        scenario.pose.d,
        wrap_angle(scenario.pose.phi + delta),
        wrap_angle(scenario.pose.heading + delta),
    )
    g2 = geometry_at(scenario.contour, pose2, u)
    npt.assert_allclose(g2.d, g1.d, rtol=1e-12)
    npt.assert_allclose(g2.r, rotation(delta) @ g1.r, atol=1e-10)
    w1 = reflection_weights(g1, 5.0)
    w2 = reflection_weights(g2, 5.0)
    npt.assert_allclose(w2.w, w1.w, atol=1e-12)
    npt.assert_allclose(w2.v, w1.v, atol=1e-12)


def test_local_contour_symmetry_and_periodicity(scenario):
    u = np.linspace(0.1, 3.0, 11)
    rho_p, _ = eval_local(scenario.contour, u)
    rho_m, _ = eval_local(scenario.contour, -u)
    npt.assert_allclose(rho_m[0], rho_p[0], rtol=1e-14)  # x even
    npt.assert_allclose(rho_m[1], -rho_p[1], rtol=1e-14)  # y odd
    rho_0, dot_0 = eval_local(scenario.contour, 0.0)
    rho_2pi, dot_2pi = eval_local(scenario.contour, 2.0 * np.pi)
    npt.assert_allclose(rho_2pi, rho_0, atol=1e-12)
    npt.assert_allclose(dot_2pi, dot_0, atol=1e-12)


def test_reflection_weights_shadow_and_formula(scenario):
    table = geometry_table(scenario.contour, scenario.pose)
    for alpha in (0.0, 1.0, 5.0):
        rw = reflection_weights(table, alpha)
        sp = np.maximum(np.sin(table.phi - table.beta), 0.0)
        lit = sp > 0.0
        assert np.all(rw.w >= 0.0)
        assert np.all(rw.w[~lit] == 0.0)
        assert np.all(rw.v[~lit] == 0.0)
        npt.assert_allclose(rw.w[lit], sp[lit] ** (alpha + 1.0), rtol=1e-12)
        npt.assert_allclose(
            rw.v[lit],
            sp[lit] ** alpha * np.cos(table.phi - table.beta)[lit],
            rtol=1e-12,
        )
    with pytest.raises(ScenarioError):
        reflection_weights(table, -0.5)


def test_perimeter_frozen_value(scenario):
    assert perimeter(scenario.contour) == pytest.approx(
        11.256574178166497, rel=1e-12
    )


def test_pose_frozen_values(scenario):
    assert scenario.pose.d == pytest.approx(6.708203932499369, rel=1e-15)
    assert scenario.pose.phi == pytest.approx(0.4636476090008061, rel=1e-15)
    assert scenario.pose.heading == pytest.approx(np.pi / 2.0, rel=1e-15)
    npt.assert_allclose(scenario.pose.p, [6.0, 3.0], rtol=1e-12)


def test_arclength_params_circle_is_uniform():
    fractions = np.array([0.0, 0.25, 0.5, 0.75])
    u = arclength_params(CIRCLE, fractions)
    npt.assert_allclose(u, 2.0 * np.pi * fractions, atol=1e-6)


def test_arclength_params_inverts_cumulative_length(scenario):
    fractions = np.linspace(0.0, 0.95, 9)
    u_f = arclength_params(scenario.contour, fractions)
    # dense cumulative trapezoid as the independent check
    nodes = 1 << 15
    u = uniform_grid(nodes)
    table = geometry_at(scenario.contour, scenario.pose, u)
    s = np.concatenate(([0.0], np.cumsum(table.arc) * (2.0 * np.pi / nodes)))
    total = s[-1]
    grid = np.concatenate((u, [2.0 * np.pi]))
    npt.assert_allclose(
        np.interp(u_f, grid, s) / total, fractions, atol=2e-5
    )


def test_arc_length_table_is_cached_per_contour(scenario):
    """The perimeter and the segment midpoints come from one arc-length
    table, built once per contour instance, read-only, and bit for bit the
    uncached cumulative trapezoid; its perimeter is the periodic trapezoid
    on the same speeds."""
    params = ContourParams(scenario.contour.m, scenario.contour.n)
    fractions = (np.arange(40) + 0.5) / 40
    first = arclength_params(params, fractions)
    table = params.arc_length
    assert params.arc_length is table
    assert np.array_equal(arclength_params(params, fractions), first)
    assert not any(a.flags.writeable for a in (table.u, table.s))
    # the uncached construction, bit for bit
    u = np.linspace(0.0, 2.0 * np.pi, 8193)
    _, rho_dot = eval_local(params, u)
    speed = np.hypot(rho_dot[0], rho_dot[1])
    s = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) / 2.0 * np.diff(u))])
    assert np.array_equal(first, np.interp(fractions * s[-1], s, u))
    assert perimeter(params) == float(np.sum(speed[:-1] * (2.0 * np.pi / 8192)))
    # a twin has a table of its own, equal to this one
    twin = ContourParams(params.m.copy(), params.n.copy())
    assert perimeter(twin) == perimeter(params)
    assert twin.arc_length is not table
    nudged = ContourParams(params.m * (1.0 + 1e-3), params.n)
    assert perimeter(nudged) != perimeter(params)


def test_arc_length_failure_raises_on_every_read():
    """An astroid's speed vanishes at its cusps; the failed table is not
    kept, so each read raises again."""
    astroid = ContourParams(np.array([3.0, 0.0, 1.0]), np.array([3.0, 0.0, -1.0]))
    for _ in range(2):
        with pytest.raises(RegularityError, match="not regular"):
            perimeter(astroid)


def test_geometry_table_grid(scenario):
    """The table is the placed geometry on the uniform grid and nothing
    else; the quadrature weights are the lit arc's, ds = ||r_dot|| 2 pi /
    nodes at each lit node."""
    spec = QuadratureSpec(nodes=64)
    table = geometry_table(scenario.contour, scenario.pose, spec)
    assert [f.name for f in fields(GeometryTable)] == [
        "u", "rho", "rho_dot", "r", "d", "phi", "beta", "arc", "basis"]
    assert table.u.shape == (64,)
    npt.assert_allclose(np.diff(table.u), 2.0 * np.pi / 64.0)
    assert np.all(table.arc > 0.0)
    assert np.all(np.isfinite(table.beta))
    assert [f.name for f in fields(PoseField)] == [
        "table", "w", "v", "ds", "w_norm_sq", "index"]
    arc = pose_field(replace(scenario, quadrature=spec))
    npt.assert_array_equal(arc.ds, table.arc[arc.index] * (2.0 * np.pi / 64))


def test_geometry_table_shares_one_read_only_basis(scenario):
    spec = QuadratureSpec(nodes=64)
    table = geometry_table(scenario.contour, scenario.pose, spec)
    other = geometry_table(scenario.contour, TargetPose(20.0, -0.3, 1.0), spec)
    assert all(a is b for a, b in zip(table.basis, other.basis))
    assert not any(array.flags.writeable for array in table.basis)
    fresh = geometry_at(scenario.contour, scenario.pose, table.u)
    for name in ("rho", "rho_dot", "r", "d", "phi", "beta", "arc"):
        assert np.array_equal(getattr(table, name), getattr(fresh, name)), name
    for cached, computed in zip(table.basis, fresh.basis):
        assert np.array_equal(cached, computed)


def _crosses_by_loop(params: ContourParams, nodes: int = 256) -> bool:
    """The crossing test's referee: each pair of polygon sides but a side and
    its two neighbours, one at a time, by the sign of the orientations."""
    rho, _ = eval_local(params, uniform_grid(nodes))
    pts = [tuple(p) for p in rho.T]

    def orient(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    for i in range(nodes):
        p0, p1 = pts[i], pts[(i + 1) % nodes]
        for j in range(i + 2, nodes if i > 0 else nodes - 1):
            q0, q1 = pts[j], pts[(j + 1) % nodes]
            if (orient(p0, p1, q0) * orient(p0, p1, q1) < 0
                    and orient(q0, q1, p0) * orient(q0, q1, p1) < 0):
                return True
    return False


def test_crossing_contour_is_refused(scenario):
    """The arc-length table admits a contour only if it does not cross
    itself, as a loop over the same side pairs finds, on the vehicle, a
    self-crossing contour, a simple concave one and a few random ones."""
    crossing = ContourParams(np.array([1.0, 0.0, 2.0]), np.array([1.0, 0.0, 2.0]))
    concave = ContourParams(np.array([2.0, 0.0, 0.5]), np.array([1.1, 0.0, 0.5]))
    rng = np.random.default_rng(5)
    drawn = [random_scenario(rng).contour for _ in range(4)]
    for params in (scenario.contour, crossing, concave, *drawn):
        simple = params is not crossing
        assert _crosses_by_loop(params) is not simple
        if simple:
            assert params.arc_length.perimeter > 0.0
        else:
            for _ in range(2):  # a refusal is not kept
                with pytest.raises(ScenarioError, match="crosses itself"):
                    params.arc_length


def test_validation_errors():
    with pytest.raises(ScenarioError):
        ContourParams(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ScenarioError):
        ContourParams(np.array([1.0, 0.1]), np.array([1.0]))
    with pytest.raises(ScenarioError):
        TargetPose(d=0.0, phi=0.0, heading=0.0)
    with pytest.raises(ScenarioError):
        QuadratureSpec(nodes=8)


def test_pose_angles_are_wrapped():
    pose = TargetPose(d=5.0, phi=3.0 * np.pi, heading=-2.5 * np.pi)
    assert pose.phi == pytest.approx(np.pi)
    assert pose.heading == pytest.approx(-0.5 * np.pi)
