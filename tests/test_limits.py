"""The paper's limits of the computed bound, each read off decade ratios.

Point target: shrinking the contour by eps (m and n scaled by eps, the pose
kept) turns the extended target into a point at its center, so the
known-shape range and bearing bounds must tend to point_target_crb.
Bandwidth: raising B turns the known-shape range bound into the one the
range delays alone give. Array size: growing the array turns the
known-shape bearing bound into the one the bearing rows alone give. What is
tested is the order of each approach.

The tolerance on an order: if the deviation is delta(x) = a x^p (1 +
r(x)), the decade ratio delta(x) / delta(x / 10) is 10^p times
(1 + r(x)) / (1 + r(x / 10)). Its observed order log10(ratio) rounds to
p, and to neither p - 1 nor p + 1, as long as the higher terms r stay below
(sqrt(10) - 1) / (sqrt(10) + 1) = 0.52 of the leading one. So the tests ask
|log10(ratio) - p| < 1/2: they pin the leading power and tolerate any
correction that does not rival it. On the vehicle at 60 and 90 degrees
the point-target range orders read 1.975 to 2.006 and the bearing orders
0.97 to 1.37 (the 90-degree poses carry the larger eps^2 term); the
bandwidth orders read 2.000.

Long range and rings: the exact information tends to the long-range one,
the long-range one to its range-free limit, and a ring's position
information to the point-ring law, each at O(1/x) as the range or the
ring radius x doubles; _doubling_order states the band on their orders.
"""

from dataclasses import replace

import numpy as np
import pytest

from hcrb.asymptotics import t_blocks
from hcrb.contour import ContourParams, TargetPose
from hcrb.fisher import _derivative_fields, efim_exact, point_target_crb, radar_constants
from hcrb.multiradar import fuse, peb, uniform_constellation
from hcrb.scenario import WaveformSpec

# contour scales, a decade apart
EPS = (1e-2, 1e-3, 1e-4, 1e-5)
# sweep bandwidths in Hz, a decade apart, at the time-bandwidth product TB
BANDWIDTHS = (1e10, 1e11, 1e12)
TB = 1e5
# array sizes, a decade apart
ARRAY_SIZES = (3000, 30000)
# target ranges and ring radii in m, each twice the last
RANGES = (160.0, 320.0, 640.0, 1280.0)
RING_RADII = (120.0, 240.0, 480.0, 960.0)
# the range in m at which the long-range information stands for its limit
LIMIT_RANGE = 1e7
# a ring's size budget (dB) and its first radar's azimuth about the target
RING_DB = 40.0
RING_START = np.radians(50.0)
# the band on an observed order of an O(1/x) approach (_doubling_order)
ORDER_BAND = (0.85, 1.15)


def _order(deviations):
    """Observed orders log10(delta(eps) / delta(eps / 10)) of deviations at
    successive decades of eps."""
    magnitudes = np.abs(deviations)
    return np.log10(magnitudes[:-1] / magnitudes[1:])


@pytest.mark.parametrize("heading_deg", [60.0, 90.0])
@pytest.mark.parametrize("alpha", [0.0, 5.0])
def test_known_shape_bound_tends_to_the_point_target_bound(scenario, alpha,
                                                            heading_deg):
    base = replace(scenario, alpha=alpha).with_pose(
        replace(scenario.pose, heading=np.radians(heading_deg)))
    point = np.diag(point_target_crb(base))
    reports = []
    for eps in EPS:
        shrunk = ContourParams(eps * scenario.contour.m, eps * scenario.contour.n)
        reports.append(efim_exact(replace(base, contour=shrunk)).pose_block().crb())

    # range: the eps term cancels, the deviation is O(eps^2)
    range_dev = [r.c_range / point[0] - 1.0 for r in reports[:3]]
    assert np.all(np.abs(_order(range_dev) - 2.0) < 0.5), range_dev
    # bearing: O(eps), tested on 1e-4 and 1e-5 only, where the eps term
    # leads: above that the eps^2 term rivals it (at alpha = 0 and 60
    # degrees the deviation changes sign between 1e-2 and 1e-3)
    bearing_dev = [r.c_bearing / point[1] - 1.0 for r in reports[2:]]
    assert np.all(np.abs(_order(bearing_dev) - 1.0) < 0.5), bearing_dev
    # heading: a point has none, yet the reflection pattern keeps it
    # observable; its variance stays finite and positive and settles, each
    # decade from 1e-3 on moving it less than the one before
    heading = np.array([r.c_heading for r in reports[1:]])
    assert np.all(np.isfinite(heading)) and np.all(heading > 0.0)
    moves = np.abs(np.diff(heading))
    assert moves[1] < moves[0], heading


def _range_delay_limit(scenario, nodes: int) -> float:
    """L c_range_known's limit as B grows: the range entry of the
    pseudo-inverse of the pose Gram G = sum w^2 mu mu^T ds of the
    range-delay rows mu, times ||w||^2 / (2 E/N0), on the grid of `nodes`
    points. G is singular (mu's phi and heading rows are opposite),
    but the range axis lies in its range."""
    lit = scenario.lit_arc.subgrid(scenario.quadrature.nodes // nodes)
    mu = _derivative_fields(scenario.contour, scenario.pose, lit.table)[0][:3]
    weighted = mu * (lit.w * np.sqrt(lit.ds))
    gram = weighted @ weighted.T
    return (np.linalg.pinv(gram)[0, 0] * lit.w_norm_sq
            / (2.0 * scenario.e_over_n0(lit.w_norm_sq)))


@pytest.mark.parametrize("heading_deg", [60.0, 90.0])
@pytest.mark.parametrize("alpha", [0.0, 5.0])
def test_range_bound_tends_to_the_range_delay_bound(scenario, alpha, heading_deg):
    """Raising B with TB held (so T = TB / B) scales L = (4 pi B_rms / c)^2
    as B^2 and leaves the rest of the information J - L G as it is.

    Shape known: the range axis lies in G's range, so L c_range_known tends
    to the range-delay limit, with deviation dev = L c_range_known / limit
    - 1 = -kappa / L + O(1 / L^2):
    - dev < 0 at every B, since the rest of the information can only shrink
      the bound; it is checked strictly, the QR's rounding (well under the
      4e-9 of the smallest |dev|) cannot flip it.
    - dev falls 100x per decade of B: order 2, within 1/2.
    - |dev| < 1e-5 at 1 THz (L = 1.46e8). kappa is the rest of the
      information along the range axis, relative to G; it reads at most 148
      here (alpha = 5, 60 degrees), under the array constant M = 739. The
      bound allows kappa up to 1.46e3, twice M.
    Shape unknown: the contour coefficients absorb what the range delays
    tell apart, so L c_range_unknown does not settle but keeps growing: it
    rises at every decade, and by more than 10x over the two (51x to 1000x
    measured), where the known-shape one moves by at most 1e-2.
    The limit is taken on the grid the bound reports (FisherInfo.nodes), so
    no quadrature error separates the two.
    """
    base = replace(scenario, alpha=alpha).with_pose(
        replace(scenario.pose, heading=np.radians(heading_deg)))
    dev, unknown = [], []
    for bandwidth in BANDWIDTHS:
        sc = replace(base, waveform=WaveformSpec(bandwidth=bandwidth, duration=TB / bandwidth))
        info = efim_exact(sc)
        big_l = radar_constants(sc)[0]
        limit = _range_delay_limit(sc, info.nodes)
        dev.append(big_l * info.pose_block().crb().c_range / limit - 1.0)
        unknown.append(big_l * info.crb().c_range)

    assert np.all(np.array(dev) < 0.0), dev
    assert np.all(np.abs(_order(dev) - 2.0) < 0.5), dev
    assert abs(dev[-1]) < 1e-5, dev
    assert np.all(np.diff(unknown) > 0.0) and unknown[-1] > 10.0 * unknown[0], unknown


def _bearing_limit(scenario, nodes: int) -> float:
    """M c_bearing_known's limit as N grows: the bearing entry of the
    inverse of the pose Gram B = sum (w cos(phi) eta)(w cos(phi) eta)^T ds
    of the bearing rows eta, times ||w||^2 / (2 E/N0), on the grid of
    `nodes` points. Unlike the range Gram, B is regular."""
    lit = scenario.lit_arc.subgrid(scenario.quadrature.nodes // nodes)
    eta = _derivative_fields(scenario.contour, scenario.pose, lit.table)[1][:3]
    weighted = eta * (lit.w * np.cos(lit.table.phi) * np.sqrt(lit.ds))
    gram = weighted @ weighted.T
    return (np.linalg.inv(gram)[1, 1] * lit.w_norm_sq
            / (2.0 * scenario.e_over_n0(lit.w_norm_sq)))


@pytest.mark.parametrize("heading_deg", [60.0, 90.0])
@pytest.mark.parametrize("alpha", [0.0, 5.0])
def test_bearing_bound_tends_to_the_array_bound(scenario, alpha, heading_deg):
    """Growing the array N scales M = pi^2 (N^2 - 1) / 12 and leaves the
    rest of the information, A, as it is: the known-shape information is
    A + M c B, with c = 2 (E/N0) / ||w||^2.

    So M c_bearing_known = [(c B + A / M)^-1]_phi tends to the limit, with
    deviation dev = M c_bearing_known / limit - 1 = -kappa / M + O(1 / M^2),
    kappa = [B^-1 A B^-1]_phi / (c [B^-1]_phi) >= 0:
    - dev < 0 at every N, since A can only shrink the bound; the QR's
      rounding (well under the 5e-5 of the smallest |dev|) cannot flip it.
    - dev falls 100x per decade of N from 3e3 to 3e4: order 2, within
      1/2. kappa reads 3.7e4 to 2.0e6 here (the largest at alpha = 5 and
      90 degrees), so at N = 3e3 (M = 7.4e6) the O(1 / M^2) term is at
      most 0.27 of the leading one, under the 0.52 an order allows. Below
      that it is not: at N = 300 the ratio of decades reads 4.
    - |dev| < 1e-2 at N = 3e4 (M = 7.4e8); the largest reads 2.7e-3. The
      bound allows kappa up to 7.4e6, 3.7 times the largest measured.
    Only the known-shape bound is read: the shape-unknown bound of the
    same information is reported singular from N = 1e4 at alpha = 5 and
    60 degrees (and from 1e5 at 90 degrees), while the pose block's
    condition number stays under 4e4. The limit is taken on the grid the
    bound reports (FisherInfo.nodes), so no quadrature error separates the
    two.
    """
    base = replace(scenario, alpha=alpha).with_pose(
        replace(scenario.pose, heading=np.radians(heading_deg)))
    dev = []
    for n in ARRAY_SIZES:
        sc = replace(base, array_n=n)
        info = efim_exact(sc)
        big_m = radar_constants(sc)[1]
        dev.append(big_m * info.pose_block().crb().c_bearing / _bearing_limit(sc, info.nodes)
                   - 1.0)

    assert np.all(np.array(dev) < 0.0), dev
    assert np.all(np.abs(_order(dev) - 2.0) < 0.5), dev
    assert abs(dev[-1]) < 1e-2, dev


def _doubling_order(deviations):
    """Observed orders log2(delta(x) / delta(2x)) of deviations at
    successive doublings of x.

    If delta(x) = a x^-p (1 + b / x + ...), the order reads p + log2((1 +
    rho) / (1 + rho / 2)) with rho = b / x, the correction relative to the
    leading term at the nearer x. ORDER_BAND, 1 +- 0.15, admits rho up to
    0.25, where (1 + rho) / (1 + rho / 2) = 2^0.15. It rejects p = 0, a
    deviation that settles on a floor, as a 1% error in a far-field row or
    in a chain matrix leaves one (its last order then reads 0.45 or less),
    and p = 2, a 1/x term that cancels. Measured on the vehicle at alpha in
    {0, 5} and the headings below: (a) and (b) read 0.985 to 1.017, (c)
    1.001 to 1.114 (rho = 0.18 for four radars at 120 m).
    """
    magnitudes = np.abs(deviations)
    return np.log2(magnitudes[:-1] / magnitudes[1:])


def _relative(matrix, reference) -> float:
    """||matrix - reference|| / ||reference||, in the Frobenius norm."""
    return float(np.linalg.norm(matrix - reference) / np.linalg.norm(reference))


def _at_range(scenario, alpha, heading_deg, d):
    """The scenario at roughness alpha and the heading, at range d along
    its own bearing."""
    pose = TargetPose(d, scenario.pose.phi, np.radians(heading_deg))
    return replace(scenario, alpha=alpha).with_pose(pose)


@pytest.mark.parametrize("heading_deg", [60.0, 90.0, 180.0])
@pytest.mark.parametrize("alpha", [0.0, 5.0])
def test_exact_information_tends_to_the_long_range_one(scenario, alpha, heading_deg):
    """(a) With bearing and heading held, ||J - T|| / ||T|| (J =
    efim_exact, T = t_blocks, both at the scenario's E/N0) falls as 1/d:
    the far-field rows are the limit of the exact ones as d grows, and both
    stacks are weighted on the same lit arc, so their difference is O(1/d)
    node by node. It reads 1.6e-3 to 2.8e-3 at 1280 m."""
    dev = [_relative(efim_exact(sc).matrix, t_blocks(sc).matrix)
           for sc in (_at_range(scenario, alpha, heading_deg, d) for d in RANGES)]
    orders = _doubling_order(dev)
    assert np.all((orders > ORDER_BAND[0]) & (orders < ORDER_BAND[1])), (orders, dev)


@pytest.mark.parametrize("heading_deg", [60.0, 90.0, 180.0])
@pytest.mark.parametrize("alpha", [0.0, 5.0])
def test_long_range_information_tends_to_its_limit(scenario, alpha, heading_deg):
    """(b) T is not free of the range: its far-field rows are, but they are
    weighted on the pose's own lit arc, whose nodes and weights w, v follow
    the bearings of the contour points, and those approach the center's
    bearing at O(1/d). So ||T(d) - T(inf)|| / ||T(inf)||, with T(inf) read
    at LIMIT_RANGE (its own offset there is O(1e-7), under a thousandth of
    the deviation at 1280 m), falls as 1/d. At alpha = 0 the lit node set
    changes with d and the weight w kinks at the shadow, so the trapezoid
    adds a jitter to the deviation; the orders stay within 0.015 of 1."""
    limit = t_blocks(_at_range(scenario, alpha, heading_deg, LIMIT_RANGE)).matrix
    dev = [_relative(t_blocks(_at_range(scenario, alpha, heading_deg, d)).matrix, limit)
           for d in RANGES]
    orders = _doubling_order(dev)
    assert np.all((orders > ORDER_BAND[0]) & (orders < ORDER_BAND[1])), (orders, dev)


@pytest.mark.parametrize("array_n", [30, 300000])
@pytest.mark.parametrize("heading_deg", [60.0, 90.0, 180.0])
@pytest.mark.parametrize("alpha", [0.0, 5.0])
def test_ring_position_information_tends_to_the_point_ring_law(bundle, alpha, heading_deg,
                                                                array_n):
    """(c) n >= 3 radars evenly on a circle of radius r about the target,
    each boresighted at it, share the total linear E/N0 E = 1e4 (RING_DB).
    For a point target radar k adds 2 (E / n) (L u_k u_k^T + (M / r^2)
    u_k' u_k'^T), with u_k its line of sight, u_k' its normal and L, M as
    in radar_constants; sum_k u_k u_k^T = (n / 2) I for n >= 3, so the (px,
    py) corner of the fused pose information is E (L + M / r^2) I for every
    n. The vehicle's corner tends to that law at O(1/r), for n = 3 to 6.
    With the vehicle's 30 elements L dominates the law (M / r^2 < 5e-3 L);
    with 3e5, M / r^2 does (550 L at 960 m), so the range and the bearing
    entries of each chain matrix are both checked.

    PEB_known is sqrt(trace([J_pose^-1]_pp)), and [J_pose^-1]_pp = (J_pp -
    J_ph J_hh^-1 J_hp)^-1 >= J_pp^-1, a Schur complement, so PEB_known >=
    sqrt(trace(J_pp^-1)) at every point; the smallest margin measured is
    4e-7 relative, far above the QR's rounding.

    The ring stays put (its first radar at RING_START) while the target
    turns, so each heading sees the ring from another side. A ring
    symmetric about the bow cancels the 1/r term: four radars with one
    dead ahead read order 2, which these headings avoid.
    """
    scenario = replace(bundle.scenario, alpha=alpha, array_n=array_n)
    target = bundle.target_xy
    heading = np.radians(heading_deg)
    big_l, big_m, _ = radar_constants(scenario)
    total = 10.0 ** (RING_DB / 10.0)
    for n in range(3, 7):
        dev = []
        for radius in RING_RADII:
            radars = uniform_constellation(target, n, radius, start_angle=RING_START)
            known = fuse(scenario, target, heading, radars,
                         total_e_over_n0_db=RING_DB).pose_block()
            corner = known.matrix[:2, :2]
            dev.append(_relative(corner, total * (big_l + big_m / radius**2) * np.eye(2)))
            assert peb(known.crb()) >= np.sqrt(np.trace(np.linalg.inv(corner))), (n, radius)
        orders = _doubling_order(dev)
        assert np.all((orders > ORDER_BAND[0]) & (orders < ORDER_BAND[1])), (n, orders, dev)
