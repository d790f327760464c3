"""The paper's point-target connection as a limit of the computed bound.

Shrinking the contour by eps (m and n scaled by eps, the pose kept) turns
the extended target into a point at its center, so the known-shape range
and bearing bounds must tend to point_target_crb. What is tested is the
order of that approach, read off decade ratios.

The tolerance on an order: if the deviation is delta(eps) = a eps^p (1 +
r(eps)), the decade ratio delta(eps) / delta(eps / 10) is 10^p times
(1 + r(eps)) / (1 + r(eps / 10)). Its observed order log10(ratio) rounds to
p, and to neither p - 1 nor p + 1, as long as the higher terms r stay below
(sqrt(10) - 1) / (sqrt(10) + 1) = 0.52 of the leading one. So the test asks
|log10(ratio) - p| < 1/2: it pins the leading power of eps and tolerates
any correction that does not rival it. On the vehicle at 60 and 90 degrees
the range orders read 1.975 to 2.006 and the bearing orders 0.97 to 1.37
(the 90-degree poses carry the larger eps^2 term).
"""

from dataclasses import replace

import numpy as np
import pytest

from hcrb.contour import ContourParams
from hcrb.fisher import efim_exact, point_target_crb

# contour scales, a decade apart
EPS = (1e-2, 1e-3, 1e-4, 1e-5)


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
