"""Long-range limit of the bound.

As the range grows, the information approaches 2(E/N0) T, the Gram of the
far-field stack (fisher.field_stack). Its bounds are read as the exact ones
are: crb() with the shape unknown, pose_block().crb() with it known.

T is not free of the range. Its rows are the far-field limit, but they are
weighted on the pose's own lit arc, whose nodes and weights follow the
near-field bearings, so T moves with d at O(1/d) toward a range-free
limit: the reported long-range rows are far-field rows on the near-field
lit arc.
"""

from .fisher import FisherInfo, check_not_endfire, radar_constants, sized_info
from .scenario import Scenario


def t_blocks(scenario: Scenario) -> FisherInfo:
    """The long-range information 2(E/N0) T, from the QR of the far-field
    stack in the state order, sized with its own quadrature estimate
    (fisher.sized_info); IdentifiabilityError at endfire, checked before
    any stack is built."""
    check_not_endfire(radar_constants(scenario)[2])
    return sized_info(scenario, far_field=True)
