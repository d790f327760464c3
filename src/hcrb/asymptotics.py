"""Long-range limit of the bound.

As the range grows, the information approaches 2(E/N0) T, with T free of
the range: the Gram of the far-field stack (fisher.field_stack). Its bounds
are read as the exact ones are: crb() with the shape unknown,
pose_block().crb() with it known.
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
