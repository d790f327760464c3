"""Long-range limit of the bound.

As the range grows, the information approaches 2(E/N0) T, with T free of
the range: the Gram of the far-field stack (fisher.field_stack). Its bounds
are read as the exact ones are: crb() with the shape unknown,
pose_block().crb() with it known.
"""

from ._linalg import triangular_factor
from .fisher import FisherInfo, check_not_endfire, field_stack, gamma_labels, radar_constants
from .scenario import Scenario


def t_blocks(scenario: Scenario) -> FisherInfo:
    """The long-range information 2(E/N0) T, from the QR of the far-field
    stack in the state order; IdentifiabilityError at endfire."""
    rows = field_stack(scenario, far_field=True)
    check_not_endfire(radar_constants(scenario)[2])
    return FisherInfo(r=triangular_factor(rows),
                      labels=tuple(gamma_labels(scenario.contour.q)))
