"""Hardy-type operators, mixed radial-angular norms, and sharp operator-norm
verification on Heisenberg groups.

The package is organized around six pieces: group geometry and gauge metric
(`geometry`), certified radial quadrature plus seeded Monte Carlo sampling
(`quadrature`), the four Hardy-type operators (`operators`), mixed
radial-angular norms and radialization (`mixed_norm`), sharp constants and
the per-query verdict `verify` (`sharp_constants`), and a reproducible
command-line front end (`cli`).
"""

__version__ = "0.1.0"

from .geometry import (
    HeisSpace,
    heis_space,
    group_mul_array,
    dilate_array,
    koranyi_norm_array,
    sphere_project_array,
    heis_distance,
)
from .quadrature import (
    QuadratureSpec,
    RadialProfile,
    integrate_radial,
    mc_ball_sample,
    mc_sphere_sample,
)
from .operators import (
    OperatorKind,
    power_weight,
    HARDY,
    DUAL_HARDY,
    apply_operator,
)
from .mixed_norm import MixedExponents, SeparableFunction, radial_norm_with_error, radialize
from .sharp_constants import (
    SharpConstantQuery,
    theoretical_constant,
    extremal_ratio,
    convergence_table,
    upper_bound_probe,
    verify,
)
