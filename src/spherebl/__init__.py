"""Sharp multilinear Holder-type inequalities on real spheres.

Block-rotation symmetries of functions on S^(n-1), the exact combinatorics
of their sharp Lebesgue exponents, and seeded Monte Carlo experiments that
verify the inequalities and exhibit their sharpness.
"""

__version__ = "0.1.0"

from .enumeration import canonical_classes, enumerate_symmetries, iter_symmetries
from .errors import CapExceededError, InputError, NonFiniteSampleError
from .exponents import (
    BalancedType,
    ExponentReport,
    all_balanced_types,
    balanced_exponent,
    balanced_local_delta,
    balanced_types_upto,
    critical_gamma,
    edge_membership_count,
    identity_critical_gamma,
    identity_exponent_count,
    identity_partition,
    j_max,
    local_delta,
    multinomial,
    overcount_factor,
    per_function_exponents,
    report_for_family,
    report_for_type,
    uniform_exponent,
)
from .extremal import (
    DivergenceReport,
    ExtremalParams,
    GrowthReport,
    NormScanReport,
    default_eps_grid,
    default_r_grid,
    extremal_function,
    local_growth_experiment,
    norm_boundary_scan,
    sharpness_experiment,
)
from .fitting import LineFit, fit_line
from .functions import (
    constant_integrand,
    random_block_invariant,
)
from .quadrature import (
    RNG_ALGORITHM,
    Estimate,
    Integrand,
    QuadConfig,
    VerificationRecord,
    ball_volume,
    holder_verify,
    holder_verify_sets,
    mc_ball_estimates,
    mc_sphere_estimates,
    sample_sphere,
)
from .symmetry import (
    EdgeSet,
    MultiIndex,
    Symmetry,
    complete_edges,
    decompose,
    is_maximal,
    lie_closure,
)
