"""Thickness, tau-convergence, regulator norms, and virtual-continuity
diagnostics on finite atomic product measure spaces.

Everything runs in two arithmetic regimes: exact rationals
(`fractions.Fraction`, default) and floats.  In float mode a tolerance
governs the certificate checks, and the kernels treat values below a fixed
`model.EPS` (1e-12) as zero.
"""

from .certs import (SrNormResult, StepFit, ThicknessResult, TransportResult,
                    step_fit_violations, verify_sr_certificates,
                    verify_thickness_result, verify_transport_result)
from .coupling import (HallResult, complete_to_bistochastic,
                       integrate_against_plan, max_bistochastic_mass, qb_norm)
from .flows import (BipartiteCoverInstance, InfeasibleError,
                    TransportationInstance, min_weighted_vertex_cover,
                    solve_transportation)
from .model import (DEFAULT_TOL, DiscreteSpace, MetricMatrix, Number, Plan,
                    ProductFunction, ProductSet, SeparableMajorant,
                    ValidationError, level_set, parse_number, product_measure,
                    validate_semimetric, validate_space)
from .srnorm import (cutoff, kernel_from_terms, layer_cake_integral,
                     nuclear_bound, sr_norm)
from .tau import TauResult, tau_ball_check, tau_distance
from .thickness import thickness, thickness_of_level_set
from .transport import (KrNormResult, TwoLevelReport, kantorovich, kr_norm,
                        two_level_duality_check)
from .vcdiag import (FAMILIES, MatrixDistribution, VcProfileResult,
                     family_function, matrix_distribution_exact,
                     matrix_distribution_sample, random_points_check,
                     refinement_study, sample_points, step_fit_exists, vc_profile)

__version__ = "0.1.0"
