"""ovalbound: spectral lower-bound machinery for closed convex plane curves.

The package covers the full chain from a Fourier-parameterized curve to the
certified lower bound on the ground-state eigenvalue of its curvature
operator: curve validation, the periodic eigensolve in the tangent angle, energy
projections with the three-angle identity, the two bound surfaces with their
inf-max optimization, the closed-form 0.81 derivation, and the step-function
total-variation minimizer.
"""

__version__ = "0.1.0"

from .analytic import (AnalyticPipeline, b2_on_level, cardano_minimum,
                       level_set_delta_min, level_set_nu, minorant,
                       tangent_majorant_checks)
from .bounds import (BoundSurface, b1, b2, dual_use_delta_bound, g_factor,
                     optimize_infmax)
from .curves import (FourierCurve, ProfileDecomposition, ValidationReport,
                     critical_angles, decompose, random_curve, total_variation,
                     validate_curve)
from .projection import (AngleWeights, ConstantProjection, ProjectionData,
                         TwoExtremaPairs, build_projection,
                         classify_energy_projection, lambda_equal_point,
                         three_angle_energy, three_angle_weights)
from .spectral import (SpectralSolution, fd_reference_lambda, ground_state,
                       rayleigh_quotient)
from .variation import (AdmissibleSample, StepFunctionSpec, VariationBound,
                        make_step_spec, min_total_variation, plateau_sum,
                        plateau_sum_minimum, sample_admissible, sample_variation,
                        solve_balance, step_fourier_residuals, step_values)

__all__ = [name for name in dir() if not name.startswith("_")]
