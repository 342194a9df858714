"""Recovery of functions from subsampled local averages on structured grids.

Submodules:
  grid          two-scale geometry, grid functions, midpoint-rule norms
  measurements  the measurement operator: unit-mass functionals, measuring a field
  elliptic      multilinear stiffness operator, solves, inner products
  recovery      piecewise-constant and multiscale recovery, constant estimator
  weights       singular weight fields and weighted recovery
  analytic      rate functions, the envelope bound, grid-free radial computations
  harness       experiment runners, slope fits, CSV/JSON persistence; not
                imported by the package: ``import msrecover.harness``
"""

# every module below loads with the package, and tracing wrappers such as
# bench/tracing.py's bind only in loaded modules; the study layer (harness)
# loads with the command line or its own import
from .errors import AlignmentError, ConfigError, SolverError
from .grid import (CoarsePartition, DomainSpec, GridFunction, SubsampleSpec,
                   build_partition, build_subsample, gradient_lp_norm, lp_norm)
from .measurements import (MeasurementOperator, MeasurementVector, build_functionals, measure,
                           measure_all)
from .elliptic import (CoefficientField, StiffnessOperator, assemble,
                       checkerboard_coefficient, constant_coefficient, energy_inner,
                       l2_inner, layered_coefficient, lognormal_coefficient, solve)
from .recovery import (BasisSet, RecoveryReport, ThetaMatrix, build_theta,
                       constrained_minimizer, ms_recover, multiscale_basis, pc_recover, recover,
                       recovery_error_report, sharp_constant_estimate)
from .weights import (DistanceField, build_weight, distance_field, weight_condition_check,
                      weighted_basis)
from .analytic import (RadialFunction, alpha_envelope, ball_average_sequence, bound_integral,
                       critical_ratio, eval_radial, eval_radial_deriv, power_profile,
                       radial_function, rho)

__version__ = "0.1.0"
