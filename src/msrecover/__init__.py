"""Recovery of functions from subsampled local averages on structured grids.

Submodules:
  grid          two-scale geometry, grid functions, midpoint-rule norms
  measurements  unit-mass measurement functionals and growth envelopes
  elliptic      multilinear stiffness operator, solves, inner products
  recovery      piecewise-constant and multiscale recovery, constant estimator
  weights       singular weight fields and weighted recovery
  analytic      rate functions and grid-free radial optimality computations
  harness       experiment runners, slope fits, CSV/JSON persistence
"""

from .errors import AlignmentError, ConfigError, SolverError
from .grid import (CoarsePartition, DomainSpec, GridFunction, SubsampleSpec,
                   build_partition, build_subsample, gradient_lp_norm, lp_norm)
from .measurements import (MeasurementFunctional, MeasurementVector, alpha_envelope,
                           bound_integral, build_functionals, measure, measure_all)
from .elliptic import (CoefficientField, StiffnessOperator, assemble,
                       checkerboard_coefficient, constant_coefficient, energy_inner,
                       l2_inner, layered_coefficient, lognormal_coefficient, solve)
from .recovery import (BasisSet, RecoveryReport, ThetaMatrix, build_theta, ms_recover,
                       multiscale_basis, pc_recover, recovery_error_report,
                       sharp_constant_estimate)
from .weights import (DistanceField, WeightField, build_weight, distance_field,
                      weight_condition_check, weighted_basis)
from .analytic import (RadialFunction, ball_average_sequence, critical_ratio, eval_radial,
                       eval_radial_deriv, power_profile, radial_function, rho)
from .harness import (ExperimentConfig, FitResult, fit_loglog, run_convergence_study,
                      run_degeneracy_study, run_pointwise_limit_study, run_rate_study,
                      run_weighted_study)

__version__ = "0.1.0"
