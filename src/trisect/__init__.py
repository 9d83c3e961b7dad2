"""Numerical trisecants and multisecants of theta divisors of
hyperelliptic Jacobians, with explicit residual and rank certificates."""

from .errors import (TrisectError, InvalidInput, IllConditionedCurve,
                     NumericalFailure, PathDegenerate, AmbiguousConstant,
                     IndeterminateRank, NotOnTheta, PreconditionFailed)
from .numeric import (RankCertificate, numerical_rank, projective_angle,
                      DEFAULT_RANK_TOL)
from .theta import (RiemannMatrix, HalfCharacteristic, theta_batch,
                    second_order_basis, eps_from_index, index_from_eps,
                    all_epsilons, DEFAULT_THETA_TOL)
from .curves import (CurvePoint, Divisor, HyperellipticCurve, JacobianLift,
                     PeriodData, BellSample, involution, period_matrix,
                     abel_jacobi, abel_jacobi_divisor, riemann_constant,
                     random_curve_point, random_effective_divisor,
                     count_conjugate_pairs, divisor_is_special, sample_B_ell)
from .geometry import (KummerPoint, GaussImage, GaussFiberEntry,
                       kummer_map, gauss_map, on_theta, vanishing_order,
                       theta_divisor_point, canonical_direction,
                       hyperplane_residual, gauss_fiber_enumerate,
                       fiber_total_multiplicity)
from .secants import (SecantCertificate, TrisecantTriple, fay_construct,
                      fay_trisecant, theta_trisecant_construct,
                      theta_trisecant, certify_secant, gunning_construct,
                      multisecant_from_Bl, all_partitions,
                      multisecant_sweep, igusa_span_check)
from .gamma00 import (SectionCoefficients, TaylorConditions,
                      taylor_conditions,
                      expected_gamma00_dimension, gamma00_dimension,
                      gamma00_combination, trisecant_gamma00_test,
                      gamma00_controls, span_VpWp)

__version__ = "0.1.0"
