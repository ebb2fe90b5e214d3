"""First-order toolkit for nonsmooth, nonconvex, possibly non-Lipschitz
objectives, built on an exact directional-derivative calculus.

The pieces: an oracle contract (value plus lower directional derivative on
the extended line), combinators implementing exact chain and sum rules, a
zoo of closed-form oracles and derivable sets, exact direction searches over
l2/linf/l1 unit balls, Armijo and diminishing step schedules, the descent
main loop with stationarity certificates, and an independent brute-force
verification layer.
"""

from .calculus import (SemiDiffMap, SmoothMap, affine_map, dc_envelope_descent_constant,
                       envelope_composite_descent_constant, identity_map, penalize,
                       pointwise_max, pointwise_min, precompose_semidiff,
                       precompose_smooth, relu_map, scale, sum_models)
from .direction import (DirectionResult, NormChoice, solve_l1_extreme,
                        solve_l2_smooth, solve_linf_separable,
                        solve_sampling_fallback)
from .errors import (BacktrackExhausted, DimensionMismatch, DimensionTooLarge,
                     DomainViolation, EmptyList, EmptyProjection,
                     IndeterminateSum, InsufficientTrace, NoGradient,
                     NonpositiveScale, NotFeasible, NotSeparable,
                     ProxUnavailable, ToolkitError)
from .extreal import NEG_INF, POS_INF, ExtReal, ext_add
from .linesearch import (ArmijoParams, Schedule, armijo, armijo_schedule,
                         diminishing_schedule, schedule_step)
from .model import (FunctionModel, RowSubderivatives, Vector, as_directions, as_matrix,
                    as_vector, homogeneity_check)
from .oracles import (L1Inner, L1Norm, NegL1Norm, QuadraticInner, ReLUNetworkLoss,
                      ScalarProxInner, UserScalarInner, ZeroNormComposite,
                      ZeroNormInner, l1_norm, linear_model, moreau_envelope,
                      neg_l1_norm, quadratic_model, relu_network_loss,
                      smooth_model, zero_norm_composite)
from .sets import (AffineSubspace, Ball, Box, ComplementaritySet,
                   ConvexPolyhedron, FiniteUnion, SetModel, Singleton,
                   distance_to_set, nonnegative_orthant)
from .solver import (IterationRecord, RateAudit, SolverConfig, TerminalStatus,
                     Trace, ball_radius_sq, check_d_stationary, rate_audit,
                     rate_constant, run)
from .verify import (FDConfig, FDMode, FDResult, brute_force_direction,
                     descent_property_sample, fd_subderivative,
                     sufficient_decrease_audit, tangent_membership)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
