"""Best approximation in max-plus semimodules.

Extended-real scalars (plain numbers) with the two additions,
residuated max-plus linear algebra, the Hilbert projective distance,
half-space geometry (canonical form, apex, projection, distance, the
full set of nearest points), finitely generated semimodules with
universal separating half-spaces, and two iterative solvers for systems
A x >= B x (one guarded loop with a cyclic and a power step) whose
traced reports sandwich_check compares.
"""

from .errors import (ClassificationError, DimensionError,
                     InfiniteDistanceError, MaxplusError, ParseError,
                     PointInSetError, UnsupportedCaseError)
from .extreal import (NEG_INF, POS_INF, ZERO, format_scalar, lower_add,
                      negate, parse_scalar, scalar, scalar_residual,
                      upper_add)
from .tropical_linalg import (TropicalMatrix, TropicalVector, format_matrix,
                              format_rows, format_vector, leq, mat_apply,
                              matrix, parse_matrix, parse_rows, parse_vector,
                              residuated_apply, row_apply, vec_meet,
                              vec_oplus, vec_residual, vec_scale, vector)
from .hilbert_metric import (PartDescriptor, anti_distance, hilbert_distance,
                             part_of, restrict)
from .halfspace import (BestApproxSet, CanonicalHalfSpace, FaceBox, HalfSpace,
                        Kind, Sector, apex_and_sectors, best_approx_set,
                        canonicalize, classify, contains, distance,
                        format_halfspace, is_best_approx, parse_halfspace,
                        project)
from .semimodule import (GeneratedSemimodule, distance_to, format_generators,
                         is_orthogonal, lift_point, membership,
                         parse_generators, reduce_problem,
                         universal_halfspace)
from .semimodule import project as project_semimodule
from .solvers import (DEFAULT_MAX_ITERS, FeasibilityResult, InequalitySystem,
                      IterationTrace, SolveReport, Status, cyclic_solve,
                      feasibility, power_solve, sandwich_check)

__version__ = "0.1.0"
