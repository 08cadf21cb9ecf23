"""Stage-decoupled solvers for fully implicit Runge-Kutta time integration.

The kit solves the coupled stage equations of fully implicit Runge-Kutta
schemes by conjugating the stage system with the real Schur form of the
inverse coefficient matrix, reducing each step to a sequence of 1x1 shifted
solves and 2x2 eigen-block solves.  The 2x2 blocks are solved by GMRES with
a block lower-triangular preconditioner whose Schur-complement shift can be
chosen optimally.  Index-1 differential-algebraic systems are handled with
the same machinery on composite differential/algebraic stage blocks.
"""

from .densela import EigenBlock, SchurForm, cond2, lu_solve, real_schur
from .errors import (
    AssumptionViolationError,
    ConfigurationError,
    DecompositionError,
    IndexViolationError,
    IrkitError,
    KrylovBreakdownError,
    SingularMatrixError,
    StageSolveError,
    StepFailureError,
)
from .tableau import (
    ButcherTableau,
    StagePrep,
    gamma_star,
    kappa_bound,
    make_tableau,
    prepare_stages,
)
from .sparsela import BandedLU, KrylovReport, LinearOperator, SparseMatrix, gmres
from .irk_core import (
    Block2x2System,
    PrecondSpec,
    apply_block2x2,
    field_of_values_bound,
    measure_kappa,
    solve_transformed_system,
)
from .nonlinear import (
    OdeSystem,
    SolverConfig,
    StageState,
    build_variant_jacobian,
    integrate,
    newton_like_step,
    stage_residual,
    step,
)
from .dae import (
    DaeStageState,
    DaeSystem,
    dae_integrate,
    dae_stage_residual,
    dae_step,
    solve_dae_block4x4,
)
from .problems import ProblemSpec, make_problem

__all__ = [
    "AssumptionViolationError",
    "BandedLU",
    "Block2x2System",
    "ButcherTableau",
    "ConfigurationError",
    "DaeStageState",
    "DaeSystem",
    "DecompositionError",
    "EigenBlock",
    "IndexViolationError",
    "IrkitError",
    "KrylovBreakdownError",
    "KrylovReport",
    "LinearOperator",
    "OdeSystem",
    "PrecondSpec",
    "ProblemSpec",
    "SchurForm",
    "SingularMatrixError",
    "SolverConfig",
    "SparseMatrix",
    "StagePrep",
    "StageSolveError",
    "StageState",
    "StepFailureError",
    "apply_block2x2",
    "build_variant_jacobian",
    "cond2",
    "dae_integrate",
    "dae_stage_residual",
    "dae_step",
    "field_of_values_bound",
    "gamma_star",
    "gmres",
    "integrate",
    "kappa_bound",
    "lu_solve",
    "make_problem",
    "make_tableau",
    "measure_kappa",
    "newton_like_step",
    "prepare_stages",
    "real_schur",
    "solve_dae_block4x4",
    "solve_transformed_system",
    "stage_residual",
    "step",
]
