"""Two-stage linear FEM for fourth-order singularly perturbed problems.

Solves -eps u'''' - a u''' + b u'' = -f with Lidstone boundary values
u(0) = u(1) = u''(0) = u''(1) = 0 by decoupling into a Poisson stage and
a convection-diffusion-reaction stage on uniform or Shishkin meshes,
with a closed-form oracle and a convergence / timing harness.
"""

from .assembly import (
    ProblemCoefficients,
    assemble_cdr,
    assemble_poisson,
    load_vector,
    load_vector_from_solution,
)
from .errors import (
    InvalidParameterError,
    NumericalFailure,
    ResidualBoundError,
    SingularSystemError,
)
from .experiments import (
    RunRecord,
    SweepConfig,
    convergence_rate,
    max_error,
    run_sweep,
    timing_scaling,
)
from .mesh import (
    Mesh1D,
    MeshKind,
    ShishkinParams,
    build_mesh,
    build_shishkin,
    build_uniform,
)
from .oracle import (
    ExactModel,
    exact_f,
    exact_u,
    exact_w_polynomial,
    make_exact_model,
)
from .solver import (
    DecoupledSolution,
    FemSolution,
    PipelineTimings,
    StageTimings,
    solve_fourth_order,
)
from .tridiag import TridiagonalMatrix
from .tridiag import solve as tridiag_solve

__all__ = [
    "DecoupledSolution",
    "ExactModel",
    "FemSolution",
    "InvalidParameterError",
    "Mesh1D",
    "MeshKind",
    "NumericalFailure",
    "PipelineTimings",
    "ProblemCoefficients",
    "ResidualBoundError",
    "RunRecord",
    "ShishkinParams",
    "SingularSystemError",
    "StageTimings",
    "SweepConfig",
    "TridiagonalMatrix",
    "assemble_cdr",
    "assemble_poisson",
    "build_mesh",
    "build_shishkin",
    "build_uniform",
    "convergence_rate",
    "exact_f",
    "exact_u",
    "exact_w_polynomial",
    "load_vector",
    "load_vector_from_solution",
    "make_exact_model",
    "max_error",
    "run_sweep",
    "solve_fourth_order",
    "timing_scaling",
    "tridiag_solve",
]
