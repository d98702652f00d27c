"""The decoupled two-stage pipeline.

Stage 1 solves the Poisson problem -w'' = f; stage 2 feeds the discrete
w into the convection-diffusion-reaction problem
-eps u'' - a u' + b u = w.  The composite u approximates the fourth-order
problem -eps u'''' - a u''' + b u'' = -f with Lidstone boundary values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .assembly import (
    AssembledSystem,
    ProblemCoefficients,
    assemble_cdr,
    assemble_poisson,
    load_vector,
    load_vector_from_solution,
)
from .errors import InvalidParameterError, NumericalFailure, ResidualBoundError
from .mesh import Mesh1D
from .tridiag import matvec, solve

# Gate: row-scaled backward error.  With D the absolute row sums of A, the
# normwise eta = |r| / (|A| |x| + |b|) (inf-norms; Rigal & Gaches, J. ACM 14,
# 1967; Higham, Accuracy and Stability, ch. 7) of D^-1 A x = D^-1 b, where
# |D^-1 A| = 1, must be <= c u with u = 2^-53, c = 32.  Unscaled, |A| ~ 1/h_fine
# on Shishkin meshes swamps the coarse rows.  Measured eta <= 3.3u for N <= 2^20,
# eps >= 1e-10, both meshes; one entry of x off by 1e-12 relative gives >= 1.9e3u.
BACKWARD_ERROR_BOUND = 32 * 2.0**-53


@dataclass(frozen=True)
class FemSolution:
    """Nodal values on a mesh; solver outputs pin both boundary values to 0."""

    mesh: Mesh1D
    values: np.ndarray

    def __post_init__(self) -> None:
        # a view, so freezing it leaves the caller's own array writeable
        v = np.ascontiguousarray(self.values, dtype=float).view()
        if v.shape != self.mesh.nodes.shape:
            raise InvalidParameterError(
                "values",
                f"expected {self.mesh.nodes.shape[0]} nodal values, got {v.shape}",
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class StageTimings:
    assembly_seconds: float
    solve_seconds: float


@dataclass(frozen=True)
class PipelineTimings:
    poisson: StageTimings
    cdr: StageTimings

    @property
    def assembly_seconds(self) -> float:
        return self.poisson.assembly_seconds + self.cdr.assembly_seconds

    @property
    def solve_seconds(self) -> float:
        return self.poisson.solve_seconds + self.cdr.solve_seconds


@dataclass(frozen=True)
class DecoupledSolution:
    w: FemSolution
    u: FemSolution
    timings: PipelineTimings


def _solve_stage(
    system: AssembledSystem, rhs: np.ndarray, started: float
) -> tuple[FemSolution, StageTimings]:
    """Solve one assembled stage, gate its backward error, pin the boundary to 0.

    started is when the stage's assembly began; the solve time includes
    the gate.  A non-finite rhs or residual fails the gate.
    """
    assembled = time.perf_counter()
    if not np.isfinite(rhs).all():
        raise NumericalFailure("right-hand side has non-finite entries")
    matrix = system.matrix
    x = solve(matrix, rhs)
    row_sums = np.abs(matrix.diag)
    row_sums[1:] += np.abs(matrix.sub)
    row_sums[:-1] += np.abs(matrix.sup)
    # eta <= c u times its denominator, so that b = x = 0 passes and NaN fails
    bound = BACKWARD_ERROR_BOUND * float(np.max(np.abs(x)) + np.max(np.abs(rhs) / row_sums))
    residual = float(np.max(np.abs(matvec(matrix, x) - rhs) / row_sums))
    if not residual <= bound:
        raise ResidualBoundError(residual, bound)
    solved = time.perf_counter()
    timings = StageTimings(assembled - started, solved - assembled)
    return FemSolution(mesh=system.mesh, values=np.pad(x, 1)), timings


def _poisson_stage(mesh: Mesh1D, f) -> tuple[FemSolution, StageTimings]:
    started = time.perf_counter()
    return _solve_stage(assemble_poisson(mesh), load_vector(mesh, f), started)


def _cdr_stage(
    mesh: Mesh1D, coeffs: ProblemCoefficients, source: FemSolution
) -> tuple[FemSolution, StageTimings]:
    if source.mesh is not mesh and not np.array_equal(source.mesh.nodes, mesh.nodes):
        raise InvalidParameterError("source", "source lives on a different mesh")
    started = time.perf_counter()
    rhs = load_vector_from_solution(mesh, source, "trapezoid")
    return _solve_stage(assemble_cdr(mesh, coeffs), rhs, started)


def solve_poisson(mesh: Mesh1D, f) -> FemSolution:
    """Stage 1: -w'' = f with w(0) = w(1) = 0.

    Linear elements are nodally exact here for any f whose load vector is
    integrated exactly, in particular for constant f.
    """
    return _poisson_stage(mesh, f)[0]


def solve_cdr(mesh: Mesh1D, coeffs: ProblemCoefficients, source: FemSolution) -> FemSolution:
    """Stage 2: -eps u'' - a u' + b u = w_n with u(0) = u(1) = 0.

    w_n enters by nodal collocation (trapezoid quadrature); exact
    mass-matrix transfer spoils the observed rates on coarse Shishkin meshes.
    """
    return _cdr_stage(mesh, coeffs, source)[0]


def solve_fourth_order(mesh: Mesh1D, coeffs: ProblemCoefficients, f) -> DecoupledSolution:
    """Run both stages on one mesh, recording per-stage wall-clock time."""
    w, t_poisson = _poisson_stage(mesh, f)
    u, t_cdr = _cdr_stage(mesh, coeffs, w)
    return DecoupledSolution(w=w, u=u, timings=PipelineTimings(t_poisson, t_cdr))
