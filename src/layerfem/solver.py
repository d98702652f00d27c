"""The decoupled two-stage pipeline.

Stage 1 solves the Poisson problem -w'' = f; stage 2 feeds the discrete
w into the convection-diffusion-reaction problem
-eps u'' - a u' + b u = w.  The composite u approximates the fourth-order
problem -eps u'''' - a u''' + b u'' = -f with Lidstone boundary values.
"""

from __future__ import annotations

import math
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

RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class FemSolution:
    """Nodal values on a mesh; solver outputs pin both boundary values to 0."""

    mesh: Mesh1D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.shape != self.mesh.nodes.shape:
            raise InvalidParameterError(
                "values",
                f"expected {self.mesh.nodes.shape[0]} nodal values, got {v.shape}",
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def evaluate(self, x):
        """Piecewise-linear interpolant; exact at the nodes."""
        return np.interp(x, self.mesh.nodes, self.values)


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
    """Solve one assembled stage, gate its residual and pin the boundary to 0.

    started is when the stage's assembly began; the solve time includes
    the residual gate.  A non-finite rhs or residual fails the gate.
    """
    assembled = time.perf_counter()
    scale = float(np.max(np.abs(rhs)))
    if not math.isfinite(scale):
        raise NumericalFailure("right-hand side has non-finite entries")
    x = solve(system.matrix, rhs)
    bound = RESIDUAL_RTOL * (1.0 + scale)
    residual = float(np.max(np.abs(matvec(system.matrix, x) - rhs)))
    if not residual <= bound:
        raise ResidualBoundError(residual, bound)
    solved = time.perf_counter()
    values = np.zeros(system.mesh.nodes.shape[0])
    values[1:-1] = x
    timings = StageTimings(assembled - started, solved - assembled)
    return FemSolution(mesh=system.mesh, values=values), timings


def solve_poisson(mesh: Mesh1D, f) -> FemSolution:
    """Stage 1: -w'' = f with w(0) = w(1) = 0.

    Linear elements are nodally exact here for any f whose load vector is
    integrated exactly, in particular for constant f.
    """
    started = time.perf_counter()
    return _solve_stage(assemble_poisson(mesh), load_vector(mesh, f), started)[0]


def solve_cdr(
    mesh: Mesh1D,
    coeffs: ProblemCoefficients,
    source: FemSolution,
    source_quadrature: str = "trapezoid",
) -> FemSolution:
    """Stage 2: -eps u'' - a u' + b u = w_n with u(0) = u(1) = 0.

    The source enters through nodal collocation (trapezoid quadrature) by
    default.  Exact mass-matrix transfer of w_n is available via
    source_quadrature="mass", but on coarse Shishkin meshes it shifts the
    layer response enough to spoil the observed second-order rates, so
    collocation is the pipeline's operating mode.
    """
    if source.mesh is not mesh and not np.array_equal(source.mesh.nodes, mesh.nodes):
        raise InvalidParameterError("source", "source lives on a different mesh")
    started = time.perf_counter()
    system = assemble_cdr(mesh, coeffs)
    rhs = load_vector_from_solution(mesh, source, quadrature=source_quadrature)
    return _solve_stage(system, rhs, started)[0]


def solve_fourth_order(
    mesh: Mesh1D,
    coeffs: ProblemCoefficients,
    f,
    source_quadrature: str = "trapezoid",
) -> DecoupledSolution:
    """Run both stages on one mesh, recording per-stage wall-clock time."""
    started = time.perf_counter()
    w, t_poisson = _solve_stage(assemble_poisson(mesh), load_vector(mesh, f), started)
    started = time.perf_counter()
    system = assemble_cdr(mesh, coeffs)
    rhs = load_vector_from_solution(mesh, w, quadrature=source_quadrature)
    u, t_cdr = _solve_stage(system, rhs, started)
    return DecoupledSolution(
        w=w, u=u, timings=PipelineTimings(poisson=t_poisson, cdr=t_cdr)
    )
