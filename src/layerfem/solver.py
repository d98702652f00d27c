"""The decoupled two-stage pipeline.

Stage 1 solves the Poisson problem -w'' = f; stage 2 feeds the discrete
w into the convection-diffusion-reaction problem
-eps u'' - a u' + b u = w.  The composite u approximates the fourth-order
problem -eps u'''' - a u''' + b u'' = -f with Lidstone boundary values.
Stage 1 eliminates with pivots known in closed form (`_poisson_direct`);
stage 2 goes through the general Thomas solve in `tridiag`.  Both are
gated on the same row-scaled backward error.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .assembly import (
    ProblemCoefficients,
    assemble_cdr,
    assemble_poisson,
    load_vector,
    load_vector_from_solution,
)
from .errors import NumericalFailure, ResidualBoundError, checked_array
from .mesh import Mesh1D
from .tridiag import TridiagonalMatrix, matvec, solve

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
        values = checked_array("values", self.values, self.mesh.nodes.shape[0])
        object.__setattr__(self, "values", values)


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


def _gated(matrix: TridiagonalMatrix, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x, once A x = rhs passes the backward-error gate; a non-finite x fails it."""
    row_sums = np.abs(matrix.diag)
    row_sums[1:] += np.abs(matrix.sub)
    row_sums[:-1] += np.abs(matrix.sup)
    # eta <= c u times its denominator, so that b = x = 0 passes and NaN fails.
    # eta is homogeneous in (x, b): scaled down by a power of two (exact) to
    # max norm <= 1, neither A x nor the bound can overflow on finite x and b.
    x_max = float(np.abs(x).max())
    scale = math.ldexp(1.0, -max(0, math.frexp(max(x_max, float(np.abs(rhs).max())))[1]))
    xs, b = (x, rhs) if scale == 1.0 else (x * scale, rhs * scale)
    # a non-finite x makes the bound inf or NaN, which fails the test below
    with np.errstate(over="ignore", invalid="ignore"):
        bound = BACKWARD_ERROR_BOUND * (x_max * scale + float((np.abs(b) / row_sums).max()))
        residual = float((np.abs(matvec(matrix, xs) - b) / row_sums).max())
    if not residual <= bound < math.inf:
        raise ResidualBoundError(residual, bound)
    return x


def _poisson_direct(mesh: Mesh1D, load: np.ndarray) -> np.ndarray:
    """Interior w with K w = load, K the Poisson stiffness matrix of the mesh.

    Thomas elimination on K has closed-form coefficients: with x_0 = 0
    and h_i the element right of node x_i, the pivots are
    1/h_i + 1/x_i, the multipliers -x_{i-1}/x_i and the
    back-substitution factors x_i/x_{i+1}.  Both sweeps are therefore
    cumulative sums with positive weights.  Summing element fluxes
    instead (q = q_0 - cumsum(load), w = cumsum(h q)) is cheaper still but
    not backward stable: it cancels on oscillating and layer sources.
    """
    x = mesh.nodes
    xi = x[1:-1]
    r = np.cumsum(xi * load) / xi
    return xi * np.cumsum((r * mesh.element_lengths[1:] / x[2:])[::-1])[::-1]


def solve_fourth_order(mesh: Mesh1D, coeffs: ProblemCoefficients, f) -> DecoupledSolution:
    """Solve the fourth-order problem by its two stages on one mesh.

    Stage 1, -w'' = f with w(0) = w(1) = 0, is nodally exact for linear
    elements whenever f's load vector is integrated exactly, in particular
    for constant f; it is solved in O(N) by two cumulative sums
    (`_poisson_direct`).  Stage 2, -eps u'' - a u' + b u = w_n with
    u(0) = u(1) = 0, takes w_n by nodal collocation (trapezoid quadrature,
    `load_vector_from_solution`): the exact product, `load_vector` on the
    interpolant of w_n, spoils the observed rates on coarse Shishkin
    meshes.  Each stage is gated on its backward error and timed.
    """
    started = time.perf_counter()
    system, load = assemble_poisson(mesh), load_vector(mesh, f)
    assembled = time.perf_counter()
    if not np.isfinite(load).all():
        raise NumericalFailure("right-hand side has non-finite entries")
    x = _gated(system.matrix, load, _poisson_direct(mesh, load))
    t_poisson = StageTimings(assembled - started, time.perf_counter() - assembled)
    w = FemSolution(mesh, np.pad(x, 1))
    del system, load, x  # freed before stage 2 allocates

    started = time.perf_counter()
    # w passed its gate, so it is finite, and so is this rhs
    rhs = load_vector_from_solution(mesh, w)
    system = assemble_cdr(mesh, coeffs)
    assembled = time.perf_counter()
    x = _gated(system.matrix, rhs, solve(system.matrix, rhs))
    t_cdr = StageTimings(assembled - started, time.perf_counter() - assembled)
    u = FemSolution(mesh, np.pad(x, 1))
    return DecoupledSolution(w=w, u=u, timings=PipelineTimings(t_poisson, t_cdr))
