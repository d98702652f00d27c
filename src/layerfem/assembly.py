"""Linear finite element assembly on arbitrary meshes of [0, 1].

Hat basis functions with homogeneous Dirichlet conditions eliminated:
all assembled operators act on the n - 1 interior nodes.  Two bilinear
forms are covered, the Poisson form (w', v') and the
convection-diffusion-reaction form

    eps (u', v') - a (u', v) + b (u, v)

whose uniform-mesh matrix is (eps/h) S - C + (h/6) M for a = b = 1, with
S = tridiag(-1, 2, -1), C = (1/2) tridiag(-1, 0, 1) and
M = tridiag(1, 4, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, check_at_least, check_epsilon, check_positive
from .errors import checked_array
from .mesh import Mesh1D
from .tridiag import TridiagonalMatrix

# 2-point Gauss-Legendre rule on [0, 1]: exact for cubics, so exact for
# any quadratic source against a linear hat.
_GAUSS2_POINTS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


@dataclass(frozen=True)
class ProblemCoefficients:
    """Constant coefficients eps, a, b with eps in [tiny, 1], a > 0, b >= 0."""

    epsilon: float
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self) -> None:
        check_epsilon("epsilon", self.epsilon)
        check_positive("a", self.a)
        check_at_least("b", self.b, 0.0)


@dataclass(frozen=True)
class AssembledSystem:
    """Interior-node operator."""

    matrix: TridiagonalMatrix


def _stencil(
    mesh: Mesh1D, diffusion: float, convection: float, reaction: float
) -> TridiagonalMatrix:
    """Interior operator of diffusion (u', v') - convection (u', v) + reaction (u, v)."""
    h = mesh.element_lengths
    diag = diffusion * (1.0 / h[:-1] + 1.0 / h[1:]) + reaction * (h[:-1] + h[1:]) / 3.0
    shared = h[1:-1]  # element between consecutive interior nodes
    stiffness, mass = -diffusion / shared, reaction * shared / 6.0
    sub = stiffness + convection / 2.0 + mass
    # sup reuses stiffness's buffer: at large N an extra live array costs more
    # than computing the two terms once saves
    sup = np.subtract(stiffness, convection / 2.0, out=stiffness)
    sup += mass
    return TridiagonalMatrix(sub=sub, diag=diag, sup=sup)


def assemble_poisson(mesh: Mesh1D) -> AssembledSystem:
    """Interior operator of (w', v'); on a uniform mesh this is (1/h) S."""
    return AssembledSystem(_stencil(mesh, 1.0, 0.0, 0.0))


def assemble_cdr(mesh: Mesh1D, coeffs: ProblemCoefficients) -> AssembledSystem:
    """Interior operator of eps (u', v') - a (u', v) + b (u, v)."""
    return AssembledSystem(_stencil(mesh, coeffs.epsilon, coeffs.a, coeffs.b))


def load_vector(mesh: Mesh1D, f) -> np.ndarray:
    """Entries (f, phi_i) for interior i via 2-point Gauss per element."""
    nodes = mesh.nodes
    h = mesh.element_lengths
    accum = np.zeros(nodes.shape[0])
    for xi in _GAUSS2_POINTS:
        x = nodes[:-1] + xi * h
        fx = _evaluate(f, x)
        accum[:-1] += 0.5 * h * fx * (1.0 - xi)  # weight of the left hat
        accum[1:] += 0.5 * h * fx * xi           # weight of the right hat
    return accum[1:-1]


def _evaluate(f, x: np.ndarray) -> np.ndarray:
    try:
        fx = np.asarray(f(x), dtype=float)
        if fx.shape == x.shape:
            return fx
        if fx.ndim == 0:
            return np.broadcast_to(fx, x.shape)
    except (TypeError, ValueError):
        pass
    return np.asarray([float(f(float(v))) for v in x])


def load_vector_from_solution(mesh: Mesh1D, w, quadrature: str = "trapezoid") -> np.ndarray:
    """Entries w_i (h_i + h_{i+1}) / 2: (w_n, phi_i) by trapezoid quadrature.

    w_n is piecewise linear, given by nodal values; the trapezoid rule
    collapses the mass stencil to nodal collocation.  The exact product is
    load_vector on the interpolant, np.interp(x, mesh.nodes, w).
    """
    v = checked_array("w", getattr(w, "values", w), mesh.nodes.shape[0])
    if quadrature != "trapezoid":
        raise InvalidParameterError("quadrature", f"must be 'trapezoid', got {quadrature!r}")
    h = mesh.element_lengths
    return v[1:-1] * (h[:-1] + h[1:]) / 2.0
