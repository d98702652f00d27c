"""Uniform and Shishkin (layer-adapted) partitions of [0, 1].

The Shishkin mesh splits [0, 1] at the transition point

    tau = min(1/2, sigma * epsilon * ln(N) / alpha)

and places N/2 equal elements in the layer region [0, tau] and N/2 equal
elements in [tau, 1].  The boundary layer sits at x = 0, so the fine half
is always on the left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import check_at_least, check_epsilon, check_n_intervals, check_positive


class MeshKind(str, Enum):
    UNIFORM = "uniform"
    SHISHKIN = "shishkin"


@dataclass(frozen=True)
class ShishkinParams:
    """Parameters of the layer-adapted mesh.

    alpha is the lower bound of the convection coefficient and sigma the
    mesh constant; sigma >= 2 is required for the interpolation theory
    behind the (N^-1 ln N)^2 error bound.
    """

    n_intervals: int
    epsilon: float
    alpha: float = 1.0
    sigma: float = 3.0

    def __post_init__(self) -> None:
        check_n_intervals("n_intervals", self.n_intervals)
        check_epsilon("epsilon", self.epsilon)
        check_positive("alpha", self.alpha)
        check_at_least("sigma", self.sigma, 2.0)


@dataclass(frozen=True)
class Mesh1D:
    """An ordered partition of [0, 1].

    nodes has n_intervals + 1 entries with nodes[0] = 0 and nodes[-1] = 1;
    element_lengths[k] = nodes[k+1] - nodes[k].  tau is the Shishkin
    transition point and is None for uniform meshes.
    """

    nodes: np.ndarray
    element_lengths: np.ndarray
    kind: MeshKind
    n_intervals: int
    tau: float | None = None

    @property
    def n_interior(self) -> int:
        return self.n_intervals - 1

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def build_uniform(n_intervals: int) -> Mesh1D:
    """Equidistant mesh with h = 1/N."""
    check_n_intervals("n_intervals", n_intervals)
    nodes = np.linspace(0.0, 1.0, n_intervals + 1)
    return Mesh1D(
        nodes=_freeze(nodes),
        element_lengths=_freeze(np.diff(nodes)),
        kind=MeshKind.UNIFORM,
        n_intervals=n_intervals,
    )


def build_shishkin(params: ShishkinParams) -> Mesh1D:
    """Piecewise-equidistant mesh refined toward the layer at x = 0."""
    n = params.n_intervals
    tau = min(0.5, params.sigma * params.epsilon * math.log(n) / params.alpha)
    h_fine = 2.0 * tau / n
    h_coarse = 2.0 * (1.0 - tau) / n
    lengths = np.concatenate(
        [np.full(n // 2, h_fine), np.full(n // 2, h_coarse)]
    )
    nodes = np.concatenate([[0.0], np.cumsum(lengths)])
    nodes[-1] = 1.0  # kill accumulated round-off in the last node
    return Mesh1D(
        nodes=_freeze(nodes),
        element_lengths=_freeze(np.diff(nodes)),
        kind=MeshKind.SHISHKIN,
        n_intervals=n,
        tau=tau,
    )


def build_mesh(
    kind: MeshKind | str, n: int, epsilon: float, sigma: float = 3.0, alpha: float = 1.0
) -> Mesh1D:
    """A mesh of the given kind; epsilon, sigma and alpha shape only Shishkin meshes."""
    if MeshKind(kind) is MeshKind.UNIFORM:
        return build_uniform(n)
    return build_shishkin(
        ShishkinParams(n_intervals=n, epsilon=epsilon, alpha=alpha, sigma=sigma)
    )
