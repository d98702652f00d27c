"""Uniform and Shishkin (layer-adapted) partitions of [0, 1].

The Shishkin mesh splits [0, 1] at the transition point

    tau = min(1/2, sigma * epsilon * ln(N) / alpha)

and places N/2 equal elements in the layer region [0, tau] and N/2 equal
elements in [tau, 1].  The boundary layer sits at x = 0, so the fine half
is always on the left.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParameterError, check_at_least, check_epsilon, check_n_intervals
from .errors import check_member, check_positive, checked_array

if TYPE_CHECKING:  # assembly imports this module
    from .assembly import ProblemCoefficients


class MeshKind(str, Enum):
    UNIFORM = "uniform"
    SHISHKIN = "shishkin"


@dataclass(frozen=True)
class ShishkinParams:
    """Parameters of the layer-adapted mesh.

    alpha is the lower bound of the convection coefficient (the constant a
    of ProblemCoefficients) and sigma the mesh constant; sigma >= 2 is
    required for the interpolation theory behind the (N^-1 ln N)^2 error
    bound.
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
        # stage 1's row sums 4/h overflow at h = tiny; the floor keeps a factor 2
        step, floor = 2.0 * self.tau / self.n_intervals, 2.0 * sys.float_info.min
        if step < floor:
            # blame alpha if the step would pass with alpha capped at 1
            capped = 2.0 * self._tau(min(self.alpha, 1.0)) / self.n_intervals
            msg = f"fine step 2 tau/N = {step} (sigma {self.sigma:g}, alpha {self.alpha:g})"
            field = "alpha" if capped >= floor else "epsilon"
            raise InvalidParameterError(field, f"{msg} is below {floor:.3g}")

    @property
    def tau(self) -> float:
        """Transition point min(1/2, sigma * epsilon * ln(N) / alpha)."""
        return self._tau(self.alpha)

    def _tau(self, alpha: float) -> float:
        return min(0.5, self.sigma * self.epsilon * math.log(self.n_intervals) / alpha)


@dataclass(frozen=True)
class Mesh1D:
    """An ordered partition of [0, 1].

    nodes has N + 1 entries with nodes[0] = 0 and nodes[-1] = 1;
    element_lengths[k] = nodes[k+1] - nodes[k].  tau is the Shishkin
    transition point and is None for uniform meshes.
    """

    nodes: np.ndarray
    element_lengths: np.ndarray
    kind: MeshKind
    tau: float | None = None


def build_uniform(n_intervals: int) -> Mesh1D:
    """Equidistant mesh with h = 1/N."""
    check_n_intervals("n_intervals", n_intervals)
    nodes = np.linspace(0.0, 1.0, n_intervals + 1)
    return Mesh1D(
        nodes=checked_array("nodes", nodes, n_intervals + 1),
        element_lengths=checked_array("element_lengths", np.diff(nodes), n_intervals),
        kind=MeshKind.UNIFORM,
    )


def build_shishkin(params: ShishkinParams) -> Mesh1D:
    """Piecewise-equidistant mesh refined toward the layer at x = 0."""
    n, tau = params.n_intervals, params.tau
    h_fine = 2.0 * tau / n
    h_coarse = 2.0 * (1.0 - tau) / n
    lengths = np.concatenate(
        [np.full(n // 2, h_fine), np.full(n // 2, h_coarse)]
    )
    nodes = np.concatenate([[0.0], np.cumsum(lengths)])
    nodes[-1] = 1.0  # kill accumulated round-off in the last node
    return Mesh1D(
        nodes=checked_array("nodes", nodes, n + 1),
        element_lengths=checked_array("element_lengths", np.diff(nodes), n),
        kind=MeshKind.SHISHKIN,
        tau=tau,
    )


def build_mesh(
    kind: MeshKind | str, n: int, coeffs: ProblemCoefficients,
    sigma: float = ShishkinParams.sigma,
) -> Mesh1D:
    """A mesh of the given kind; ShishkinParams(n, eps, a, sigma) is checked for both."""
    try:
        params = ShishkinParams(n, coeffs.epsilon, coeffs.a, sigma)
    except InvalidParameterError as exc:  # its alpha is this problem's a
        if exc.field != "alpha":
            raise
        detail = str(exc).partition(": ")[2]
        raise InvalidParameterError("a", f"as the Shishkin alpha, {detail}") from None
    if check_member("kind", MeshKind, kind) is MeshKind.UNIFORM:
        return build_uniform(n)
    return build_shishkin(params)
