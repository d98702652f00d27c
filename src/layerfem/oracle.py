"""Closed-form exact solution of the model problem, the ground truth for
every error measurement.

The model is the fourth-order problem with unit coefficients and f = 1,
decoupled into -w'' = 1 and -eps u'' - u' + u = w.  Its solution is

    u(x) = c1 exp(r1 x) + c2 exp(r2 x) - (x^2 + x + 1)/2 - eps

where r1, r2 are the roots of eps r^2 + r - 1 = 0 and c1, c2 fit the
boundary values u(0) = u(1) = 0.  The intermediate is w(x) = x(1 - x)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, check_epsilon


@dataclass(frozen=True)
class ExactModel:
    epsilon: float
    r1: float
    r2: float
    c1: float
    c2: float


def make_exact_model(epsilon: float) -> ExactModel:
    check_epsilon("epsilon", epsilon)
    s = math.sqrt(1.0 + 4.0 * epsilon)
    r1 = 2.0 / (1.0 + s)
    # Algebraically equal to 2/(1 - s) but immune to the 1 - s
    # cancellation, which costs ~6 digits of the root at eps = 1e-10.
    r2 = -(1.0 + s) / (2.0 * epsilon)
    er1 = math.exp(r1)
    er2 = math.exp(r2)
    c2 = (er1 * (0.5 + epsilon) - (1.5 + epsilon)) / (er1 - er2)
    c1 = (0.5 + epsilon) - c2
    return ExactModel(epsilon=epsilon, r1=r1, r2=r2, c1=c1, c2=c2)


def _check_domain(x) -> np.ndarray:
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0) or np.any(xv > 1.0):
        raise InvalidParameterError("x", "points must lie in [0, 1]")
    return xv


def exact_u(model: ExactModel, x):
    """Evaluate the closed-form u; accepts scalars or arrays on [0, 1]."""
    xv = _check_domain(x)
    out = (
        model.c1 * np.exp(model.r1 * xv)
        + model.c2 * np.exp(model.r2 * xv)
        - (xv * xv + xv + 1.0) / 2.0
        - model.epsilon
    )
    return out if out.ndim else float(out)


def exact_f(x):
    """The model source; identically 1."""
    xv = _check_domain(x)
    out = np.ones_like(xv)
    return out if out.ndim else float(out)


def exact_w_polynomial(coefficients, x):
    """Exact solution of -w'' = p(x), w(0) = w(1) = 0, for a polynomial p.

    coefficients are p's coefficients in ascending order.  Used for the
    w_exact column when the CLI runs a polynomial source.
    """
    coeffs = [float(c) for c in coefficients]
    if not coeffs:
        raise InvalidParameterError("coefficients", "need at least one coefficient")
    xv = _check_domain(x)
    # double antiderivative P with P(0) = P'(0) = 0; then w = P(1) x - P(x)
    p_at_x = np.zeros_like(xv)
    p_at_one = 0.0
    for k, c in enumerate(coeffs):
        scale = c / ((k + 1) * (k + 2))
        p_at_x += scale * xv ** (k + 2)
        p_at_one += scale
    out = p_at_one * xv - p_at_x
    return out if out.ndim else float(out)
