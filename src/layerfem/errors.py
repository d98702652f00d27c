"""Exception types and the parameter checks shared across the package.

Every rule a parameter must satisfy is written once here; the check
takes the field name so each caller reports its own flag or field.
"""

from __future__ import annotations

import math
import sys

import numpy as np


class InvalidParameterError(ValueError):
    """A parameter violates its documented constraint.

    Carries the offending field name so callers (and the CLI) can point
    at the exact flag or field that was rejected.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def check_epsilon(field: str, value: float) -> None:
    """eps must lie in [tiny, 1]: at subnormal eps the oracle's root -1/eps overflows."""
    tiny = sys.float_info.min
    if not (tiny <= value <= 1.0):
        raise InvalidParameterError(field, f"must be in [{tiny:.4g}, 1], got {value}")


def check_positive(field: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidParameterError(field, f"must be finite and > 0, got {value}")


def check_at_least(field: str, value: float, low: float) -> None:
    if not (math.isfinite(value) and value >= low):
        raise InvalidParameterError(
            field, f"must be finite and >= {low:g}, got {value}"
        )


def check_integer(field: str, value: int) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParameterError(field, f"must be an integer, got {value!r}")


def check_n_intervals(field: str, value: int) -> None:
    """Interval counts are even integers >= 4: both Shishkin halves get N/2."""
    check_integer(field, value)
    if value < 4 or value % 2 != 0:
        raise InvalidParameterError(field, f"must be even and >= 4, got {value}")


class NumericalFailure(ArithmeticError):
    """A solve produced something numerically unusable."""


class SingularSystemError(NumericalFailure):
    """Elimination hit a zero or near-zero pivot."""

    def __init__(self, row: int, pivot: float):
        self.row = row
        self.pivot = pivot
        super().__init__(
            f"near-zero pivot {pivot:.3e} at row {row}; system is singular "
            "or requires pivoting"
        )


class ResidualBoundError(NumericalFailure):
    """A finite element solve exceeded its residual tolerance."""

    def __init__(self, residual: float, bound: float):
        self.residual = residual
        self.bound = bound
        if math.isfinite(residual):
            message = f"solve residual {residual:.3e} exceeds bound {bound:.3e}"
        else:
            message = "solution has non-finite entries: the elimination overflowed"
        super().__init__(message)
