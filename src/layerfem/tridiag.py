"""Tridiagonal systems over interior unknowns, solved directly in O(n).

The solver is a single forward-elimination / back-substitution pass
(Thomas algorithm) without pivoting; the assembled FEM systems here are
diagonally dominant or positive definite, and a near-zero pivot aborts
with the offending row instead of propagating NaNs.  The pipeline uses
it for the convection-diffusion-reaction stage; the Poisson stage runs
the same elimination with its coefficients in closed form
(`solver._poisson_direct`), and `matvec` gates both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SingularSystemError

PIVOT_FLOOR = 1e-30


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Three bands of an n x n matrix: sub and sup have length n - 1."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self) -> None:
        for name in ("sub", "diag", "sup"):
            # a view, so freezing it leaves the caller's own array writeable
            arr = np.ascontiguousarray(getattr(self, name), dtype=float).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.diag.shape[0]
        if n < 1:
            raise InvalidParameterError("diag", "matrix must have n >= 1")
        if self.sub.shape != (n - 1,):
            raise InvalidParameterError(
                "sub", f"expected length {n - 1}, got {self.sub.shape[0]}"
            )
        if self.sup.shape != (n - 1,):
            raise InvalidParameterError(
                "sup", f"expected length {n - 1}, got {self.sup.shape[0]}"
            )
        for name in ("sub", "diag", "sup"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidParameterError(name, "entries must be finite")

    @property
    def n(self) -> int:
        return self.diag.shape[0]


def solve(matrix: TridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs; inputs are never mutated.

    Raises SingularSystemError when a pivot falls below PIVOT_FLOOR in
    magnitude, identifying the row.
    """
    n = matrix.n
    b = np.ascontiguousarray(rhs, dtype=float)
    if b.shape != (n,):
        raise InvalidParameterError("rhs", f"expected length {n}, got {b.shape}")

    # Plain Python lists beat per-element ndarray indexing in this
    # inherently sequential sweep by about 2x.
    sub = matrix.sub.tolist()
    sup = matrix.sup.tolist()
    d = matrix.diag.tolist()
    r = b.tolist()

    piv = d[0]
    if abs(piv) < PIVOT_FLOOR:
        raise SingularSystemError(0, piv)
    for i in range(1, n):
        m = sub[i - 1] / piv
        piv = d[i] - m * sup[i - 1]
        if abs(piv) < PIVOT_FLOOR:
            raise SingularSystemError(i, piv)
        d[i] = piv
        r[i] = r[i] - m * r[i - 1]

    x = r
    x[n - 1] = r[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (r[i] - sup[i] * x[i + 1]) / d[i]
    return np.asarray(x, dtype=float)


def matvec(matrix: TridiagonalMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x with out-of-range band terms treated as zero."""
    n = matrix.n
    xv = np.ascontiguousarray(x, dtype=float)
    if xv.shape != (n,):
        raise InvalidParameterError("x", f"expected length {n}, got {xv.shape}")
    y = matrix.diag * xv
    if n > 1:
        y[1:] += matrix.sub * xv[:-1]
        y[:-1] += matrix.sup * xv[1:]
    return y
