"""Tridiagonal systems over interior unknowns, solved directly in O(n).

The solver is a single forward-elimination / back-substitution pass
(Thomas algorithm) without pivoting; the assembled FEM systems here are
diagonally dominant or positive definite, and a near-zero pivot aborts
with the offending row instead of propagating NaNs.  The sweep reads the
bands through memoryviews and writes its pivots and x into two new
arrays, so it holds two arrays of n floats beyond its inputs.  The
pipeline uses it for the convection-diffusion-reaction stage; the
Poisson stage runs the same elimination with its coefficients in closed
form (`solver._poisson_direct`), and `matvec` gates both.
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

    # zip streams Python floats out of memoryviews of the bands, so no band is
    # copied; pivots and x are the only arrays the sweep allocates
    sub, diag, sup, r = map(memoryview, (matrix.sub, matrix.diag, matrix.sup, b))
    pivots, x = np.empty(n), np.empty(n)
    d, y = memoryview(pivots), memoryview(x)

    piv, yi = diag[0], r[0]
    if abs(piv) < PIVOT_FLOOR:
        raise SingularSystemError(0, piv)
    d[0], y[0] = piv, yi
    for i, s, di, u, ri in zip(range(1, n), sub, diag[1:], sup, r[1:]):
        m = s / piv
        piv = di - m * u
        if abs(piv) < PIVOT_FLOOR:
            raise SingularSystemError(i, piv)
        d[i] = piv
        y[i] = yi = ri - m * yi

    # back-substitution overwrites the eliminated rhs in y with x
    y[n - 1] = xi = yi / piv
    for i, yi, u, di in zip(range(n - 2, -1, -1), y[n - 2::-1], sup[::-1], d[n - 2::-1]):
        y[i] = xi = (yi - u * xi) / di
    return x


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
