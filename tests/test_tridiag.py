"""Tridiagonal storage and the direct solver against a dense oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfem import (
    InvalidParameterError,
    ProblemCoefficients,
    SingularSystemError,
    TridiagonalMatrix,
    assemble_cdr,
    build_mesh,
    tridiag_solve,
)
from layerfem.tridiag import matvec


def to_dense(m: TridiagonalMatrix) -> np.ndarray:
    dense = np.diag(m.diag)
    if m.n > 1:
        dense += np.diag(m.sub, -1) + np.diag(m.sup, 1)
    return dense


def random_dominant(rng: np.random.Generator, n: int) -> TridiagonalMatrix:
    sub = rng.uniform(-1.0, 1.0, n - 1)
    sup = rng.uniform(-1.0, 1.0, n - 1)
    # strict row dominance with margin
    bulk = np.zeros(n)
    bulk[1:] += np.abs(sub)
    bulk[:-1] += np.abs(sup)
    sign = rng.choice([-1.0, 1.0], n)
    diag = sign * (bulk + rng.uniform(0.5, 2.0, n))
    return TridiagonalMatrix(sub=sub, diag=diag, sup=sup)


class TestConstruction:
    def test_band_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError, match="sub"):
            TridiagonalMatrix(sub=np.ones(3), diag=np.ones(3), sup=np.ones(2))
        with pytest.raises(InvalidParameterError, match="sup"):
            TridiagonalMatrix(sub=np.ones(2), diag=np.ones(3), sup=np.ones(3))
        with pytest.raises(InvalidParameterError, match="diag"):
            TridiagonalMatrix(sub=[1.0], diag=[[4.0, 1.0], [1.0, 4.0]], sup=[1.0])

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(InvalidParameterError, match="diag"):
            TridiagonalMatrix(sub=np.ones(1), diag=np.array([1.0, np.nan]), sup=np.ones(1))

    def test_caller_arrays_stay_writeable(self):
        sub, diag, sup = np.ones(2), np.full(3, 4.0), np.ones(2)
        matrix = TridiagonalMatrix(sub=sub, diag=diag, sup=sup)
        rhs, x = np.ones(3), np.ones(3)
        tridiag_solve(matrix, rhs)
        matvec(matrix, x)
        sub[0] = diag[0] = sup[0] = rhs[0] = x[0] = 2.0
        for band in (matrix.sub, matrix.diag, matrix.sup):
            with pytest.raises(ValueError):
                band[0] = 1.0

    def test_n_property(self):
        m = TridiagonalMatrix(sub=np.zeros(2), diag=np.ones(3), sup=np.zeros(2))
        assert m.n == 3


class TestSolve:
    def test_second_difference_system(self):
        # hand-checkable: tridiag(-1, 2, -1) x = [1, 1, 1]
        m = TridiagonalMatrix(sub=-np.ones(2), diag=2.0 * np.ones(3), sup=-np.ones(2))
        x = tridiag_solve(m, np.ones(3))
        assert np.allclose(x, [1.5, 2.0, 1.5], atol=1e-14)

    def test_identity(self):
        m = TridiagonalMatrix(sub=np.zeros(4), diag=np.ones(5), sup=np.zeros(4))
        b = np.array([3.0, -1.0, 0.5, 2.0, 9.0])
        assert np.array_equal(tridiag_solve(m, b), b)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(1, 257))
            m = random_dominant(rng, n)
            b = rng.uniform(-1.0, 1.0, n)
            x = tridiag_solve(m, b)
            x_ref = np.linalg.solve(to_dense(m), b)
            denom = max(1.0, float(np.max(np.abs(x_ref))))
            assert float(np.max(np.abs(x - x_ref))) / denom < 1e-12

    def test_inputs_not_mutated(self):
        m = TridiagonalMatrix(sub=-np.ones(2), diag=2.0 * np.ones(3), sup=-np.ones(2))
        b = np.ones(3)
        before = (m.sub.copy(), m.diag.copy(), m.sup.copy(), b.copy())
        tridiag_solve(m, b)
        assert np.array_equal(m.sub, before[0])
        assert np.array_equal(m.diag, before[1])
        assert np.array_equal(m.sup, before[2])
        assert np.array_equal(b, before[3])

    @pytest.mark.parametrize(
        "diag, row",
        [
            ([0.0, 1.0, 1.0], 0),
            ([1.0, 1.0, 1.0], 1),  # 1 - (1/1)*1 = 0
            ([2.0, 1.5, 1.0], 2),  # pivots 2, 1.5 - 1/2 = 1, 1 - 1/1 = 0
        ],
        ids=["first", "middle", "last"],
    )
    def test_singular_pivot_names_row(self, diag, row):
        m = TridiagonalMatrix(sub=np.ones(2), diag=np.array(diag), sup=np.ones(2))
        with pytest.raises(SingularSystemError) as err:
            tridiag_solve(m, np.ones(3))
        assert err.value.row == row
        assert err.value.pivot == 0.0

    def test_rhs_dimension_mismatch(self):
        m = TridiagonalMatrix(sub=np.zeros(2), diag=np.ones(3), sup=np.zeros(2))
        with pytest.raises(InvalidParameterError, match="rhs"):
            tridiag_solve(m, np.ones(4))


def reference_thomas(matrix: TridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """The same elimination on Python lists, in the same order of operations."""
    n = matrix.n
    sub, sup, d, r = (a.tolist() for a in (matrix.sub, matrix.sup, matrix.diag, rhs))
    for i in range(1, n):
        m = sub[i - 1] / d[i - 1]
        d[i] = d[i] - m * sup[i - 1]
        r[i] = r[i] - m * r[i - 1]
    x = r
    x[n - 1] = r[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (r[i] - sup[i] * x[i + 1]) / d[i]
    return np.asarray(x)


class TestAssembledSystems:
    @pytest.mark.parametrize("kind", ["uniform", "shishkin"])
    @pytest.mark.parametrize("eps", [1.0, 1e-4, 1e-10])
    def test_bit_identical_to_list_thomas(self, kind, eps):
        # leading blocks of the stage-2 matrix on N = 2^12 + 2, so n = 2^12 + 1
        coeffs = ProblemCoefficients(eps)
        full = assemble_cdr(build_mesh(kind, 2**12 + 2, coeffs), coeffs).matrix
        rhs = np.random.default_rng(7).uniform(-1.0, 1.0, full.n)
        for n in (1, 2, 7, 2**12, full.n):
            m = TridiagonalMatrix(sub=full.sub[: n - 1], diag=full.diag[:n], sup=full.sup[: n - 1])
            assert np.array_equal(tridiag_solve(m, rhs[:n]), reference_thomas(m, rhs[:n])), n

    def test_peak_memory(self):
        # the sweep allocates only its pivots and x; boxing the bands read 17.0
        coeffs = ProblemCoefficients(1e-8)
        m = assemble_cdr(build_mesh("shishkin", 2**16, coeffs), coeffs).matrix
        n, rhs = m.n, np.ones(m.n)
        tracemalloc.start()
        try:
            tridiag_solve(m, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n, f"peak {peak / (8 * n):.2f} x 8n bytes"


class TestMatvec:
    def test_second_difference_on_ones(self):
        m = TridiagonalMatrix(sub=-np.ones(2), diag=2.0 * np.ones(3), sup=-np.ones(2))
        assert np.array_equal(matvec(m, np.ones(3)), [1.0, 0.0, 1.0])

    def test_zero_vector(self):
        m = TridiagonalMatrix(sub=np.ones(2), diag=np.ones(3), sup=np.ones(2))
        assert np.array_equal(matvec(m, np.zeros(3)), np.zeros(3))

    def test_identity(self):
        m = TridiagonalMatrix(sub=np.zeros(3), diag=np.ones(4), sup=np.zeros(3))
        x = np.array([1.0, -2.0, 3.0, 4.0])
        assert np.array_equal(matvec(m, x), x)

    def test_dimension_mismatch(self):
        m = TridiagonalMatrix(sub=np.zeros(2), diag=np.ones(3), sup=np.zeros(2))
        with pytest.raises(InvalidParameterError, match="x"):
            matvec(m, np.ones(2))


@given(
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(deadline=None, max_examples=60)
def test_solve_matvec_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    m = random_dominant(rng, n)
    x_true = rng.uniform(-10.0, 10.0, n)
    recovered = tridiag_solve(m, matvec(m, x_true))
    denom = max(1.0, float(np.max(np.abs(x_true))))
    assert float(np.max(np.abs(recovered - x_true))) / denom < 1e-10
