"""Tridiagonal storage and the direct solver against a dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfem import (
    InvalidParameterError,
    SingularSystemError,
    TridiagonalMatrix,
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

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(InvalidParameterError, match="diag"):
            TridiagonalMatrix(sub=np.ones(1), diag=np.array([1.0, np.nan]), sup=np.ones(1))

    def test_caller_arrays_stay_writeable(self):
        sub, diag, sup = np.ones(2), np.full(3, 4.0), np.ones(2)
        matrix = TridiagonalMatrix(sub=sub, diag=diag, sup=sup)
        sub[0] = diag[0] = sup[0] = 2.0
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

    def test_singular_pivot_names_row(self):
        m = TridiagonalMatrix(
            sub=np.array([1.0, 1.0]),
            diag=np.array([1.0, 1.0, 1.0]),
            sup=np.array([1.0, 1.0]),
        )
        # elimination zeroes the second pivot: 1 - (1/1)*1 = 0
        with pytest.raises(SingularSystemError) as err:
            tridiag_solve(m, np.ones(3))
        assert err.value.row == 1

    def test_rhs_dimension_mismatch(self):
        m = TridiagonalMatrix(sub=np.zeros(2), diag=np.ones(3), sup=np.zeros(2))
        with pytest.raises(InvalidParameterError, match="rhs"):
            tridiag_solve(m, np.ones(4))


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
