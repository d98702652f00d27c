"""Assembly: coefficients, global stencils, and quadrature exactness."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layerfem import (
    InvalidParameterError,
    ProblemCoefficients,
    ShishkinParams,
    assemble_cdr,
    assemble_poisson,
    build_shishkin,
    build_uniform,
    load_vector,
    load_vector_from_solution,
)
from layerfem.tridiag import matvec


def to_dense(matrix):
    n = matrix.n
    dense = np.zeros((n, n))
    dense[np.arange(n), np.arange(n)] = matrix.diag
    dense[np.arange(1, n), np.arange(n - 1)] = matrix.sub
    dense[np.arange(n - 1), np.arange(1, n)] = matrix.sup
    return dense


def reference_load(mesh, coefficients):
    """(p, phi_i) for a polynomial p, integrated elementwise in closed form.

    The integrals are taken exactly in rationals from the float nodes and
    coefficients and rounded once, so no cancellation enters the reference.
    """
    c = [Fraction(ck) for ck in coefficients]

    def moment(a, b, j):  # integral of p(x) x^j over [a, b]
        return sum(ci * (b ** (i + j + 1) - a ** (i + j + 1)) / (i + j + 1)
                   for i, ci in enumerate(c))

    nodes = [Fraction(x) for x in mesh.nodes]
    out = [Fraction(0)] * len(nodes)
    for k, (a, b) in enumerate(zip(nodes[:-1], nodes[1:])):
        m0, m1 = moment(a, b, 0), moment(a, b, 1)
        out[k] += (b * m0 - m1) / (b - a)
        out[k + 1] += (m1 - a * m0) / (b - a)
    return np.array([float(v) for v in out[1:-1]])


class TestCoefficients:
    def test_defaults(self):
        coeffs = ProblemCoefficients(epsilon=1e-8)
        assert coeffs.a == 1.0 and coeffs.b == 1.0

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"epsilon": 0.0}, "epsilon"),
            ({"epsilon": 2.0}, "epsilon"),
            ({"epsilon": -1e-8}, "epsilon"),
            ({"epsilon": 0.5, "a": 0.0}, "a"),
            ({"epsilon": 0.5, "b": -1.0}, "b"),
            ({"epsilon": 0.5, "a": np.inf}, "a"),
            ({"epsilon": 0.5, "b": np.inf}, "b"),
        ],
    )
    def test_validation(self, kwargs, field):
        with pytest.raises(InvalidParameterError) as excinfo:
            ProblemCoefficients(**kwargs)
        assert excinfo.value.field == field


class TestPoisson:
    def test_uniform_stencil(self):
        system = assemble_poisson(build_uniform(4))
        assert np.allclose(system.matrix.diag, 8.0, atol=1e-12)
        assert np.allclose(system.matrix.sub, -4.0, atol=1e-12)
        assert np.allclose(system.matrix.sup, -4.0, atol=1e-12)

    def test_no_diffusion_scaling(self):
        # the first-stage operator carries no eps factor
        system = assemble_poisson(build_uniform(16))
        assert np.allclose(system.matrix.diag, 32.0, atol=1e-10)

    def test_shishkin_transition_row(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=8, epsilon=1e-8))
        system = assemble_poisson(mesh)
        h = mesh.element_lengths
        i = (len(mesh.nodes) - 1) // 2 - 1  # interior index of the node at tau
        assert system.matrix.diag[i] == pytest.approx(1.0 / h[i] + 1.0 / h[i + 1])
        assert system.matrix.sub[i - 1] == pytest.approx(-1.0 / h[i])
        assert system.matrix.sup[i] == pytest.approx(-1.0 / h[i + 1])

    def test_symmetry(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=16, epsilon=1e-4))
        system = assemble_poisson(mesh)
        assert np.array_equal(system.matrix.sub, system.matrix.sup)


class TestCdr:
    def test_uniform_combined_stencil(self):
        n, eps = 8, 1e-2
        h = 1.0 / n
        system = assemble_cdr(build_uniform(n), ProblemCoefficients(epsilon=eps))
        m = n - 1
        S = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
        C = 0.5 * (np.eye(m, k=1) - np.eye(m, k=-1))
        M = 4.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)
        expected = (eps / h) * S - C + (h / 6.0) * M
        assert np.max(np.abs(to_dense(system.matrix) - expected)) < 1e-13

    def test_convection_sits_in_skew_part(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=16, epsilon=1e-6))
        a = 2.5
        with_a = assemble_cdr(mesh, ProblemCoefficients(epsilon=1e-6, a=a))
        skew = 0.5 * (to_dense(with_a.matrix) - to_dense(with_a.matrix).T)
        m = with_a.matrix.n
        assert np.allclose(np.diag(skew, k=-1), a / 2.0, atol=1e-12)
        assert np.allclose(np.diag(skew, k=1), -a / 2.0, atol=1e-12)
        assert np.allclose(skew - np.diag(np.diag(skew, -1), -1)
                           - np.diag(np.diag(skew, 1), 1), 0.0, atol=1e-15)
        assert m == 15

    def test_quadratic_form_positive(self):
        rng = np.random.default_rng(7)
        mesh = build_shishkin(ShishkinParams(n_intervals=32, epsilon=1e-8))
        system = assemble_cdr(mesh, ProblemCoefficients(epsilon=1e-8))
        for _ in range(20):
            v = rng.standard_normal(system.matrix.n)
            assert float(v @ matvec(system.matrix, v)) > 0.0

    def test_reaction_free_limit(self):
        n, eps = 8, 0.25
        system = assemble_cdr(build_uniform(n), ProblemCoefficients(epsilon=eps, b=0.0))
        assert np.allclose(system.matrix.diag, 2.0 * eps * n, atol=1e-13)
        assert np.allclose(system.matrix.sub, -eps * n + 0.5, atol=1e-13)
        assert np.allclose(system.matrix.sup, -eps * n - 0.5, atol=1e-13)


class TestLoadVector:
    def test_constant_source_uniform(self):
        mesh = build_uniform(8)
        assert np.allclose(load_vector(mesh, lambda x: np.ones_like(x)), 0.125,
                           atol=1e-15)

    def test_linear_source_uniform(self):
        mesh = build_uniform(8)
        rhs = load_vector(mesh, lambda x: x)
        assert np.allclose(rhs, 0.125 * mesh.nodes[1:-1], atol=1e-15)

    def test_constant_source_shishkin(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=16, epsilon=1e-6))
        h = mesh.element_lengths
        rhs = load_vector(mesh, lambda x: np.ones_like(x))
        assert np.allclose(rhs, (h[:-1] + h[1:]) / 2.0, rtol=1e-13)

    def test_scalar_callable_fallback(self):
        mesh = build_uniform(4)
        vectorized = load_vector(mesh, lambda x: x * x)
        scalar_only = load_vector(mesh, lambda x: float(x) ** 2)
        assert np.array_equal(vectorized, scalar_only)

    @given(
        coefficients=st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
            min_size=1, max_size=3,
        ),
        n=st.sampled_from([4, 8, 16, 32]),
        shishkin=st.booleans(),
    )
    @settings(deadline=None, max_examples=60)
    @example(coefficients=[4.0, -4.0], n=32, shishkin=False)
    def test_quadratic_sources_integrated_exactly(self, coefficients, n, shishkin):
        if shishkin:
            mesh = build_shishkin(ShishkinParams(n_intervals=n, epsilon=1e-4))
        else:
            mesh = build_uniform(n)
        p = np.polynomial.Polynomial(coefficients)
        rhs = load_vector(mesh, p)
        expected = reference_load(mesh, coefficients)
        assert np.allclose(rhs, expected, rtol=1e-12, atol=1e-14)


class TestLoadVectorFromSolution:
    def test_trapezoid_collocates(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=8, epsilon=1e-8))
        v = mesh.nodes * (1.0 - mesh.nodes)
        h = mesh.element_lengths
        rhs = load_vector_from_solution(mesh, v, quadrature="trapezoid")
        assert np.allclose(rhs, v[1:-1] * (h[:-1] + h[1:]) / 2.0, rtol=1e-15)

    def test_accepts_solution_like_object(self):
        mesh = build_uniform(4)
        v = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        wrapped = SimpleNamespace(values=v)
        assert np.array_equal(
            load_vector_from_solution(mesh, wrapped),
            load_vector_from_solution(mesh, v),
        )

    def test_rejects_unknown_quadrature(self):
        mesh = build_uniform(4)
        for quadrature in ("simpson", "mass"):
            with pytest.raises(InvalidParameterError) as excinfo:
                load_vector_from_solution(mesh, np.zeros(5), quadrature=quadrature)
            assert excinfo.value.field == "quadrature"

    def test_rejects_length_mismatch(self):
        mesh = build_uniform(4)
        with pytest.raises(InvalidParameterError) as excinfo:
            load_vector_from_solution(mesh, np.zeros(4))
        assert excinfo.value.field == "w"
