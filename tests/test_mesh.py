"""Mesh construction: formulas, invariants, and validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfem import (
    InvalidParameterError,
    MeshKind,
    ProblemCoefficients,
    ShishkinParams,
    build_mesh,
    build_shishkin,
    build_uniform,
)


class TestUniform:
    def test_small_mesh_nodes(self):
        mesh = build_uniform(4)
        assert np.array_equal(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert mesh.kind is MeshKind.UNIFORM
        assert mesh.tau is None

    def test_element_lengths(self):
        mesh = build_uniform(8)
        assert np.allclose(mesh.element_lengths, 0.125, atol=1e-15)

    def test_large_mesh(self):
        mesh = build_uniform(1024)
        assert mesh.nodes.shape == (1025,)
        assert float(np.max(np.abs(mesh.element_lengths - 1.0 / 1024))) < 1e-14

    @pytest.mark.parametrize("bad", [7, 2, 0, -4])
    def test_invalid_n_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="n_intervals"):
            build_uniform(bad)


class TestShishkin:
    def test_capped_transition_collapses_to_equidistant(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=8, epsilon=1.0))
        assert mesh.tau == 0.5
        assert np.allclose(mesh.element_lengths, 0.125, atol=1e-15)
        assert mesh.kind is MeshKind.SHISHKIN

    def test_transition_formula(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=8, epsilon=1e-8, sigma=3.0))
        assert mesh.tau == pytest.approx(3e-8 * math.log(8), rel=1e-15)
        assert mesh.tau == pytest.approx(6.2383e-8, rel=1e-4)
        assert np.allclose(mesh.element_lengths[:4], mesh.tau / 4, rtol=1e-12)
        assert np.allclose(mesh.element_lengths[4:], (1 - mesh.tau) / 4, rtol=1e-12)

    def test_transition_formula_n16(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=16, epsilon=1e-6, sigma=3.0))
        assert mesh.tau == pytest.approx(3e-6 * math.log(16), rel=1e-15)
        assert mesh.tau == pytest.approx(8.3178e-6, rel=1e-4)

    def test_endpoints_exact(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=64, epsilon=1e-7))
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[-1] == 1.0

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(n_intervals=7, epsilon=1e-3), "n_intervals"),
            (dict(n_intervals=2, epsilon=1e-3), "n_intervals"),
            (dict(n_intervals=8, epsilon=0.0), "epsilon"),
            (dict(n_intervals=8, epsilon=2.0), "epsilon"),
            (dict(n_intervals=8, epsilon=1e-3, alpha=0.0), "alpha"),
            (dict(n_intervals=8, epsilon=1e-3, sigma=1.5), "sigma"),
            (dict(n_intervals=8, epsilon=1e-3, alpha=math.inf), "alpha"),
            (dict(n_intervals=8, epsilon=1e-3, sigma=math.inf), "sigma"),
            (dict(n_intervals=8, epsilon=5e-324), "epsilon"),
            (dict(n_intervals=1024, epsilon=1e-307), "epsilon"),
            # the fine step would pass with alpha capped at 1
            (dict(n_intervals=8, epsilon=1e-8, alpha=1e300), "alpha"),
        ],
    )
    def test_validation_names_offending_field(self, kwargs, field):
        with pytest.raises(InvalidParameterError) as excinfo:
            ShishkinParams(**kwargs)
        assert excinfo.value.field == field


class TestBuildMesh:
    @pytest.mark.parametrize("kind", list(MeshKind))
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"sigma": 1.5}, "sigma"),
            ({"sigma": math.nan}, "sigma"),
            ({"a": 1e306}, "a"),  # alpha = a: fine step 2 tau/N below 2 tiny
        ],
    )
    def test_shishkin_rule_holds_for_every_kind(self, kind, kwargs, field):
        coeffs = ProblemCoefficients(1e-3, a=kwargs.get("a", 1.0))
        with pytest.raises(InvalidParameterError) as excinfo:
            build_mesh(kind, 8, coeffs, kwargs.get("sigma", ShishkinParams.sigma))
        assert excinfo.value.field == field


even_ns = st.integers(min_value=2, max_value=256).map(lambda k: 2 * k)
epsilons = st.floats(min_value=1e-12, max_value=1.0, allow_nan=False)


@given(
    n=even_ns,
    eps=epsilons,
    sigma=st.floats(min_value=2.0, max_value=5.0, allow_nan=False),
    alpha=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
)
@settings(deadline=None, max_examples=100)
def test_shishkin_mesh_invariants(n, eps, sigma, alpha):
    mesh = build_shishkin(
        ShishkinParams(n_intervals=n, epsilon=eps, alpha=alpha, sigma=sigma)
    )
    nodes = mesh.nodes
    h = mesh.element_lengths

    assert nodes.shape == (n + 1,)
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0.0)
    assert abs(float(np.sum(h)) - 1.0) < 1e-14

    # N/2 fine elements fill [0, tau], N/2 coarse fill [tau, 1]
    tau = mesh.tau
    assert 0.0 < tau <= 0.5
    assert nodes[n // 2] == pytest.approx(tau, rel=1e-12, abs=1e-300)
    assert np.allclose(h[: n // 2], 2.0 * tau / n, rtol=1e-9)
    assert np.allclose(h[n // 2 :], 2.0 * (1.0 - tau) / n, rtol=1e-12)
    if tau < 0.5:
        assert float(np.max(h[: n // 2])) < float(np.min(h[n // 2 :]))


@given(n=even_ns, eps_hi=epsilons, factor=st.floats(min_value=1.0, max_value=1e6))
@settings(deadline=None, max_examples=60)
def test_transition_point_monotone_in_epsilon(n, eps_hi, factor):
    eps_lo = eps_hi / factor
    hi = build_shishkin(ShishkinParams(n_intervals=n, epsilon=eps_hi))
    lo = build_shishkin(ShishkinParams(n_intervals=n, epsilon=eps_lo))
    assert lo.tau <= hi.tau


@given(n=even_ns)
@settings(deadline=None, max_examples=40)
def test_uniform_mesh_invariants(n):
    mesh = build_uniform(n)
    assert mesh.nodes.shape == (n + 1,)
    assert abs(float(np.sum(mesh.element_lengths)) - 1.0) < 1e-14
    assert float(np.max(np.abs(mesh.element_lengths - 1.0 / n))) < 1e-14
