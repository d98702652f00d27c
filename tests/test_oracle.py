"""Oracle tests.

The reference constants below were computed independently with mpmath at
50 decimal digits before the float implementation existed, then frozen.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfem import (
    InvalidParameterError,
    exact_f,
    exact_u,
    exact_w_polynomial,
    make_exact_model,
)

# mpmath (mp.dps = 50), rounded to 17 significant digits
FROZEN = {
    1.0: {
        "r1": 0.61803398874989485,
        "r2": -1.6180339887498948,
        "c1": 1.3292592943661781,
        "c2": 0.17074070563382187,
        "u_half": 0.011594916063916057,
        "u_quarter": 0.0090435909133432743,
    },
    1e-2: {
        "r1": 0.9901951359278483,
        "r2": -100.99019513592785,
        "c1": 0.56097132710184234,
        "c2": -0.050971327101842336,
        "u_half": 0.035362267764048402,
        "u_quarter": 0.052287989782909941,
    },
    1e-10: {
        "r1": 0.9999999999,
        "r2": -10000000001.0,
        "c1": 0.55181916184913334,
        "c2": -0.051819161749133343,
        "u_half": 0.034795989575093001,
        "u_quarter": 0.052299829111899953,
    },
}

EPS_GRID = [1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10]


def scaled_root_residual(eps: float, r: float) -> float:
    """|eps r^2 + r - 1| relative to the largest term in the polynomial.

    For the layer root r2 ~ -1/eps the leading terms are ~1/eps, so an
    absolute residual bound is unattainable in 64-bit arithmetic; the
    scaled residual is the honest measure of root quality.
    """
    return abs(eps * r * r + r - 1.0) / max(1.0, abs(eps * r * r), abs(r))


class TestFrozenValues:
    @pytest.mark.parametrize("eps", sorted(FROZEN))
    def test_fields_match_high_precision_reference(self, eps):
        model = make_exact_model(eps)
        ref = FROZEN[eps]
        assert model.r1 == pytest.approx(ref["r1"], rel=1e-14)
        assert model.r2 == pytest.approx(ref["r2"], rel=1e-14)
        assert model.c1 == pytest.approx(ref["c1"], rel=1e-13)
        assert model.c2 == pytest.approx(ref["c2"], rel=1e-13)

    @pytest.mark.parametrize("eps", sorted(FROZEN))
    def test_point_values_match_high_precision_reference(self, eps):
        model = make_exact_model(eps)
        ref = FROZEN[eps]
        assert exact_u(model, 0.5) == pytest.approx(ref["u_half"], rel=1e-12)
        assert exact_u(model, 0.25) == pytest.approx(ref["u_quarter"], rel=1e-12)


class TestModelInvariants:
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_roots_satisfy_characteristic_polynomial(self, eps):
        model = make_exact_model(eps)
        assert scaled_root_residual(eps, model.r1) < 1e-12
        assert scaled_root_residual(eps, model.r2) < 1e-12

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_boundary_values_vanish(self, eps):
        model = make_exact_model(eps)
        assert abs(exact_u(model, 0.0)) < 1e-10
        assert abs(exact_u(model, 1.0)) < 1e-10

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_coefficient_sum(self, eps):
        model = make_exact_model(eps)
        assert model.c1 + model.c2 == pytest.approx(0.5 + eps, rel=1e-12)

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_layer_root_is_negative_and_evaluation_is_finite(self, eps):
        model = make_exact_model(eps)
        assert model.r2 < 0.0 < model.r1
        values = exact_u(model, np.linspace(0.0, 1.0, 257))
        assert np.all(np.isfinite(values))

    def test_epsilon_out_of_range_rejected(self):
        for bad in (0.0, -1e-3, 1.5):
            with pytest.raises(InvalidParameterError, match="epsilon"):
                make_exact_model(bad)


class TestSubstitution:
    """Verify the closed form against the differential equation itself.

    The substitution -eps u'' - u' + u must reproduce w(x) = x(1-x)/2.
    Near the layer the float64 residual is dominated by cancellation in
    eps r2^2 + r2 (about 1e-7 at eps = 1e-10), so the check recomputes
    the formulas in 50-digit arithmetic, which both validates the
    symbolic content and bounds the float fields against the same
    reference.
    """

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_ode_residual_in_high_precision(self, eps):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            e = mpmath.mpf(eps)
            s = mpmath.sqrt(1 + 4 * e)
            r1 = 2 / (1 + s)
            r2 = -(1 + s) / (2 * e)
            c2 = (mpmath.exp(r1) * (mpmath.mpf(1) / 2 + e) - (mpmath.mpf(3) / 2 + e)) / (
                mpmath.exp(r1) - mpmath.exp(r2)
            )
            c1 = (mpmath.mpf(1) / 2 + e) - c2
            worst = mpmath.mpf(0)
            for k in range(101):
                x = mpmath.mpf(k) / 100
                u = c1 * mpmath.exp(r1 * x) + c2 * mpmath.exp(r2 * x) - (x * x + x + 1) / 2 - e
                up = c1 * r1 * mpmath.exp(r1 * x) + c2 * r2 * mpmath.exp(r2 * x) - x - mpmath.mpf(1) / 2
                upp = c1 * r1 * r1 * mpmath.exp(r1 * x) + c2 * r2 * r2 * mpmath.exp(r2 * x) - 1
                residual = -e * upp - up + u - x * (1 - x) / 2
                worst = max(worst, abs(residual))
            assert worst < 1e-9

            # float fields agree with the 50-digit reference
            model = make_exact_model(eps)
            for name, ref in (("r1", r1), ("r2", r2), ("c1", c1), ("c2", c2)):
                rel = abs((getattr(model, name) - ref) / ref)
                assert rel < 1e-12, f"{name} deviates by {float(rel):.2e}"


class TestAuxiliaryFunctions:
    def test_w_values(self):
        assert exact_w_polynomial((1.0,), 0.0) == 0.0
        assert exact_w_polynomial((1.0,), 1.0) == 0.0
        assert exact_w_polynomial((1.0,), 0.5) == 0.125

    def test_f_is_one(self):
        x = np.linspace(0.0, 1.0, 11)
        assert np.all(exact_f(x) == 1.0)
        assert exact_f(0.3) == 1.0

    def test_domain_validation(self):
        model = make_exact_model(1.0)
        with pytest.raises(InvalidParameterError, match="x"):
            exact_u(model, -0.1)
        with pytest.raises(InvalidParameterError, match="x"):
            exact_u(model, np.array([0.5, np.nan]))
        with pytest.raises(InvalidParameterError, match="x"):
            exact_w_polynomial((1.0,), np.array([0.5, 1.2]))

    def test_polynomial_w_matches_constant_source(self):
        x = np.linspace(0.0, 1.0, 33)
        assert np.allclose(exact_w_polynomial([1.0], x), x * (1.0 - x) / 2.0, atol=1e-15)

    @given(
        coeffs=st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=4,
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_polynomial_w_solves_its_equation(self, coeffs):
        # -w'' must equal the polynomial and w must vanish at 0 and 1;
        # checked through exact polynomial algebra, no quadrature.
        w_poly = np.polynomial.Polynomial([0.0])
        for k, c in enumerate(coeffs):
            w_poly += np.polynomial.Polynomial.basis(k + 2) * (c / ((k + 1) * (k + 2)))
        p_at_one = w_poly(1.0)
        w_poly = np.polynomial.Polynomial([0.0, p_at_one]) - w_poly
        x = np.linspace(0.0, 1.0, 17)
        assert np.allclose(exact_w_polynomial(coeffs, x), w_poly(x), atol=1e-12)
        second = w_poly.deriv(2)
        assert np.allclose(-second(x), np.polynomial.Polynomial(coeffs)(x), atol=1e-10)
        assert abs(w_poly(0.0)) < 1e-15
        assert abs(w_poly(1.0)) < 1e-12


@given(eps=st.floats(min_value=1e-10, max_value=1.0, allow_nan=False))
@settings(deadline=None, max_examples=80)
def test_model_properties_hold_across_epsilon(eps):
    model = make_exact_model(eps)
    assert scaled_root_residual(eps, model.r1) < 1e-12
    assert scaled_root_residual(eps, model.r2) < 1e-12
    assert abs(exact_u(model, 0.0)) < 1e-10
    assert abs(exact_u(model, 1.0)) < 1e-10
    assert model.r2 < -1.0 < 0.0 < model.r1 <= 1.0
    assert math.isfinite(exact_u(model, 1e-12))
