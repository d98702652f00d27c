"""Two-stage pipeline: exactness, accuracy pins, linearity, and guards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layerfem.solver
from layerfem import (
    InvalidParameterError,
    FemSolution,
    ProblemCoefficients,
    ResidualBoundError,
    ShishkinParams,
    assemble_cdr,
    build_shishkin,
    build_uniform,
    exact_u,
    load_vector_from_solution,
    make_exact_model,
    solve_cdr,
    solve_fourth_order,
    solve_poisson,
    tridiag_solve,
)
from layerfem.tridiag import matvec

ONE = lambda x: np.ones_like(x)  # noqa: E731


def nodal_error(solution, model):
    return float(np.max(np.abs(solution.values - exact_u(model, solution.mesh.nodes))))


class TestFemSolution:
    def test_length_guard(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            FemSolution(mesh=build_uniform(4), values=np.zeros(4))
        assert excinfo.value.field == "values"

    def test_values_frozen(self):
        sol = FemSolution(mesh=build_uniform(4), values=np.zeros(5))
        with pytest.raises(ValueError):
            sol.values[0] = 1.0

    def test_caller_array_stays_writeable(self):
        values = np.zeros(5)
        sol = FemSolution(mesh=build_uniform(4), values=values)
        values[0] = 1.0
        with pytest.raises(ValueError):
            sol.values[0] = 1.0


class TestStageOne:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_nodally_exact_uniform(self, n):
        mesh = build_uniform(n)
        w = solve_poisson(mesh, ONE)
        exact = mesh.nodes * (1.0 - mesh.nodes) / 2.0
        assert float(np.max(np.abs(w.values - exact))) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10])
    def test_nodally_exact_shishkin(self, eps):
        mesh = build_shishkin(ShishkinParams(n_intervals=32, epsilon=eps))
        w = solve_poisson(mesh, ONE)
        exact = mesh.nodes * (1.0 - mesh.nodes) / 2.0
        assert float(np.max(np.abs(w.values - exact))) <= 1e-12

    def test_zero_source(self):
        w = solve_poisson(build_uniform(16), lambda x: np.zeros_like(x))
        assert np.array_equal(w.values, np.zeros(17))

    def test_boundary_pinned(self):
        w = solve_poisson(build_uniform(16), lambda x: np.exp(x))
        assert w.values[0] == 0.0 and w.values[-1] == 0.0


class TestStageTwo:
    def test_zero_source_gives_zero(self):
        mesh = build_uniform(16)
        zero = FemSolution(mesh=mesh, values=np.zeros(17))
        u = solve_cdr(mesh, ProblemCoefficients(epsilon=1e-4), zero)
        assert np.array_equal(u.values, np.zeros(17))

    def test_mesh_mismatch_rejected(self):
        source = solve_poisson(build_uniform(16), ONE)
        with pytest.raises(InvalidParameterError) as excinfo:
            solve_cdr(build_uniform(32), ProblemCoefficients(epsilon=1e-4), source)
        assert excinfo.value.field == "source"

    def test_equal_nodes_accepted(self):
        # same geometry on a distinct object is fine
        source = solve_poisson(build_uniform(16), ONE)
        u = solve_cdr(build_uniform(16), ProblemCoefficients(epsilon=1e-2), source)
        assert np.all(np.isfinite(u.values))

    def test_residual_bound_holds(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=64, epsilon=1e-10))
        coeffs = ProblemCoefficients(epsilon=1e-10)
        w = solve_poisson(mesh, ONE)
        u = solve_cdr(mesh, coeffs, w)
        rhs = load_vector_from_solution(mesh, w, quadrature="trapezoid")
        matrix = assemble_cdr(mesh, coeffs).matrix
        residual = float(np.max(np.abs(matvec(matrix, u.values[1:-1]) - rhs)))
        assert residual <= 1e-10 * (1.0 + float(np.max(np.abs(rhs))))


class TestBackwardErrorGate:
    def test_graded_mesh_at_largest_n_solves(self):
        # the earlier gate, residual <= 1e-10 (1 + max|b|), rejected stage 1
        # here at 1.035 times its bound
        mesh = build_shishkin(ShishkinParams(n_intervals=2**20, epsilon=1e-4))
        result = solve_fourth_order(mesh, ProblemCoefficients(1e-4), ONE)
        assert nodal_error(result.u, make_exact_model(1e-4)) < 1e-6

    def test_non_power_of_two_n_solves(self):
        # Thomas reads 2.15u here; LAPACK dgtsv without a refinement step 87.5u
        mesh = build_uniform(15906)
        result = solve_fourth_order(mesh, ProblemCoefficients(1e-10), ONE)
        assert np.all(np.isfinite(result.u.values))

    def test_perturbed_solution_rejected(self, monkeypatch):
        def off_by_1e_12(matrix, rhs):
            x = tridiag_solve(matrix, rhs)
            x[np.argmax(np.abs(x))] *= 1.0 + 1e-12
            return x

        monkeypatch.setattr(layerfem.solver, "solve", off_by_1e_12)
        # the unscaled normwise gate read the Shishkin case as 9.4e-6u,
        # because |A| ~ 1/h_fine there
        shishkin = build_shishkin(ShishkinParams(n_intervals=1024, epsilon=1e-10))
        for mesh in (build_uniform(1024), shishkin):
            with pytest.raises(ResidualBoundError):
                solve_poisson(mesh, ONE)


class TestPipelineAccuracy:
    def test_moderate_epsilon_fine_uniform(self):
        result = solve_fourth_order(build_uniform(1024), ProblemCoefficients(1.0), ONE)
        error = nodal_error(result.u, make_exact_model(1.0))
        assert 0.5 * 1.0613e-8 <= error <= 2.0 * 1.0613e-8

    def test_layer_epsilon_coarse_shishkin(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=16, epsilon=1e-8))
        result = solve_fourth_order(mesh, ProblemCoefficients(1e-8), ONE)
        error = nodal_error(result.u, make_exact_model(1e-8))
        assert 0.5 * 0.0040 <= error <= 2.0 * 0.0040

    def test_uniform_mesh_stagnates_for_small_epsilon(self):
        # without layer-adapted refinement the nodal error freezes near
        # twice the layer amplitude instead of converging
        errors = []
        model = make_exact_model(1e-10)
        for n in (16, 32, 64, 128, 256):
            result = solve_fourth_order(
                build_uniform(n), ProblemCoefficients(1e-10), ONE
            )
            errors.append(nodal_error(result.u, model))
        assert max(errors) / min(errors) < 1.5
        assert all(e > 1e-2 for e in errors)

    def test_stage_one_component_exposed(self):
        mesh = build_uniform(32)
        result = solve_fourth_order(mesh, ProblemCoefficients(1e-4), ONE)
        exact_w = mesh.nodes * (1.0 - mesh.nodes) / 2.0
        assert float(np.max(np.abs(result.w.values - exact_w))) <= 1e-12

    def test_boundaries_exact(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=16, epsilon=1e-6))
        result = solve_fourth_order(mesh, ProblemCoefficients(1e-6), ONE)
        for sol in (result.w, result.u):
            assert sol.values[0] == 0.0 and sol.values[-1] == 0.0

    def test_timings_populated(self):
        result = solve_fourth_order(build_uniform(64), ProblemCoefficients(1e-4), ONE)
        t = result.timings
        for stage in (t.poisson, t.cdr):
            assert stage.assembly_seconds >= 0.0
            assert stage.solve_seconds >= 0.0
        assert t.assembly_seconds == pytest.approx(
            t.poisson.assembly_seconds + t.cdr.assembly_seconds
        )
        assert t.solve_seconds == pytest.approx(
            t.poisson.solve_seconds + t.cdr.solve_seconds
        )


@given(
    scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    eps=st.sampled_from([1.0, 1e-4, 1e-8]),
    n=st.sampled_from([8, 16, 32]),
)
@settings(deadline=None, max_examples=30)
def test_pipeline_is_linear_in_the_source(scale, eps, n):
    mesh = build_shishkin(ShishkinParams(n_intervals=n, epsilon=eps))
    coeffs = ProblemCoefficients(epsilon=eps)
    base = solve_fourth_order(mesh, coeffs, ONE)
    scaled = solve_fourth_order(mesh, coeffs, lambda x: scale * np.ones_like(x))
    reference = float(np.max(np.abs(base.u.values)))
    gap = float(np.max(np.abs(scaled.u.values - scale * base.u.values)))
    assert gap <= 1e-12 * scale * reference + 1e-15
