"""Two-stage pipeline: exactness, accuracy pins, linearity, and guards."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import layerfem.cli
import layerfem.solver
from layerfem import (
    InvalidParameterError,
    FemSolution,
    ProblemCoefficients,
    ResidualBoundError,
    ShishkinParams,
    assemble_cdr,
    assemble_poisson,
    build_mesh,
    build_shishkin,
    build_uniform,
    exact_u,
    load_vector,
    load_vector_from_solution,
    make_exact_model,
    solve_fourth_order,
    tridiag_solve,
)
from layerfem.tridiag import matvec

ONE = lambda x: np.ones_like(x)  # noqa: E731
GATE_MESHES = (
    build_uniform(1024),
    build_shishkin(ShishkinParams(n_intervals=1024, epsilon=1e-10)),
)


def row_scaled_backward_error(matrix, x, b):
    row_sums = np.abs(matrix.diag)
    row_sums[1:] += np.abs(matrix.sub)
    row_sums[:-1] += np.abs(matrix.sup)
    residual = np.max(np.abs(matvec(matrix, x) - b) / row_sums)
    return float(residual / (np.max(np.abs(x)) + np.max(np.abs(b) / row_sums)))


def stage_one(mesh, f):
    """Stage 1's w, read off a pipeline whose stage 2 (eps = 1) is well conditioned."""
    return solve_fourth_order(mesh, ProblemCoefficients(1.0), f).w


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
    # a general Thomas pass over this matrix is off by 8.3e-8 at 2^20
    @pytest.mark.parametrize("n", [4, 16, 64, 256, 2**20])
    def test_nodally_exact_uniform(self, n):
        mesh = build_uniform(n)
        w = stage_one(mesh, ONE)
        exact = mesh.nodes * (1.0 - mesh.nodes) / 2.0
        assert float(np.max(np.abs(w.values - exact))) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10])
    def test_nodally_exact_shishkin(self, eps):
        mesh = build_shishkin(ShishkinParams(n_intervals=32, epsilon=eps))
        w = stage_one(mesh, ONE)
        exact = mesh.nodes * (1.0 - mesh.nodes) / 2.0
        assert float(np.max(np.abs(w.values - exact))) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-10])
    def test_nodally_exact_shishkin_at_largest_n(self, eps):
        # a general Thomas pass over this matrix is off by 4.15e-8 here
        mesh = build_shishkin(ShishkinParams(n_intervals=2**20, epsilon=eps))
        w = stage_one(mesh, ONE)
        exact = mesh.nodes * (1.0 - mesh.nodes) / 2.0
        assert float(np.max(np.abs(w.values - exact))) <= 1e-12

    @pytest.mark.parametrize("n", [1000, 15906, 2**17])
    @pytest.mark.parametrize("kind", ["uniform", "shishkin"])
    @pytest.mark.parametrize(
        "f",
        [lambda x: np.exp(-x / 1e-6), lambda x: 1e3 * np.sin(50.0 * x)],
        ids=["layer", "oscillating"],
    )
    def test_backward_stable_on_hard_sources(self, f, kind, n):
        # summing element fluxes instead reads 5.3u to 5.4e9u on these
        mesh = build_mesh(kind, n, ProblemCoefficients(1e-10))
        w = stage_one(mesh, f)
        assert row_scaled_backward_error(
            assemble_poisson(mesh).matrix, w.values[1:-1], load_vector(mesh, f)
        ) <= 4 * 2.0**-53

    def test_zero_source(self):
        w = stage_one(build_uniform(16), lambda x: np.zeros_like(x))
        assert np.array_equal(w.values, np.zeros(17))

    def test_boundary_pinned(self):
        w = stage_one(build_uniform(16), lambda x: np.exp(x))
        assert w.values[0] == 0.0 and w.values[-1] == 0.0


class TestStageTwo:
    def test_zero_source_gives_zero(self):
        mesh = build_uniform(16)
        zero = lambda x: np.zeros_like(x)  # noqa: E731
        u = solve_fourth_order(mesh, ProblemCoefficients(epsilon=1e-4), zero).u
        assert np.array_equal(u.values, np.zeros(17))

    def test_residual_bound_holds(self):
        mesh = build_shishkin(ShishkinParams(n_intervals=64, epsilon=1e-10))
        coeffs = ProblemCoefficients(epsilon=1e-10)
        result = solve_fourth_order(mesh, coeffs, ONE)
        w, u = result.w, result.u
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
        direct = layerfem.solver._poisson_direct

        def off_by_1e_12(mesh, load):
            x = direct(mesh, load)
            x[np.argmax(np.abs(x))] *= 1.0 + 1e-12
            return x

        monkeypatch.setattr(layerfem.solver, "_poisson_direct", off_by_1e_12)
        # the unscaled normwise gate read the Shishkin case as 9.4e-6u,
        # because |A| ~ 1/h_fine there
        for mesh in GATE_MESHES:
            with pytest.raises(ResidualBoundError):
                stage_one(mesh, ONE)

    def test_perturbed_stage_two_rejected(self, monkeypatch):
        def off_by_1e_12(matrix, rhs):
            x = tridiag_solve(matrix, rhs)
            x[np.argmax(np.abs(x))] *= 1.0 + 1e-12
            return x

        monkeypatch.setattr(layerfem.solver, "solve", off_by_1e_12)
        for mesh in GATE_MESHES:
            with pytest.raises(ResidualBoundError):
                solve_fourth_order(mesh, ProblemCoefficients(1e-10), ONE)

    def test_infinite_solution_rejected(self, monkeypatch):
        # an inf in x made both the residual and the bound inf, and passed
        def overflowed(matrix, rhs):
            x = tridiag_solve(matrix, rhs)
            x[0] = np.inf
            return x

        monkeypatch.setattr(layerfem.solver, "solve", overflowed)
        with pytest.raises(ResidualBoundError, match="solution has non-finite entries"):
            solve_fourth_order(build_uniform(16), ProblemCoefficients(1e-2), ONE)


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
@example(scale=1e308, eps=1e-8, n=8)  # A x overflowed in an unscaled gate
@settings(deadline=None, max_examples=30)
def test_pipeline_is_linear_in_the_source(scale, eps, n):
    mesh = build_shishkin(ShishkinParams(n_intervals=n, epsilon=eps))
    coeffs = ProblemCoefficients(epsilon=eps)
    base = solve_fourth_order(mesh, coeffs, ONE)
    scaled = solve_fourth_order(mesh, coeffs, lambda x: scale * np.ones_like(x))
    reference = float(np.max(np.abs(base.u.values)))
    gap = float(np.max(np.abs(scaled.u.values - scale * base.u.values)))
    assert gap <= 1e-12 * scale * reference + 1e-15


@pytest.mark.parametrize("kind", ["uniform", "shishkin"])
def test_make_reference_composes_the_pipeline(kind, monkeypatch):
    """perfbench/make_reference.py builds the stages from the public API, ungated."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "make_reference.py"
    spec = importlib.util.spec_from_file_location("make_reference", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    spec.loader.exec_module(module)
    mesh = build_mesh(kind, 64, ProblemCoefficients(1e-8))
    w, u = module.ungated_solution(mesh, 1e-8)
    assert np.isfinite(w).all() and np.isfinite(u).all()
    gated = solve_fourth_order(mesh, ProblemCoefficients(epsilon=1e-8), ONE)
    assert float(np.max(np.abs(u - gated.u.values))) <= 1e-13


@pytest.mark.parametrize("kind", ["uniform", "shishkin"])
def test_pipeline_peak_memory(kind):
    """Traced peak of one pipeline at N = 2^16, in units of 8N bytes.

    It reads 9.01.  Keeping stage 1's matrix and load alive through stage 2
    reads 13.01; the Thomas sweep that boxed its four inputs as Python
    floats read 22.00.
    """
    n = 2**16
    mesh = build_mesh(kind, n, ProblemCoefficients(1e-8))
    tracemalloc.start()
    try:
        solve_fourth_order(mesh, ProblemCoefficients(1e-8), ONE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * n, f"peak {peak / (8 * n):.2f} x 8N bytes"


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("pipeline_large", {"n": 64}),
        ("solve_csv", {"n": 64}),
        ("sweep_tables", {"presets": ("table2",)}),
    ],
    ids=["pipeline_large", "solve_csv", "sweep_tables"],
)
def test_perfbench_workloads_run_on_the_public_api(name, kwargs, tmp_path, monkeypatch):
    """Each of perfbench/workloads.py's workloads executes and passes its own check."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    workloads = importlib.import_module("perfbench.workloads")
    workload = workloads.WORKLOADS[name](**kwargs)
    for i, op in enumerate(workload.ops):
        out = tmp_path / f"op{i}.csv"
        outcome = workload.check(layerfem, op, out, workload.execute(layerfem, op, out))
        assert outcome.unknowns > 0
