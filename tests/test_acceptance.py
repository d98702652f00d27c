"""Acceptance harness: one test per shipped claim, with runtime budgets.

Each test pins the quantitative behaviour the package promises: error
bands and rate windows on both mesh families, oracle self-consistency,
stencil identities, solver accuracy, and asymptotic solve cost.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from layerfem import (
    MeshKind,
    ProblemCoefficients,
    ShishkinParams,
    SweepConfig,
    assemble_cdr,
    assemble_poisson,
    build_shishkin,
    build_uniform,
    exact_u,
    load_vector,
    load_vector_from_solution,
    make_exact_model,
    run_sweep,
    solve_fourth_order,
    timing_scaling,
)
from layerfem.tridiag import TridiagonalMatrix, matvec, solve

SMALL_EPS = (1e-10, 1e-8, 1e-6)


def to_dense(matrix):
    n = matrix.n
    dense = np.zeros((n, n))
    dense[np.arange(n), np.arange(n)] = matrix.diag
    dense[np.arange(1, n), np.arange(n - 1)] = matrix.sub
    dense[np.arange(n - 1), np.arange(1, n)] = matrix.sup
    return dense


def test_criterion_1_layer_mesh_error_bands():
    # reference errors 0.0040 / 2.5e-4 / 1.6e-5 at N = 16 / 64 / 256,
    # accepted within a factor of 2 either way, for every small epsilon
    start = time.perf_counter()
    config = SweepConfig(
        epsilons=SMALL_EPS,
        n_values=(16, 64, 256),
        mesh_kinds=(MeshKind.SHISHKIN,),
        sigma=2.0,
        timing_repeats=1,
    )
    records = run_sweep(config)
    bands = {
        16: (0.5 * 0.0040, 2.0 * 0.0040),
        64: (0.5 * 2.5e-4, 2.0 * 2.5e-4),
        256: (0.5 * 1.6e-5, 2.0 * 1.6e-5),
    }
    for r in records:
        lo, hi = bands[r.n_intervals]
        assert lo <= r.max_error <= hi, (
            f"eps={r.epsilon:g} N={r.n_intervals}: error {r.max_error:.4e} "
            f"outside [{lo:.4e}, {hi:.4e}]"
        )
    assert time.perf_counter() - start < 5.0


def test_criterion_2_layer_mesh_rate_window():
    start = time.perf_counter()
    config = SweepConfig(
        epsilons=(1e-10,),
        n_values=(16, 32, 64, 128, 256),
        mesh_kinds=(MeshKind.SHISHKIN,),
        sigma=2.0,
        timing_repeats=1,
    )
    records = run_sweep(config)
    rates = [r.rate for r in records if r.rate is not None]
    assert len(rates) == 4
    for record in records[1:]:
        assert 1.80 <= record.rate <= 2.10, (
            f"rate at N={record.n_intervals} is {record.rate:.4f}, "
            f"outside [1.80, 2.10]"
        )
    assert time.perf_counter() - start < 10.0


def test_criterion_3_uniform_mesh_error_window():
    # unresolved-layer regime: the uniform-mesh error must sit inside
    # [1e-2, 1e-1] for every N in the table range
    start = time.perf_counter()
    config = SweepConfig(
        epsilons=(1e-10,),
        n_values=tuple(4 * 2**k for k in range(12)),
        mesh_kinds=(MeshKind.UNIFORM,),
        timing_repeats=1,
    )
    records = run_sweep(config)
    assert time.perf_counter() - start < 30.0
    violations = [
        (r.n_intervals, r.max_error)
        for r in records
        if not (1e-2 <= r.max_error <= 1e-1)
    ]
    if violations:
        rows = ", ".join(f"N={n}: {e:.6e}" for n, e in violations)
        pytest.fail(f"uniform-mesh error outside [1e-2, 1e-1] at {rows}")


def test_criterion_4_moderate_epsilon_second_order():
    start = time.perf_counter()
    config = SweepConfig(
        epsilons=(1.0,),
        n_values=(16, 32, 64, 128, 256, 512, 1024),
        mesh_kinds=(MeshKind.UNIFORM,),
        timing_repeats=1,
    )
    records = run_sweep(config)
    by_n = {r.n_intervals: r for r in records}
    assert 0.5 * 4.9304e-5 <= by_n[16].max_error <= 2.0 * 4.9304e-5
    assert 0.5 * 1.0613e-8 <= by_n[1024].max_error <= 2.0 * 1.0613e-8
    for n in (64, 128, 256, 512, 1024):
        assert abs(by_n[n].rate - 2.0) <= 0.05, (
            f"rate at N={n} is {by_n[n].rate:.4f}, outside 2.00 +/- 0.05"
        )
    assert time.perf_counter() - start < 10.0


def test_criterion_5_reference_solution_consistency():
    start = time.perf_counter()
    grid = [10.0**-k for k in range(0, 11, 2)]
    for eps in grid:
        model = make_exact_model(eps)
        for r in (model.r1, model.r2):
            residual = abs(eps * r * r + r - 1.0)
            scale = max(1.0, abs(eps * r * r), abs(r))
            assert residual / scale <= 1e-10
        boundary = exact_u(model, np.array([0.0, 1.0]))
        assert float(np.max(np.abs(boundary))) <= 1e-10

        # independent recomputation at 50 digits: substituting the
        # candidate solution into the second-stage equation must return
        # the first-stage solution x(1-x)/2 on a 101-point grid
        with mpmath.mp.workdps(50):
            meps = mpmath.mpf(eps)
            s = mpmath.sqrt(1 + 4 * meps)
            r1 = 2 / (1 + s)
            r2 = -(1 + s) / (2 * meps)
            half = mpmath.mpf(1) / 2
            c2 = (mpmath.e**r1 * (half + meps) - (half * 3 + meps)) / (
                mpmath.e**r1 - mpmath.e**r2
            )
            c1 = (half + meps) - c2
            worst = mpmath.mpf(0)
            for j in range(101):
                x = mpmath.mpf(j) / 100
                e1, e2 = mpmath.e ** (r1 * x), mpmath.e ** (r2 * x)
                u = c1 * e1 + c2 * e2 - (x * x + x + 1) / 2 - meps
                du = c1 * r1 * e1 + c2 * r2 * e2 - x - half
                ddu = c1 * r1 * r1 * e1 + c2 * r2 * r2 * e2 - 1
                residual = (-meps * ddu - du + u) - x * (1 - x) / 2
                worst = max(worst, abs(residual))
            assert worst <= mpmath.mpf("1e-9"), (
                f"eps={eps:g}: substitution residual {mpmath.nstr(worst, 3)}"
            )
    assert time.perf_counter() - start < 1.0


def test_criterion_6_uniform_cdr_stencil():
    start = time.perf_counter()
    for n in (4, 8, 16):
        for eps in (1.0, 1e-4):
            h = 1.0 / n
            m = n - 1
            system = assemble_cdr(build_uniform(n), ProblemCoefficients(epsilon=eps))
            S = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
            C = 0.5 * (np.eye(m, k=1) - np.eye(m, k=-1))
            M = 4.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)
            expected = (eps / h) * S - C + (h / 6.0) * M
            gap = float(np.max(np.abs(to_dense(system.matrix) - expected)))
            assert gap <= 1e-13, f"N={n} eps={eps:g}: stencil gap {gap:.3e}"
    assert time.perf_counter() - start < 1.0


def test_criterion_7_tridiagonal_solver_accuracy():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 257))
        sub = rng.uniform(-1.0, 1.0, n - 1)
        sup = rng.uniform(-1.0, 1.0, n - 1)
        diag = rng.uniform(2.5, 4.0, n)  # strictly dominant rows
        matrix = TridiagonalMatrix(sub=sub, diag=diag, sup=sup)
        rhs = rng.uniform(-1.0, 1.0, n)
        x = solve(matrix, rhs)
        expected = np.linalg.solve(to_dense(matrix), rhs)
        gap = float(np.max(np.abs(x - expected)))
        assert gap <= 1e-12 * (1.0 + float(np.max(np.abs(expected))))

    # every linear-system solve in the pipeline meets the residual bound
    for eps in (1.0, 1e-4, 1e-10):
        for n in (16, 128, 1024):
            for kind in (MeshKind.UNIFORM, MeshKind.SHISHKIN):
                if kind is MeshKind.UNIFORM:
                    mesh = build_uniform(n)
                else:
                    mesh = build_shishkin(ShishkinParams(n_intervals=n, epsilon=eps))
                coeffs = ProblemCoefficients(epsilon=eps)
                result = solve_fourth_order(mesh, coeffs, lambda x: np.ones_like(x))
                rhs1 = load_vector(mesh, lambda x: np.ones_like(x))
                res1 = matvec(assemble_poisson(mesh).matrix, result.w.values[1:-1])
                assert float(np.max(np.abs(res1 - rhs1))) <= 1e-10 * (
                    1.0 + float(np.max(np.abs(rhs1)))
                )
                rhs2 = load_vector_from_solution(mesh, result.w, "trapezoid")
                res2 = matvec(assemble_cdr(mesh, coeffs).matrix, result.u.values[1:-1])
                assert float(np.max(np.abs(res2 - rhs2))) <= 1e-10 * (
                    1.0 + float(np.max(np.abs(rhs2)))
                )
    assert time.perf_counter() - start < 5.0


def test_criterion_8_solver_cost_scaling():
    start = time.perf_counter()
    config = SweepConfig(
        epsilons=(1e-8,),
        n_values=(4096, 16384, 65536, 262144, 1048576),
        mesh_kinds=(MeshKind.UNIFORM,),
        timing_repeats=3,
    )
    records = run_sweep(config)
    slope = timing_scaling(records)
    assert slope <= 1.3, f"log-log solve-time slope {slope:.3f} exceeds 1.3"

    ratio_config = SweepConfig(
        epsilons=(1e-8,),
        n_values=(1048576,),
        mesh_kinds=(MeshKind.UNIFORM, MeshKind.SHISHKIN),
        timing_repeats=5,
    )
    uniform, shishkin = run_sweep(ratio_config)
    ratio = shishkin.solve_seconds / uniform.solve_seconds
    assert ratio < 2.0, f"layer-mesh solve is {ratio:.2f}x the uniform solve"
    assert time.perf_counter() - start < 60.0


def test_criterion_9_first_stage_nodal_exactness():
    start = time.perf_counter()
    for n in (8, 64, 512):
        for kind in (MeshKind.UNIFORM, MeshKind.SHISHKIN):
            if kind is MeshKind.UNIFORM:
                mesh = build_uniform(n)
            else:
                mesh = build_shishkin(ShishkinParams(n_intervals=n, epsilon=1e-8))
            coeffs = ProblemCoefficients(1e-8)
            w = solve_fourth_order(mesh, coeffs, lambda x: np.ones_like(x)).w
            exact = mesh.nodes * (1.0 - mesh.nodes) / 2.0
            gap = float(np.max(np.abs(w.values - exact)))
            assert gap <= 1e-12, f"N={n} {kind.value}: stage-1 gap {gap:.3e}"
    assert time.perf_counter() - start < 1.0
