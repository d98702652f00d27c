"""Sweeps: error measures, rates, record layout, and scaling invariants."""

import math

import numpy as np
import pytest

from layerfem import (
    FemSolution,
    InvalidParameterError,
    Measurement,
    MeshKind,
    RunRecord,
    SweepConfig,
    build_uniform,
    convergence_rate,
    exact_u,
    make_exact_model,
    max_error,
    run_sweep,
    timing_scaling,
)


def record_with(n, seconds):
    return RunRecord(
        epsilon=1e-8,
        n_intervals=n,
        mesh_kind=MeshKind.UNIFORM,
        max_error=1.0,
        rate=None,
        assembly_seconds=seconds,
        solve_seconds=seconds,
        assumption_ok=True,
    )


class TestMaxError:
    def test_zero_for_exact_nodal_values(self):
        mesh = build_uniform(32)
        model = make_exact_model(1e-2)
        sol = FemSolution(mesh=mesh, values=exact_u(model, mesh.nodes))
        assert max_error(sol, model) == 0.0

    def test_midpoint_measure_dominates(self):
        mesh = build_uniform(16)
        model = make_exact_model(1e-2)
        sol = FemSolution(mesh=mesh, values=exact_u(model, mesh.nodes))
        at_nodes = max_error(sol, model, Measurement.NODES)
        with_mid = max_error(sol, model, Measurement.NODES_AND_MIDPOINTS)
        assert with_mid >= at_nodes
        assert with_mid > 0.0  # interpolation error is visible off the nodes

    def test_accepts_measurement_string(self):
        mesh = build_uniform(8)
        model = make_exact_model(0.5)
        sol = FemSolution(mesh=mesh, values=exact_u(model, mesh.nodes))
        assert max_error(sol, model, "nodes+mid") == max_error(
            sol, model, Measurement.NODES_AND_MIDPOINTS
        )


class TestConvergenceRate:
    def test_reference_pair(self):
        assert convergence_rate(0.0040, 0.0153) == pytest.approx(
            math.log2(0.0153 / 0.0040)
        )
        assert convergence_rate(0.0040, 0.0153) == pytest.approx(1.9355, abs=5e-4)

    def test_factor_four_gives_two(self):
        assert convergence_rate(0.25, 1.0) == 2.0

    def test_stagnation_gives_zero(self):
        assert convergence_rate(0.1, 0.1) == 0.0

    @pytest.mark.parametrize(
        "fine, coarse",
        [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf)],
    )
    def test_undefined_cases(self, fine, coarse):
        assert convergence_rate(fine, coarse) is None


class TestSweepConfig:
    def test_normalizes_strings(self):
        config = SweepConfig(
            epsilons=[1e-8],
            n_values=[8, 16],
            mesh_kinds=["shishkin"],
            measurement="nodes+mid",
        )
        assert config.mesh_kinds == (MeshKind.SHISHKIN,)
        assert config.measurement is Measurement.NODES_AND_MIDPOINTS

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"epsilons": (2.0,), "n_values": (8,)}, "epsilons"),
            ({"epsilons": (0.0,), "n_values": (8,)}, "epsilons"),
            ({"epsilons": (1e-8,), "n_values": (16, 8)}, "n_values"),
            ({"epsilons": (1e-8,), "n_values": (8, 8)}, "n_values"),
            ({"epsilons": (1e-8,), "n_values": (7,)}, "n_values"),
            ({"epsilons": (1e-8,), "n_values": (2,)}, "n_values"),
            ({"epsilons": (1e-8,), "n_values": (8,), "mesh_kinds": ()}, "mesh_kinds"),
            (
                {
                    "epsilons": (1e-8,),
                    "n_values": (8,),
                    "mesh_kinds": ("uniform", "uniform"),
                },
                "mesh_kinds",
            ),
            ({"epsilons": (1e-8,), "n_values": (8,), "sigma": 1.5}, "sigma"),
            ({"epsilons": (1e-8,), "n_values": (8,), "alpha": 0.0}, "alpha"),
            (
                {"epsilons": (1e-8,), "n_values": (8,), "timing_repeats": 0},
                "timing_repeats",
            ),
            ({"epsilons": (1e-2,), "n_values": (8.5,)}, "n_values"),
            ({"epsilons": (1e-8,), "n_values": (8,), "mesh_kinds": ("bogus",)}, "mesh_kinds"),
            ({"epsilons": (1e-8,), "n_values": (8,), "mesh_kinds": "uniform"}, "mesh_kinds"),
            ({"epsilons": (1e-8,), "n_values": (8,), "measurement": "bogus"}, "measurement"),
            (
                {"epsilons": (1e-8,), "n_values": (8,), "timing_repeats": 1.7},
                "timing_repeats",
            ),
        ],
    )
    def test_validation(self, kwargs, field):
        with pytest.raises(InvalidParameterError) as excinfo:
            SweepConfig(**kwargs)
        assert excinfo.value.field == field


class TestRunSweep:
    def test_record_order_and_rate_chaining(self):
        config = SweepConfig(
            epsilons=(1e-6, 1e-2),
            n_values=(8, 16, 32),
            mesh_kinds=(MeshKind.UNIFORM, MeshKind.SHISHKIN),
            timing_repeats=1,
        )
        records = run_sweep(config)
        assert len(records) == 2 * 2 * 3
        assert [r.epsilon for r in records] == [1e-6] * 6 + [1e-2] * 6
        assert [r.mesh_kind for r in records[:6]] == (
            [MeshKind.UNIFORM] * 3 + [MeshKind.SHISHKIN] * 3
        )
        assert [r.n_intervals for r in records[:3]] == [8, 16, 32]
        for series_start in range(0, 12, 3):
            series = records[series_start : series_start + 3]
            assert series[0].rate is None  # nothing to compare against
            assert series[1].rate is not None
            assert series[2].rate is not None

    def test_rate_skipped_without_doubling(self):
        config = SweepConfig(
            epsilons=(1e-4,),
            n_values=(8, 24),
            mesh_kinds=(MeshKind.UNIFORM,),
            timing_repeats=1,
        )
        records = run_sweep(config)
        assert records[1].rate is None

    def test_assumption_flag(self):
        config = SweepConfig(
            epsilons=(1e-8, 1e-2, 1.0),
            n_values=(16, 64),
            mesh_kinds=(MeshKind.SHISHKIN,),
            timing_repeats=1,
        )
        flags = {(r.epsilon, r.n_intervals): r.assumption_ok for r in run_sweep(config)}
        assert flags[1e-8, 16] is True
        assert flags[1.0, 16] is False
        assert flags[1e-2, 64] is True  # boundary case: 1e-2 <= 1/64

    def test_parallel_matches_serial(self):
        config = SweepConfig(
            epsilons=(1e-8,),
            n_values=(8, 16),
            mesh_kinds=(MeshKind.UNIFORM, MeshKind.SHISHKIN),
            timing_repeats=1,
        )
        serial = run_sweep(config, jobs=1)
        parallel = run_sweep(config, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.max_error == b.max_error
            assert a.rate == b.rate
            assert a.assumption_ok == b.assumption_ok

    def test_rejects_bad_jobs(self):
        config = SweepConfig(epsilons=(1e-8,), n_values=(8,), timing_repeats=1)
        with pytest.raises(InvalidParameterError):
            run_sweep(config, jobs=0)


class TestSweepInvariants:
    def test_layer_mesh_error_is_epsilon_uniform(self):
        # the adapted mesh holds the error level across three decades of eps
        config = SweepConfig(
            epsilons=(1e-10, 1e-8, 1e-6),
            n_values=(16,),
            mesh_kinds=(MeshKind.SHISHKIN,),
            timing_repeats=1,
        )
        errors = [r.max_error for r in run_sweep(config)]
        assert max(errors) / min(errors) < 1.5

    def test_layer_mesh_error_tracks_bound_shape(self):
        # calibrate C from N = 16, then C (ln N / N)^2 must dominate
        config = SweepConfig(
            epsilons=(1e-8,),
            n_values=(16, 32, 64, 128),
            mesh_kinds=(MeshKind.SHISHKIN,),
            sigma=2.0,
            timing_repeats=1,
        )
        records = run_sweep(config)
        shape = lambda n: (math.log(n) / n) ** 2  # noqa: E731
        c = records[0].max_error / shape(16)
        for r in records[1:]:
            assert r.max_error <= c * shape(r.n_intervals)

    def test_uniform_mesh_stagnates(self):
        config = SweepConfig(
            epsilons=(1e-10,),
            n_values=(16, 32, 64, 128, 256),
            mesh_kinds=(MeshKind.UNIFORM,),
            timing_repeats=1,
        )
        records = run_sweep(config)
        errors = [r.max_error for r in records]
        assert max(errors) / min(errors) < 1.5
        for r in records[1:]:
            assert abs(r.rate) < 0.2


class TestTimingScaling:
    def test_linear_cost(self):
        records = [record_with(n, 1e-6 * n) for n in (512, 1024, 2048, 4096, 8192)]
        assert timing_scaling(records) == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_cost(self):
        records = [record_with(n, 1e-9 * n * n) for n in (512, 1024, 2048, 4096)]
        assert timing_scaling(records) == pytest.approx(2.0, abs=1e-9)

    def test_needs_enough_records(self):
        records = [record_with(n, 1e-6 * n) for n in (512, 1024, 2048)]
        with pytest.raises(InvalidParameterError):
            timing_scaling(records)

    def test_needs_enough_octaves(self):
        records = [record_with(n, 1e-6 * n) for n in (512, 640, 768, 1024)]
        with pytest.raises(InvalidParameterError):
            timing_scaling(records)

    def test_rejects_nonpositive_timings(self):
        records = [record_with(n, 0.0) for n in (512, 1024, 2048, 4096)]
        with pytest.raises(InvalidParameterError):
            timing_scaling(records)


def test_max_error_matches_direct_computation():
    mesh = build_uniform(64)
    model = make_exact_model(1e-4)
    rng = np.random.default_rng(11)
    values = exact_u(model, mesh.nodes) + rng.normal(scale=1e-3, size=65)
    values[0] = values[-1] = 0.0
    sol = FemSolution(mesh=mesh, values=values)
    direct = float(np.max(np.abs(sol.values - exact_u(model, mesh.nodes))))
    assert max_error(sol, model) == direct
