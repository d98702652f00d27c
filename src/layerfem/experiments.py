"""Error measurement, convergence rates, parameter sweeps, and timing."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .assembly import ProblemCoefficients
from .errors import (
    InvalidParameterError,
    check_at_least,
    check_epsilon,
    check_integer,
    check_member,
    check_n_intervals,
)
from .mesh import MeshKind, ShishkinParams, build_mesh
from .oracle import ExactModel, exact_f, exact_u, make_exact_model
from .solver import FemSolution, solve_fourth_order

# Assumption flag constant: epsilon <= ASSUMPTION_C / N marks the
# convection-dominated regime a record was run in.
ASSUMPTION_C = 1.0


@dataclass(frozen=True)
class RunRecord:
    """One sweep cell: problem size, measured error, rate, and timings."""

    epsilon: float
    n_intervals: int
    mesh_kind: MeshKind
    max_error: float
    rate: float | None
    assembly_seconds: float
    solve_seconds: float
    assumption_ok: bool


@dataclass(frozen=True)
class SweepConfig:
    """A grid of (epsilon, N, mesh kind) cells for the model problem (a = 1).

    Rates are chained along ascending N within each (epsilon, kind)
    series and reported only across exact doublings.  Timings are the
    median of timing_repeats pipeline runs.
    """

    epsilons: tuple[float, ...]
    n_values: tuple[int, ...]
    mesh_kinds: tuple[MeshKind, ...] = (MeshKind.UNIFORM, MeshKind.SHISHKIN)
    sigma: float = ShishkinParams.sigma
    timing_repeats: int = 5

    def __post_init__(self) -> None:
        for field in ("epsilons", "n_values", "mesh_kinds"):
            value = getattr(self, field)
            if isinstance(value, str) or not (value := tuple(value)):
                raise InvalidParameterError(field, "must be a non-empty sequence")
            object.__setattr__(self, field, value)
        for n in self.n_values:
            check_n_intervals("n_values", n)
        kinds = tuple(check_member("mesh_kinds", MeshKind, k) for k in self.mesh_kinds)
        try:
            epsilons = tuple(float(e) for e in self.epsilons)
        except (TypeError, ValueError):
            raise InvalidParameterError("epsilons", f"must be numbers, got {self.epsilons!r}")
        object.__setattr__(self, "epsilons", epsilons)
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "mesh_kinds", kinds)
        for e in self.epsilons:
            check_epsilon("epsilons", e)
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise InvalidParameterError("n_values", "must be strictly ascending")
        if len(set(self.mesh_kinds)) != len(self.mesh_kinds):
            raise InvalidParameterError("mesh_kinds", "must not repeat")
        try:  # the mesh's own rules, checked on the cell with the finest step
            ShishkinParams(self.n_values[-1], min(self.epsilons), sigma=self.sigma)
        except InvalidParameterError as exc:  # its epsilon is this config's epsilons
            field = "epsilons" if exc.field == "epsilon" else exc.field
            raise InvalidParameterError(field, str(exc).partition(": ")[2]) from None
        check_integer("timing_repeats", self.timing_repeats)
        check_at_least("timing_repeats", self.timing_repeats, 1)


def max_error(u_n: FemSolution, model: ExactModel) -> float:
    """Sup-norm deviation of u_n from the exact u at the mesh nodes."""
    return float(np.max(np.abs(exact_u(model, u_n.mesh.nodes) - u_n.values)))


def convergence_rate(error_fine: float, error_coarse: float) -> float | None:
    """Observed order log2(e_coarse / e_fine) for a mesh doubling.

    Positive when the error shrinks; None when either error is
    nonpositive or not finite (no defined rate).
    """
    if not (
        math.isfinite(error_fine)
        and math.isfinite(error_coarse)
        and error_fine > 0.0
        and error_coarse > 0.0
    ):
        return None
    return math.log2(error_coarse / error_fine)


def _run_cell(
    config: SweepConfig, epsilon: float, kind: MeshKind, n: int
) -> tuple[float, float, float, bool]:
    """One (epsilon, kind, N) cell: returns error and median stage timings."""
    coeffs = ProblemCoefficients(epsilon=epsilon, a=1.0, b=1.0)
    mesh = build_mesh(kind, n, coeffs, config.sigma)
    model = make_exact_model(epsilon)
    assembly_times = []
    solve_times = []
    for _ in range(config.timing_repeats):
        result = solve_fourth_order(mesh, coeffs, exact_f)
        assembly_times.append(result.timings.assembly_seconds)
        solve_times.append(result.timings.solve_seconds)
    error = max_error(result.u, model)
    ok = epsilon <= ASSUMPTION_C / n
    return error, statistics.median(assembly_times), statistics.median(solve_times), ok


def run_sweep(config: SweepConfig, jobs: int = 1) -> list[RunRecord]:
    """Run every cell of the grid; deterministic record order.

    Cells are independent; jobs > 1 fans them out over processes.  Use
    jobs = 1 when the timing columns matter.
    """
    check_integer("jobs", jobs)
    check_at_least("jobs", jobs, 1)
    cells = [
        (eps, kind, n)
        for eps in config.epsilons
        for kind in config.mesh_kinds
        for n in config.n_values
    ]
    if jobs == 1:
        outcomes = [_run_cell(config, *c) for c in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_cell, [config] * len(cells), *zip(*cells)))

    records: list[RunRecord] = []
    for (eps, kind, n), (error, t_asm, t_solve, ok) in zip(cells, outcomes):
        prev = records[-1] if records else None
        rate = None
        if prev and (prev.epsilon, prev.mesh_kind, 2 * prev.n_intervals) == (eps, kind, n):
            rate = convergence_rate(error, prev.max_error)
        records.append(RunRecord(eps, n, kind, error, rate, t_asm, t_solve, ok))
    return records


def timing_scaling(records: list[RunRecord]) -> float:
    """Least-squares slope of log(solve_seconds) against log(N)."""
    if len(records) < 4:
        raise InvalidParameterError("records", "need at least 4 records")
    ns = np.array([r.n_intervals for r in records], dtype=float)
    if np.max(ns) / np.min(ns) < 8.0:
        raise InvalidParameterError("records", "need at least 3 octaves of N")
    ts = np.array([r.solve_seconds for r in records], dtype=float)
    if np.any(ts <= 0.0):
        raise InvalidParameterError("records", "solve timings must be positive")
    slope, _ = np.polyfit(np.log(ns), np.log(ts), 1)
    return float(slope)
