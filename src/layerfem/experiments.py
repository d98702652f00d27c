"""Error measurement, convergence rates, parameter sweeps, and timing."""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .assembly import ProblemCoefficients
from .errors import (
    InvalidParameterError,
    check_at_least,
    check_epsilon,
    check_integer,
    check_n_intervals,
    check_positive,
)
from .mesh import MeshKind, build_mesh
from .oracle import ExactModel, exact_f, exact_u, make_exact_model
from .solver import FemSolution, solve_fourth_order

# Assumption flag constant: epsilon <= ASSUMPTION_C / N marks the
# convection-dominated regime a record was run in.
ASSUMPTION_C = 1.0


class Measurement(str, Enum):
    NODES = "nodes"
    NODES_AND_MIDPOINTS = "nodes+mid"


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
    """A grid of (epsilon, N, mesh kind) cells for the model problem.

    Rates are chained along ascending N within each (epsilon, kind)
    series and reported only across exact doublings.  Timings are the
    median of timing_repeats pipeline runs.
    """

    epsilons: tuple[float, ...]
    n_values: tuple[int, ...]
    mesh_kinds: tuple[MeshKind, ...] = (MeshKind.UNIFORM, MeshKind.SHISHKIN)
    sigma: float = 3.0
    alpha: float = 1.0
    measurement: Measurement = Measurement.NODES
    timing_repeats: int = 5

    def __post_init__(self) -> None:
        for n in self.n_values:
            check_n_intervals("n_values", n)
        if isinstance(self.mesh_kinds, str):
            raise InvalidParameterError("mesh_kinds", "must be a sequence, not a string")
        kinds = tuple(_member("mesh_kinds", MeshKind, k) for k in self.mesh_kinds)
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "mesh_kinds", kinds)
        object.__setattr__(
            self, "measurement", _member("measurement", Measurement, self.measurement)
        )
        for e in self.epsilons:
            check_epsilon("epsilons", e)
        if not self.n_values:
            raise InvalidParameterError("n_values", "must not be empty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise InvalidParameterError("n_values", "must be strictly ascending")
        if not self.mesh_kinds:
            raise InvalidParameterError("mesh_kinds", "must not be empty")
        if len(set(self.mesh_kinds)) != len(self.mesh_kinds):
            raise InvalidParameterError("mesh_kinds", "must not repeat")
        check_at_least("sigma", self.sigma, 2.0)
        check_positive("alpha", self.alpha)
        check_integer("timing_repeats", self.timing_repeats)
        check_at_least("timing_repeats", self.timing_repeats, 1)


def _member(field: str, kind: type[Enum], value) -> Enum:
    try:
        return kind(value)
    except ValueError:
        choices = ", ".join(m.value for m in kind)
        raise InvalidParameterError(field, f"must be one of {choices}, got {value!r}")


def max_error(
    u_n: FemSolution,
    model: ExactModel,
    measurement: Measurement = Measurement.NODES,
) -> float:
    """Sup-norm deviation of u_n from the exact u at the measurement points."""
    nodes = u_n.mesh.nodes
    err = float(np.max(np.abs(exact_u(model, nodes) - u_n.values)))
    if Measurement(measurement) is Measurement.NODES_AND_MIDPOINTS:
        mid = u_n.mesh.midpoints()
        fem_mid = 0.5 * (u_n.values[:-1] + u_n.values[1:])
        err = max(err, float(np.max(np.abs(exact_u(model, mid) - fem_mid))))
    return err


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
    mesh = build_mesh(kind, n, epsilon, config.sigma, config.alpha)
    coeffs = ProblemCoefficients(epsilon=epsilon, a=1.0, b=1.0)
    model = make_exact_model(epsilon)
    assembly_times = []
    solve_times = []
    for _ in range(config.timing_repeats):
        result = solve_fourth_order(mesh, coeffs, exact_f)
        assembly_times.append(result.timings.assembly_seconds)
        solve_times.append(result.timings.solve_seconds)
    error = max_error(result.u, model, config.measurement)
    ok = epsilon <= ASSUMPTION_C / n
    return error, statistics.median(assembly_times), statistics.median(solve_times), ok


def run_sweep(config: SweepConfig, jobs: int = 1) -> list[RunRecord]:
    """Run every cell of the grid; deterministic record order.

    Cells are independent; jobs > 1 fans them out over processes.  Use
    jobs = 1 when the timing columns matter.
    """
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
