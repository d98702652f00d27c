"""The benchmark's workloads: what one op calls and how its output is checked.

Every workload runs the model problem a = b = 1, f = 1 through the public
API.  An op is one call whose wall time is measured; `check` then looks
at its output outside the timed region.  Each workload looks the package
up through `lf` at call time, so a traced run sees the calls.

- solve_csv: `layerfem solve` at N = 2^20 on a Shishkin mesh, writing the
  CSV.  Row formatting in `cli` dominates; a CSV-writer change shows here.
- pipeline_large: mesh build, `solve_fourth_order` and `max_error` at
  N = 2^20, for eps in {1e-8, 1e-4} x {uniform, shishkin}, no CLI.
  `tridiag.solve` dominates, on 8 MiB arrays (larger than L2).  At the
  seed the eps = 1e-4 Shishkin cell fails the residual gate; it is
  counted as a failed op.
- sweep_tables: `layerfem sweep --preset tableK --jobs 1`, K = 1..6:
  348 cells at N = 4..16384, all in cache, so per-call overhead counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import checks

PRESETS = tuple(f"table{k}" for k in range(1, 7))
LARGE_N = 2**20
PIPELINE_EPSILONS = (1e-8, 1e-4)
MESH_KINDS = ("uniform", "shishkin")


@dataclass(frozen=True)
class Outcome:
    """What a checked op produced."""

    unknowns: int  # interior unknowns of the pipelines the op solved
    max_error_u: float
    error_ratio: float  # the largest ratio of an error to the seed's, over the op's cells
    bytes_out: int = 0


class Workload:
    name: str
    ops: tuple  # one pass; the seed shuffles its order
    largest_n: int

    def execute(self, lf, op, out: Path):
        """The timed call."""
        raise NotImplementedError

    def check(self, lf, op, out: Path, value) -> Outcome:
        """Check the output of `execute`; raise checks.CheckFailed if wrong."""
        raise NotImplementedError

    def label(self, op) -> str:
        return str(op)


class CliExit(Exception):
    """The CLI returned a non-zero exit code."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(f"layerfem exited with code {code}")


def _cli_ok(code: int) -> None:
    if code != 0:
        raise CliExit(code)


@dataclass
class SolveCsv(Workload):
    name = "solve_csv"
    n: int = LARGE_N

    @property
    def ops(self):
        return (("shishkin", self.n, 1e-8),)

    @property
    def largest_n(self):
        return self.n

    def argv(self, op, out: Path) -> list[str]:
        kind, n, eps = op
        return ["solve", "--epsilon", repr(eps), "--n", str(n), "--mesh", kind,
                "--output", str(out)]

    def execute(self, lf, op, out):
        _cli_ok(lf.cli.main(self.argv(op, out)))

    def check(self, lf, op, out, value):
        kind, n, eps = op
        err, ratio = checks.check_solve_csv(out, kind, n, eps)
        return Outcome(2 * (n - 1), err, ratio, bytes_out=out.stat().st_size)

    def label(self, op):
        return "{}/N={}/eps={:g}".format(*op)


@dataclass
class PipelineLarge(Workload):
    name = "pipeline_large"
    n: int = LARGE_N

    @property
    def ops(self):
        return tuple((kind, self.n, eps) for eps in PIPELINE_EPSILONS for kind in MESH_KINDS)

    @property
    def largest_n(self):
        return self.n

    def execute(self, lf, op, out):
        kind, n, eps = op
        if kind == "uniform":
            mesh = lf.build_uniform(n)
        else:
            mesh = lf.build_shishkin(lf.ShishkinParams(n_intervals=n, epsilon=eps))
        result = lf.solve_fourth_order(mesh, lf.ProblemCoefficients(epsilon=eps), lf.exact_f)
        return result.u.values, lf.max_error(result.u, lf.make_exact_model(eps))

    def check(self, lf, op, out, value):
        kind, n, eps = op
        u, reported = value
        err, ratio = checks.nodal_error_u(u, kind, n, eps)
        if not abs(reported - err) <= 1e-6 * err + 1e-13:
            raise checks.CheckFailed(f"max_error {reported!r} != oracle error {err!r}")
        return Outcome(2 * (n - 1), err, ratio)

    def label(self, op):
        return "{}/N={}/eps={:g}".format(*op)


@dataclass
class SweepTables(Workload):
    name = "sweep_tables"
    presets: tuple = PRESETS

    @property
    def ops(self):
        return self.presets

    @property
    def largest_n(self):
        return 16384

    def argv(self, op, out: Path) -> list[str]:
        return ["sweep", "--preset", op, "--jobs", "1", "--output", str(out)]

    def execute(self, lf, op, out):
        _cli_ok(lf.cli.main(self.argv(op, out)))

    def check(self, lf, op, out, value):
        largest, ratio, ns = checks.check_sweep_csv(out, op)
        repeats = lf.SweepConfig.__dataclass_fields__["timing_repeats"].default
        unknowns = repeats * sum(2 * (n - 1) for n in ns)
        return Outcome(unknowns, largest, ratio, bytes_out=out.stat().st_size)


WORKLOADS = {
    "solve_csv": SolveCsv,
    "pipeline_large": PipelineLarge,
    "sweep_tables": SweepTables,
}
