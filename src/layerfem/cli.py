"""Command-line front end: solve, sweep, table, mesh-dump.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical
failure.  All output is CSV (LF, UTF-8, '.' decimal point, scientific
notation with at least 6 significant digits); identical invocations are
byte-identical except for the timing columns.  The per-node tables of
`solve` and `mesh-dump` are formatted and written in blocks of rows
(`_csvwriter`), so the file is never held in memory whole.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from ._csvwriter import write_csv
from .assembly import ProblemCoefficients
from .errors import InvalidParameterError, NumericalFailure
from .experiments import Measurement, SweepConfig, run_sweep
from .mesh import MeshKind, build_mesh
from .oracle import exact_u, exact_w_polynomial, make_exact_model
from .solver import solve_fourth_order

_TABLE_N = tuple(4 * 2**k for k in range(12))        # 4 .. 8192
_RATE_N = tuple(8 * 2**k for k in range(11))         # 8 .. 8192
_TIMING_N = tuple(512 * 2**k for k in range(6))      # 512 .. 16384
_SMALL_EPS = (1e-10, 1e-8, 1e-6)
_LARGE_EPS = (1e-4, 1e-2, 1.0)

# Presets encode the reference experiment grids: error tables over the
# full N range, rate tables starting one octave later, timing tables at
# large N only.
PRESETS: dict[str, dict] = {
    "table1": {"epsilons": _SMALL_EPS, "n_values": _TABLE_N},
    "table2": {"epsilons": _LARGE_EPS, "n_values": _TABLE_N},
    "table3": {"epsilons": _SMALL_EPS, "n_values": _RATE_N},
    "table4": {"epsilons": _LARGE_EPS, "n_values": _RATE_N},
    "table5": {"epsilons": _SMALL_EPS, "n_values": _TIMING_N},
    "table6": {"epsilons": _LARGE_EPS, "n_values": _TIMING_N},
    "epsilon-one": {
        "epsilons": (1.0,),
        "n_values": _TABLE_N,
        "mesh_kinds": (MeshKind.UNIFORM,),
    },
}


def _parse_list(text: str, flag: str, kind: type) -> tuple:
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError:
        raise InvalidParameterError(
            flag, f"not a comma-list of {kind.__name__}s: {text!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerfem",
        description=(
            "Two-stage linear FEM for fourth-order singularly perturbed "
            "boundary value problems on uniform and Shishkin meshes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem and dump nodal data")
    solve.add_argument("--epsilon", type=float, default=1e-8)
    solve.add_argument("--n", type=int, default=32)
    solve.add_argument("--mesh", choices=["uniform", "shishkin"], default="shishkin")
    solve.add_argument("--sigma", type=float, default=3.0)
    solve.add_argument("--alpha", type=float, default=1.0)
    solve.add_argument("--a", type=float, default=1.0)
    solve.add_argument("--b", type=float, default=1.0)
    solve.add_argument(
        "--f-poly",
        default=None,
        metavar="c0,c1,c2",
        help="polynomial source coefficients, ascending; default is f = 1",
    )
    solve.add_argument("--output", default=None)

    sweep = sub.add_parser("sweep", help="run an (epsilon, N, mesh) grid")
    sweep.add_argument("--preset", choices=sorted(PRESETS), default=None)
    sweep.add_argument("--epsilon", default=None, help="comma-list of epsilons")
    sweep.add_argument("--n", default=None, help="comma-list of interval counts")
    sweep.add_argument("--mesh", choices=["uniform", "shishkin", "both"], default=None)
    sweep.add_argument("--sigma", type=float, default=None)
    sweep.add_argument("--alpha", type=float, default=None)
    sweep.add_argument(
        "--measurement", choices=[m.value for m in Measurement], default=None
    )
    sweep.add_argument("--timing-repeats", type=int, default=None)
    sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sweep.add_argument("--output", default=None)

    table = sub.add_parser("table", help="pretty-print a sweep CSV")
    table.add_argument("csv_path")
    table.add_argument("--output", default=None)

    dump = sub.add_parser("mesh-dump", help="dump Shishkin mesh nodes")
    dump.add_argument("--epsilon", type=float, required=True)
    dump.add_argument("--n", type=int, required=True)
    dump.add_argument("--sigma", type=float, default=3.0)
    dump.add_argument("--alpha", type=float, default=1.0)
    dump.add_argument("--output", default=None)

    return parser


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _fmt(value: float) -> str:
    return f"{value:.10e}"


def cmd_solve(args: argparse.Namespace) -> int:
    coeffs = ProblemCoefficients(epsilon=args.epsilon, a=args.a, b=args.b)
    mesh = build_mesh(args.mesh, args.n, args.epsilon, args.sigma, args.alpha)
    if args.f_poly is None:
        poly = (1.0,)
    else:
        poly = _parse_list(args.f_poly, "--f-poly", float)

    def f(x):
        return sum(c * np.asarray(x, dtype=float) ** k for k, c in enumerate(poly))

    result = solve_fourth_order(mesh, coeffs, f)
    is_model = args.a == 1.0 and args.b == 1.0 and poly == (1.0,)
    if is_model:
        u_exact = exact_u(make_exact_model(args.epsilon), mesh.nodes)
    else:
        u_exact = np.full(mesh.nodes.shape, math.nan)  # no closed form
    w_exact = exact_w_polynomial(poly, mesh.nodes)

    write_csv(
        args.output,
        "x,u_exact,u_fem,w_exact,w_fem",
        [mesh.nodes, u_exact, result.u.values, w_exact, result.w.values],
    )
    return 0


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    fields = dict(PRESETS.get(args.preset, {}))
    # inline flags override preset values
    if args.epsilon is not None:
        fields["epsilons"] = _parse_list(args.epsilon, "--epsilon", float)
    if args.n is not None:
        fields["n_values"] = _parse_list(args.n, "--n", int)
    if args.mesh is not None:
        fields["mesh_kinds"] = (
            (MeshKind.UNIFORM, MeshKind.SHISHKIN)
            if args.mesh == "both"
            else (MeshKind(args.mesh),)
        )
    if args.sigma is not None:
        fields["sigma"] = args.sigma
    if args.alpha is not None:
        fields["alpha"] = args.alpha
    if args.measurement is not None:
        fields["measurement"] = args.measurement
    if args.timing_repeats is not None:
        fields["timing_repeats"] = args.timing_repeats

    if "epsilons" not in fields or "n_values" not in fields:
        raise InvalidParameterError("--epsilon/--n", "required unless supplied by --preset")
    return SweepConfig(**fields)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _sweep_config(args)
    records = run_sweep(config, jobs=args.jobs)
    lines = ["epsilon,N,mesh,max_error,rate,assembly_s,solve_s,assumption_ok"]
    for r in records:
        rate = "" if r.rate is None else f"{r.rate:.6f}"
        lines.append(
            f"{r.epsilon:.6e},{r.n_intervals},{r.mesh_kind.value},"
            f"{_fmt(r.max_error)},{rate},{r.assembly_seconds:.6e},"
            f"{r.solve_seconds:.6e},{str(r.assumption_ok).lower()}"
        )
    _write_lines(args.output, lines)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    try:
        with open(args.csv_path, "r", encoding="utf-8") as fh:
            numbered = [
                (lineno, line.rstrip("\n").split(","))
                for lineno, line in enumerate(fh, 1)
                if line.strip() and not line.startswith("#")
            ]
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(
            "csv_path", f"{args.csv_path}: not UTF-8 text ({exc.reason})"
        )
    if not numbered:
        raise InvalidParameterError("csv_path", "file has no rows")
    rows = [row for _, row in numbered]
    for lineno, row in numbered:
        if len(row) != len(rows[0]):
            raise InvalidParameterError(
                "csv_path", f"line {lineno}: {len(row)} fields, expected {len(rows[0])}"
            )
    width = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width[i]) for i, cell in enumerate(row)) for row in rows]
    _write_lines(args.output, [line.rstrip() for line in lines])
    return 0


def cmd_mesh_dump(args: argparse.Namespace) -> int:
    mesh = build_mesh(MeshKind.SHISHKIN, args.n, args.epsilon, args.sigma, args.alpha)
    write_csv(
        args.output,
        f"# tau={_fmt(mesh.tau)}\nindex,x",
        [np.arange(len(mesh.nodes)), mesh.nodes],
    )
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "table": cmd_table,
    "mesh-dump": cmd_mesh_dump,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (NumericalFailure, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
