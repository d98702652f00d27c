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
import dataclasses
import math
import os
import sys

import numpy as np

from ._csvwriter import write_csv
from .assembly import ProblemCoefficients
from .errors import InvalidParameterError, NumericalFailure
from .experiments import SweepConfig, run_sweep
from .mesh import MeshKind, ShishkinParams, build_mesh, build_shishkin
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


_MESH_NAMES = [k.value for k in MeshKind]
_SWEEP_MESHES = "{" + ",".join(_MESH_NAMES + ["both"]) + "}"


def _comma_list(kind: type):
    def parse(text: str) -> tuple:
        return tuple(kind(part) for part in text.split(","))
    parse.__name__ = f"comma-list of {kind.__name__}"  # named in argparse's error
    return parse


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
    solve.add_argument("--mesh", choices=_MESH_NAMES, default=MeshKind.SHISHKIN.value)
    solve.add_argument("--sigma", type=float, default=ShishkinParams.sigma)
    solve.add_argument("--a", type=float, default=ProblemCoefficients.a)
    solve.add_argument("--b", type=float, default=ProblemCoefficients.b)
    solve.add_argument(
        "--f-poly",
        type=_comma_list(float),
        default=(1.0,),
        metavar="c0,c1,c2",
        help="polynomial source coefficients, ascending; default is f = 1; "
        "write a negative first coefficient as --f-poly=-1,2",
    )
    solve.add_argument("--output", default=None)

    def mesh_kinds(text: str) -> tuple[MeshKind, ...]:  # named in argparse's error
        return tuple(MeshKind) if text == "both" else (MeshKind(text),)

    # Grid flags have no default, and each one's dest is the SweepConfig
    # field it sets, so only the flags given override the preset.
    sweep = sub.add_parser(
        "sweep", help="run an (epsilon, N, mesh) grid", argument_default=argparse.SUPPRESS
    )
    sweep.add_argument("--preset", choices=sorted(PRESETS), default=None)
    sweep.add_argument(
        "--epsilon", dest="epsilons", type=_comma_list(float), help="comma-list of epsilons"
    )
    sweep.add_argument(
        "--n", dest="n_values", type=_comma_list(int), help="comma-list of interval counts"
    )
    sweep.add_argument("--mesh", dest="mesh_kinds", type=mesh_kinds, metavar=_SWEEP_MESHES)
    sweep.add_argument("--sigma", type=float)
    sweep.add_argument("--timing-repeats", type=int)
    sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sweep.add_argument("--output", default=None)

    table = sub.add_parser("table", help="pretty-print a sweep CSV")
    table.add_argument("csv_path")
    table.add_argument("--output", default=None)

    dump = sub.add_parser("mesh-dump", help="dump Shishkin mesh nodes")
    dump.add_argument("--epsilon", type=float, required=True)
    dump.add_argument("--n", type=int, required=True)
    dump.add_argument("--sigma", type=float, default=ShishkinParams.sigma)
    dump.add_argument("--alpha", type=float, default=ShishkinParams.alpha)
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
    mesh = build_mesh(args.mesh, args.n, coeffs, args.sigma)

    def f(x):
        return sum(c * np.asarray(x, dtype=float) ** k for k, c in enumerate(args.f_poly))

    result = solve_fourth_order(mesh, coeffs, f)
    if (args.a, args.b, args.f_poly) == (1.0, 1.0, (1.0,)):  # the model problem
        u_exact = exact_u(make_exact_model(args.epsilon), mesh.nodes)
    else:
        u_exact = np.full(mesh.nodes.shape, math.nan)  # no closed form
    w_exact = exact_w_polynomial(args.f_poly, mesh.nodes)

    write_csv(
        args.output,
        "x,u_exact,u_fem,w_exact,w_fem",
        [mesh.nodes, u_exact, result.u.values, w_exact, result.w.values],
    )
    return 0


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    fields = dict(PRESETS.get(args.preset, {}))
    names = {f.name for f in dataclasses.fields(SweepConfig)}
    fields.update((k, v) for k, v in vars(args).items() if k in names)
    if "epsilons" not in fields or "n_values" not in fields:
        raise InvalidParameterError("--epsilon/--n", "required unless supplied by --preset")
    return SweepConfig(**fields)


def cmd_sweep(args: argparse.Namespace) -> int:
    records = run_sweep(_sweep_config(args), jobs=args.jobs)
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
    mesh = build_shishkin(ShishkinParams(args.n, args.epsilon, args.alpha, args.sigma))
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
