#!/usr/bin/env python3
"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

- sweep_tableK.csv: the non-timing columns of `layerfem sweep --preset
  tableK` (epsilon, N, mesh, max_error, assumption_ok).
- pipeline.json: the nodal errors of u and w, against the closed form
  in checks.py, of each pipeline cell the workloads run (N = 64 for the
  benchmark's tests, N = 2^20 for the runs).  The two stages are
  composed here from the public assembly and tridiag functions, without
  the residual gate, so that a cell whose solve fails the gate at the
  seed still has the error of the solution it computes; where the gated
  pipeline succeeds, its u must equal this one.

Regenerate only in a change that means to alter the numerical results,
and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import layerfem as lf  # noqa: E402
import layerfem.cli  # noqa: E402,F401
from perfbench import checks  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    LARGE_N,
    MESH_KINDS,
    PIPELINE_EPSILONS,
    PRESETS,
    PipelineLarge,
)


def sweep_reference(preset: str, path: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        if lf.cli.main(["sweep", "--preset", preset, "--jobs", "1", "--output", str(out)]):
            raise SystemExit(f"sweep {preset} failed")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    lines = ["epsilon,N,mesh,max_error,assumption_ok"]
    lines += [",".join([r[0], r[1], r[2], r[3], r[7]]) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def ungated_solution(mesh, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodal w and u of solve_fourth_order's two stages, without its gate."""
    w = np.zeros(mesh.nodes.shape[0])
    w[1:-1] = lf.tridiag_solve(lf.assemble_poisson(mesh).matrix, lf.load_vector(mesh, lf.exact_f))
    u = np.zeros_like(w)
    rhs = lf.load_vector_from_solution(mesh, lf.FemSolution(mesh=mesh, values=w),
                                       quadrature="trapezoid")
    u[1:-1] = lf.tridiag_solve(lf.assemble_cdr(mesh, lf.ProblemCoefficients(epsilon=eps)).matrix,
                               rhs)
    return w, u


def pipeline_errors(kind: str, n: int, eps: float) -> tuple[float, float]:
    """The nodal errors of u and w of one cell."""
    if kind == "uniform":
        mesh = lf.build_uniform(n)
    else:
        mesh = lf.build_shishkin(lf.ShishkinParams(n_intervals=n, epsilon=eps))
    w, u = ungated_solution(mesh, eps)
    try:
        gated, _ = PipelineLarge(n=n).execute(lf, (kind, n, eps), None)
    except lf.NumericalFailure as exc:
        print(f"{kind} N={n} eps={eps:g}: {exc}", file=sys.stderr)
    else:
        if not np.array_equal(gated, u):
            raise SystemExit(f"{kind} N={n} eps={eps:g}: gated and ungated u differ")
    nodes = checks.mesh_nodes(kind, n, eps)
    return (float(np.max(np.abs(u - checks.exact_u(eps, nodes)))),
            float(np.max(np.abs(w - checks.exact_w(nodes)))))


def main() -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for preset in PRESETS:
        sweep_reference(preset, checks.REFERENCE_DIR / f"sweep_{preset}.csv")
    reference: dict[str, dict[str, float]] = {"max_error_u": {}, "max_error_w": {}}
    for n in (64, LARGE_N):
        for eps in PIPELINE_EPSILONS:
            for kind in MESH_KINDS:
                key = checks.cell_key(kind, n, eps)
                u_err, w_err = pipeline_errors(kind, n, eps)
                reference["max_error_u"][key] = u_err
                reference["max_error_w"][key] = w_err
    with open(checks.REFERENCE_DIR / "pipeline.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
