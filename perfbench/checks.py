"""Output checks, kept apart from the package under test.

The model problem a = b = 1, f = 1 has the closed-form solution

    u(x) = c1 exp(r1 x) + c2 exp(r2 x) - (x^2 + x + 1)/2 - eps,
    w(x) = x (1 - x) / 2,

with r1, r2 the roots of eps r^2 + r - 1 = 0.  It is evaluated here from
scratch, and the Shishkin nodes are rebuilt here too, so that a fault in
the package's own oracle or mesh cannot pass its own check, and so that
checking never calls (or, in a traced run, records) package code.

Error window: a correct solve's nodal sup-norm error of u (or w) on a cell
is the seed's error for that cell (reference/pipeline.json) to within
REL_TOL, plus ROUNDOFF_PER_INTERVAL * N.  The second term admits a change
in round-off: at N = 2^20 it is 1e-9, about 6% of the seed's floor of
1.77e-8 on Shishkin meshes (eps = 1e-8; ROADMAP item 5).  Below
DISCRETISATION_ERROR the error may be round-off, and a fix for the floor
must pass, so the window has no lower edge there.  Above it the error is
that of the mesh (an unresolved layer, or a coarse N), which no solver
change may move by REL_TOL; there the window is two-sided, because on
uniform meshes the error (0.05 to 0.1) is as large as u itself (max |u|
~ 0.055), so that a zeroed u would pass a ceiling alone.  Sweep rows use
the same window against reference/sweep_*.csv.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REL_TOL = 1e-4
ROUNDOFF_PER_INTERVAL = 1e-15
DISCRETISATION_ERROR = 1e-3
# Values are printed with 11 significant digits, so a printed value is
# off by up to this share of its size.
PRINT_ROUNDOFF = 5e-11
SOLVE_HEADER = "x,u_exact,u_fem,w_exact,w_fem"
SWEEP_HEADER = "epsilon,N,mesh,max_error,rate,assembly_s,solve_s,assumption_ok"
# Rates are printed with 6 decimals.
RATE_TOL = 2e-6


class CheckFailed(Exception):
    """An op's output disagrees with the closed form or the reference."""


def exact_u(epsilon: float, x: np.ndarray) -> np.ndarray:
    s = math.sqrt(1.0 + 4.0 * epsilon)
    r1 = 2.0 / (1.0 + s)
    r2 = -(1.0 + s) / (2.0 * epsilon)  # the root 2/(1 - s) without cancellation
    e1, e2 = math.exp(r1), math.exp(r2)
    c2 = (e1 * (0.5 + epsilon) - (1.5 + epsilon)) / (e1 - e2)
    c1 = (0.5 + epsilon) - c2
    return c1 * np.exp(r1 * x) + c2 * np.exp(r2 * x) - (x * x + x + 1.0) / 2.0 - epsilon


def exact_w(x: np.ndarray) -> np.ndarray:
    return x * (1.0 - x) / 2.0


def mesh_nodes(kind: str, n: int, epsilon: float, sigma: float = 3.0) -> np.ndarray:
    """Uniform or Shishkin nodes (alpha = 1), built piecewise by linspace."""
    if kind == "uniform":
        return np.linspace(0.0, 1.0, n + 1)
    tau = min(0.5, sigma * epsilon * math.log(n))
    half = n // 2
    return np.concatenate(
        [np.linspace(0.0, tau, half + 1), np.linspace(tau, 1.0, half + 1)[1:]]
    )


def error_window(reference: float, n: int, printed: float = 0.0) -> tuple[float, float]:
    """The errors a correct solve may have where the seed's error was `reference`.

    `printed` widens the window by the print round-off of values read
    back from a CSV.
    """
    slack = REL_TOL * reference + ROUNDOFF_PER_INTERVAL * n + printed
    low = reference - slack if reference >= DISCRETISATION_ERROR else 0.0
    return low, reference + slack


def check_error(what: str, err: float, reference: float, n: int, printed: float = 0.0) -> None:
    low, high = error_window(reference, n, printed)
    if not low <= err <= high:
        raise CheckFailed(f"max error of {what} {err:.6e} is outside [{low:.6e}, {high:.6e}]")


def cell_key(kind: str, n: int, epsilon: float) -> str:
    return f"{kind}/{n}/{epsilon:g}"


@functools.cache
def load_pipeline_reference() -> dict:
    """The seed's nodal errors per cell: {"max_error_u": {cell: err}, "max_error_w": ...}."""
    with open(REFERENCE_DIR / "pipeline.json", encoding="utf-8") as fh:
        return json.load(fh)


def reference_error(what: str, kind: str, n: int, epsilon: float) -> float:
    return load_pipeline_reference()[f"max_error_{what}"][cell_key(kind, n, epsilon)]


def sup_error(values: np.ndarray, exact: np.ndarray, what: str) -> float:
    values = np.asarray(values, dtype=float)
    if values.shape != exact.shape:
        raise CheckFailed(f"{what} has shape {values.shape}, expected {exact.shape}")
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{what} has non-finite values")
    return float(np.max(np.abs(values - exact)))


def nodal_error_u(values: np.ndarray, kind: str, n: int, epsilon: float,
                  print_share: float = 0.0) -> tuple[float, float]:
    """Sup-norm error of nodal values of u, and its ratio to the seed's.

    `print_share` is the print round-off of values read from a CSV, as a
    share of their size.  Raises CheckFailed outside the error window.
    """
    exact = exact_u(epsilon, mesh_nodes(kind, n, epsilon))
    err = sup_error(values, exact, "u")
    reference = reference_error("u", kind, n, epsilon)
    check_error("u", err, reference, n, print_share * float(np.max(np.abs(exact))))
    return err, err / reference


def check_solve_csv(path: Path, kind: str, n: int, epsilon: float) -> tuple[float, float]:
    """Check a `layerfem solve` CSV of the model problem.

    Returns the u error and its ratio to the seed's.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    if header != SOLVE_HEADER:
        raise CheckFailed(f"header {header!r} != {SOLVE_HEADER!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (n + 1, 5):
        raise CheckFailed(f"table has shape {data.shape}, expected ({n + 1}, 5)")
    x, u_exact, u_fem, w_exact, w_fem = data.T
    nodes = mesh_nodes(kind, n, epsilon)
    # 11 significant digits are printed; the package builds nodes by
    # cumulative sums, which drift by ~N ulp from the linspace nodes.
    if not np.all(np.abs(x - nodes) <= 1e-9 * np.abs(nodes)):
        i = int(np.argmax(np.abs(x - nodes) - 1e-9 * np.abs(nodes)))
        raise CheckFailed(f"x[{i}] = {x[i]!r} is not the mesh node {nodes[i]!r}")
    # the exact columns, at the printed x, to within printing round-off
    if not np.allclose(u_exact, exact_u(epsilon, x), rtol=0.0, atol=1e-8):
        raise CheckFailed("u_exact column disagrees with the closed form")
    if not np.allclose(w_exact, exact_w(x), rtol=0.0, atol=1e-8):
        raise CheckFailed("w_exact column disagrees with the closed form")
    w = exact_w(nodes)
    check_error("w", sup_error(w_fem, w, "w"), reference_error("w", kind, n, epsilon), n,
                PRINT_ROUNDOFF * float(np.max(np.abs(w))))
    return nodal_error_u(u_fem, kind, n, epsilon, print_share=PRINT_ROUNDOFF)


def load_sweep_reference(preset: str) -> list[list[str]]:
    """Reference rows (epsilon, N, mesh, max_error, assumption_ok) of a preset."""
    with open(REFERENCE_DIR / f"sweep_{preset}.csv", encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def check_sweep_csv(path: Path, preset: str) -> tuple[float, float, list[int]]:
    """Check a `layerfem sweep` CSV against the reference.

    Returns the largest max_error, the largest ratio of a row's max_error
    to the reference's, and the N of every row.  Timing columns are only
    required to be positive.  Rates are checked against the errors of the
    output, which are themselves checked against the reference.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise CheckFailed(f"sweep header {lines[:1]!r} != {SWEEP_HEADER!r}")
    rows = [line.split(",") for line in lines[1:]]
    reference = load_sweep_reference(preset)
    if len(rows) != len(reference):
        raise CheckFailed(f"{len(rows)} sweep rows, reference has {len(reference)}")
    largest = largest_ratio = 0.0
    previous: tuple[str, str, int, float] | None = None
    for i, (row, ref) in enumerate(zip(rows, reference)):
        if len(row) != 8:
            raise CheckFailed(f"row {i}: {len(row)} columns")
        eps, n, mesh, err, rate, t_asm, t_solve, ok = row
        if [eps, n, mesh, ok] != [ref[0], ref[1], ref[2], ref[4]]:
            raise CheckFailed(f"row {i}: {row} does not match reference {ref}")
        err_v, ref_v = float(err), float(ref[3])
        try:
            check_error("u", err_v, ref_v, int(n), PRINT_ROUNDOFF * ref_v)
        except CheckFailed as exc:
            raise CheckFailed(f"row {i} ({eps}, {n}, {mesh}): {exc}") from None
        if not (float(t_asm) > 0.0 and float(t_solve) > 0.0):
            raise CheckFailed(f"row {i}: timings {t_asm}, {t_solve} not positive")
        # rates chain along doublings of N within one (epsilon, mesh) series
        expected = ""
        if (
            previous is not None
            and previous[:2] == (eps, mesh)
            and int(n) == 2 * previous[2]
            and previous[3] > 0.0
            and err_v > 0.0
        ):
            expected = math.log2(previous[3] / err_v)
        if (rate == "") != (expected == ""):
            raise CheckFailed(f"row {i}: rate {rate!r}, expected {expected!r}")
        if rate and not abs(float(rate) - expected) <= RATE_TOL:
            raise CheckFailed(f"row {i}: rate {rate} != log2 ratio {expected:.6f}")
        largest = max(largest, err_v)
        largest_ratio = max(largest_ratio, err_v / ref_v)
        previous = (eps, mesh, int(n), err_v)
    return largest, largest_ratio, [int(r[1]) for r in rows]
