#!/usr/bin/env python3
"""Benchmark one layerfem workload, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones in BENCHMARK.json, measured untraced; with --trace 1 they
are the per-layer ones, from spans recorded around the package's public
functions, and include the tracing overhead.  Details (every op, the run
metadata and, when traced, the spans) go to .perfbench_out/.

One caller runs ops back to back (a closed loop, no pool).  Ops run in
whole passes over the workload's op list; the seed only shuffles the
order within each pass.  An untraced run also starts a fresh interpreter
for setup_s before the first pass and after every pass, so that its
samples see the same phases of the host's speed as the ops.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import spans as spans_mod  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402
from perfbench.workloads import WORKLOADS, CliExit  # noqa: E402

SETUP_MIN_SAMPLES = 7
# The child prints when it is done on the system-wide monotonic clock, so
# the parent's wait (which polls when given a timeout) is not timed.
SETUP_CODE = (
    "import time\n"
    "import layerfem as lf\n"
    "mesh = lf.build_shishkin(lf.ShishkinParams(n_intervals=64, epsilon=1e-8))\n"
    "lf.solve_fourth_order(mesh, lf.ProblemCoefficients(epsilon=1e-8), lf.exact_f)\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "unknowns_per_s": "1/s",
    "ok_ratio": "ratio",
    "max_error_u": "1",
    "max_error_ratio": "1",
    "peak_rss_mb": "MB",
}


def pass_orders(ops: tuple, seed: int):
    """Endless passes over ops, each in an order drawn from the seed."""
    rng = random.Random(seed)
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


def run_op(lf, workload, op, out: Path, records: list[dict], pass_index: int) -> float:
    """Run, time and check one op; append its record; return its wall time."""
    status, detail, outcome = "ok", "", None
    t0 = time.perf_counter()
    try:
        value = workload.execute(lf, op, out)
        elapsed = time.perf_counter() - t0
    except (lf.NumericalFailure, CliExit) as exc:
        elapsed = time.perf_counter() - t0
        status, detail = "failed", f"{type(exc).__name__}: {exc}"
    except Exception:  # a crash in the package: record it and keep measuring
        elapsed = time.perf_counter() - t0
        status, detail = "crash", traceback.format_exc(limit=4)
    if status == "ok":
        try:
            outcome = workload.check(lf, op, out, value)
        except (CheckFailed, OSError, ValueError) as exc:
            status, detail = "wrong", f"{type(exc).__name__}: {exc}"
    out.unlink(missing_ok=True)
    records.append({
        "op": workload.label(op),
        "pass": pass_index,
        "seconds": elapsed,
        "status": status,
        "detail": detail,
        "unknowns": outcome.unknowns if outcome else 0,
        "max_error_u": outcome.max_error_u if outcome else None,
        "error_ratio": outcome.error_ratio if outcome else None,
        "bytes_out": outcome.bytes_out if outcome else 0,
    })
    return elapsed


def measure(lf, workload, seed: int, seconds: float,
            tracer=None) -> tuple[list[dict], list[float]]:
    """Whole passes until `seconds` of op time have elapsed.

    Returns the op records and, untraced, the setup samples: one before
    the first pass, one after each pass, and more at the end if the run
    had fewer than SETUP_MIN_SAMPLES - 1 passes.  With a tracer, every
    pass is traced.
    """
    records: list[dict] = []
    setup = [] if tracer else [setup_sample()]
    out = OUT / "tmp" / f"{workload.name}.out"
    out.parent.mkdir(parents=True, exist_ok=True)
    spent = 0.0
    for index, order in enumerate(pass_orders(workload.ops, seed)):
        if spent >= seconds:
            break
        if tracer:
            tracer.install()
        try:
            for op in order:
                if tracer:
                    tracer.op_id = len(records)
                spent += run_op(lf, workload, op, out, records, index)
        finally:
            if tracer:
                tracer.uninstall()
        if not tracer:
            setup.append(setup_sample())
    while not tracer and len(setup) < SETUP_MIN_SAMPLES:
        setup.append(setup_sample())
    return records, setup


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing layerfem and solving N = 64."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                          timeout=120, capture_output=True, text=True).stdout
    return float(done) - t0


def warm_up(lf, workload) -> None:
    """Let imports, allocators and caches settle before timing (N = 64)."""
    OUT.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    path = OUT / "tmp" / "warmup.csv"
    for kind in ("uniform", "shishkin"):
        argv = ["solve", "--n", "64", "--mesh", kind, "--output", str(path)]
        if lf.cli.main(argv) != 0:
            raise RuntimeError(f"warm-up `layerfem {' '.join(argv)}` failed")
    lf.cli.main(["sweep", "--epsilon", "1e-8", "--n", "16,32", "--jobs", "1",
                 "--output", str(path)])
    path.unlink(missing_ok=True)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least 10 samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def cache_sizes() -> dict[str, int]:
    """L1d/L2/L3 sizes in bytes as the kernel reports them (read only)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        units = {"K": 1024, "M": 1024**2, "G": 1024**3}
        sizes[f"L{level}"] = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return sizes


def metadata(lf, workload) -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        import tomllib

        with open(ROOT / "pyproject.toml", "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
    except (ImportError, OSError, KeyError):
        version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    n = workload.largest_n
    return {
        "package_version": version,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": cache_sizes(),
        # computed from array sizes, not measured
        "largest_array_bytes": 8 * (n + 1),
        "solve_operand_bytes": 8 * (5 * (n - 1) - 2),
    }


def pass_op_means(records: list[dict]) -> list[float]:
    """Mean wall time of the successful ops of each pass that had one."""
    by_pass: dict[int, list[float]] = {}
    for r in records:
        if r["status"] == "ok":
            by_pass.setdefault(r["pass"], []).append(r["seconds"])
    return [statistics.fmean(v) for v in by_pass.values()]


def end_to_end(records: list[dict], setup: list[float]) -> dict[str, float]:
    ok = [r for r in records if r["status"] == "ok"]
    busy = sum(r["seconds"] for r in ok)
    # Per pass, not per op: the ops of a pass differ in size (table5 and
    # table6 take twice as long as table1..4), and a plain median of
    # their times lands in one size class and swings with its jitter.
    means = pass_op_means(records)
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(means) if means else 0.0,
        "unknowns_per_s": sum(r["unknowns"] for r in ok) / busy if busy else 0.0,
        "ok_ratio": len(ok) / len(records),
        "max_error_u": max((r["max_error_u"] for r in ok), default=0.0),
        "max_error_ratio": max((r["error_ratio"] for r in ok), default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def summary_line(name: str, records: list[dict], values: dict, setup: list[float]) -> str:
    """Every end-to-end figure with its unit and sample count, plus fail_ratio."""
    ok_s = [r["seconds"] for r in records if r["status"] == "ok"]
    attempted, ok = len(records), len(ok_s)
    failed = attempted - ok
    parts = [
        f"{name}:",
        f"setup_s={values['setup_s']:.4g} s (n={len(setup)})",
        f"op_p50_s={values['op_p50_s']:.4g} s (n={len(pass_op_means(records))} passes)",
    ]
    tail = tail_percentile(ok_s)
    if tail:
        parts.append(f"op_p{tail[0]}_s={tail[1]:.4g} s (n={ok})")
    parts += [
        f"unknowns_per_s={values['unknowns_per_s']:.4g} 1/s (n={ok})",
        f"fail_ratio={failed / attempted:.4g} ({failed}/{attempted})",
        f"max_error_u={values['max_error_u']:.4g} (n={ok})",
        f"max_error_ratio={values['max_error_ratio']:.4g} (n={ok})",
        f"peak_rss_mb={values['peak_rss_mb']:.4g} MB",
    ]
    return " ".join(parts)


def benchmark(lf, workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of a workload: (the result line, the details)."""
    OUT.mkdir(exist_ok=True)
    warm_up(lf, workload)
    tracer = spans_mod.Tracer() if trace else None
    records, setup = measure(lf, workload, seed, seconds, tracer)

    for r in records:
        if r["status"] != "ok":
            print(f"{workload.name}: op {r['op']} {r['status']}: {r['detail'].strip()}",
                  file=sys.stderr)
    summary = None
    if trace:
        metrics = spans_mod.layer_metrics(
            tracer.spans, len(records), sum(r["bytes_out"] for r in records))
        # what wrapping adds to a call, times the calls it wrapped per op
        overhead = spans_mod.span_cost() * len(tracer.spans) / len(records)
        metrics["trace.overhead_s"] = (overhead, "s/op")
        tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    else:
        values = end_to_end(records, setup)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        summary = summary_line(workload.name, records, values, setup)

    attempted = len(records)
    ok = sum(r["status"] == "ok" for r in records)
    result = {
        "correct": ok > 0 and not any(r["status"] in ("wrong", "crash") for r in records),
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    details = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "summary": summary, "meta": metadata(lf, workload), "setup_s": setup,
        "ops": records, "result": result,
    }
    return result, details


def run_one(args) -> int:
    try:
        import layerfem as lf
        import layerfem.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import layerfem from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, details = benchmark(
        lf, WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    if details["summary"]:
        print(details["summary"])
    print("# meta " + json.dumps(details["meta"], sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
