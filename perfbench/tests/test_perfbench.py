"""The benchmark's own tests, at small N.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import layerfem as lf
import layerfem.cli
import layerfem.solver
import layerfem.tridiag
from perfbench import checks, run, spans
from perfbench.workloads import PipelineLarge, SolveCsv, SweepTables

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "solve_csv": lambda: SolveCsv(n=64),
    "pipeline_large": lambda: PipelineLarge(n=64),
    "sweep_tables": lambda: SweepTables(presets=("table2", "table4")),
}


def _zeroed_u(solve):
    def zeroed(mesh, coeffs, f, *args, **kwargs):
        result = solve(mesh, coeffs, f, *args, **kwargs)
        u = lf.FemSolution(mesh=mesh, values=np.zeros_like(result.u.values))
        return lf.DecoupledSolution(w=result.w, u=u, timings=result.timings)

    return zeroed


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_named_metric_is_printed_with_its_unit(name, trace, section):
    result, details = run.benchmark(lf, SMALL[name](), seed=1, seconds=0.1, trace=trace)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    if not trace:
        for metric in ("setup_s", "op_p50_s", "unknowns_per_s", "fail_ratio",
                       "max_error_u", "peak_rss_mb"):
            assert f" {metric}=" in details["summary"]


def test_end_to_end_metrics_are_never_zero():
    result, _ = run.benchmark(lf, SMALL["pipeline_large"](), seed=3, seconds=0.1, trace=False)
    assert all(v["value"] > 0.0 for v in result["metrics"].values())


def test_zeroed_u_fem_is_a_failure(monkeypatch):
    monkeypatch.setattr(lf.cli, "solve_fourth_order", _zeroed_u(lf.cli.solve_fourth_order))
    result, details = run.benchmark(lf, SolveCsv(n=64), seed=1, seconds=0.1, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert all(op["status"] == "wrong" for op in details["ops"])


def test_zeroed_u_in_pipeline_is_a_failure(monkeypatch):
    monkeypatch.setattr(lf, "solve_fourth_order", _zeroed_u(lf.solve_fourth_order))
    result, _ = run.benchmark(lf, PipelineLarge(n=64), seed=1, seconds=0.1, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_corrupted_csv_columns_are_rejected(tmp_path):
    path = tmp_path / "solve.csv"
    assert lf.cli.main(["solve", "--n", "64", "--output", str(path)]) == 0
    err, ratio = checks.check_solve_csv(path, "shishkin", 64, 1e-8)
    assert err > 0.0 and ratio == pytest.approx(1.0, abs=1e-6)
    header, *rows = path.read_text().splitlines()
    for column in (0, 2, 4):  # x, u_fem, w_fem
        bad = [r.split(",") for r in rows]
        for r in bad:
            r[column] = "0.0000000000e+00"
        path.write_text("\n".join([header] + [",".join(r) for r in bad]) + "\n")
        with pytest.raises(checks.CheckFailed):
            checks.check_solve_csv(path, "shishkin", 64, 1e-8)
    path.write_text("\n".join([header] + rows[:-1]) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_solve_csv(path, "shishkin", 64, 1e-8)


def test_corrupted_sweep_is_rejected(tmp_path):
    path = tmp_path / "sweep.csv"
    assert lf.cli.main(["sweep", "--preset", "table2", "--jobs", "1",
                        "--output", str(path)]) == 0
    checks.check_sweep_csv(path, "table2")
    lines = path.read_text().splitlines()
    for index in (5, len(lines) - 1):  # a coarse row and a large-N row
        row = lines[index].split(",")
        row[3] = f"{float(row[3]) * 1.001:.10e}"
        bad = lines[:index] + [",".join(row)] + lines[index + 1:]
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(checks.CheckFailed):
            checks.check_sweep_csv(path, "table2")


@pytest.mark.parametrize("kind, eps", [("shishkin", 1e-8), ("shishkin", 1e-4),
                                       ("uniform", 1e-4)])
def test_error_window_at_full_size_is_tight(kind, eps):
    n = 2**20
    reference = checks.reference_error("u", kind, n, eps)
    low, high = checks.error_window(reference, n)
    # below the discretisation error a smaller error (a fix for the
    # round-off floor) passes, and 1.1x the seed's error does not
    assert low == 0.0
    assert reference < high < 1.1 * reference


def test_error_window_is_two_sided_where_the_mesh_dominates():
    reference = checks.reference_error("u", "uniform", 2**20, 1e-8)
    low, high = checks.error_window(reference, 2**20)
    assert 0.999 * reference < low < reference < high < 1.001 * reference


def test_numerical_failure_is_counted_not_dropped(monkeypatch):
    solve = lf.solve_fourth_order

    def gate_fails_on_one_cell(mesh, coeffs, f, *args, **kwargs):
        if mesh.kind is lf.MeshKind.SHISHKIN and coeffs.epsilon == 1e-4:
            raise lf.ResidualBoundError(1.035e-10, 1e-10)
        return solve(mesh, coeffs, f, *args, **kwargs)

    monkeypatch.setattr(lf, "solve_fourth_order", gate_fails_on_one_cell)
    result, details = run.benchmark(lf, PipelineLarge(n=64), seed=1, seconds=0.1, trace=False)
    assert result["correct"]
    assert result["attempted"] % 4 == 0
    assert result["failed"] == result["attempted"] // 4
    assert result["metrics"]["ok_ratio"]["value"] == 0.75
    assert "fail_ratio=0.25" in details["summary"]


@pytest.mark.parametrize("workload", [PipelineLarge(), SweepTables()])
def test_changed_seed_changes_only_op_order(workload):
    def passes(seed):
        return list(itertools.islice(run.pass_orders(workload.ops, seed), 5))

    assert passes(1) == passes(1)
    assert passes(1) != passes(2)
    for one, two in zip(passes(1), passes(2)):
        assert sorted(one) == sorted(two) == sorted(workload.ops)


def test_seed_does_not_reach_the_package_inputs(tmp_path):
    out = tmp_path / "out.csv"
    for workload in (SolveCsv(), SweepTables()):
        argvs = {tuple(workload.argv(op, out)) for op in workload.ops}
        assert all("--seed" not in argv for argv in argvs)
        assert len(argvs) == len(workload.ops)


def test_tracer_patches_callers_and_restores_them():
    originals = (lf.tridiag.solve, lf.solver.solve, lf.solver.matvec, lf.cli.solve_fourth_order)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lf.solver.solve is not originals[1]
        assert lf.cli.solve_fourth_order is not originals[3]
        tracer.op_id = 0
        mesh = lf.build_uniform(16)
        lf.solve_fourth_order(mesh, lf.ProblemCoefficients(epsilon=1e-2), lf.exact_f)
    finally:
        tracer.uninstall()
    assert (lf.tridiag.solve, lf.solver.solve, lf.solver.matvec,
            lf.cli.solve_fourth_order) == originals
    names = [(s[spans.LAYER], s[spans.NAME]) for s in tracer.spans]
    assert names.count(("tridiag", "solve")) == 2
    assert names.count(("tridiag", "matvec")) == 2
    metrics = spans.layer_metrics(tracer.spans, ops=1, cli_bytes=0)
    assert metrics["tridiag.unknowns"][0] == 2 * 15
    assert metrics["tridiag.singular"][0] == 0.0
    assert metrics["solver.gate_pass_ratio"][0] == 1.0
    own = spans.self_times(tracer.spans)
    top = next(i for i, s in enumerate(tracer.spans) if s[spans.NAME] == "solve_fourth_order")
    assert 0.0 <= own[top] <= tracer.spans[top][spans.END] - tracer.spans[top][spans.START]


def test_op_p50_is_the_median_over_passes_of_the_mean_op_time():
    times = [(0, 1.0, "ok"), (0, 3.0, "ok"), (1, 2.0, "ok"), (1, 9.0, "failed"),
             (1, 4.0, "ok"), (2, 9.0, "ok"), (2, 9.0, "ok"), (3, 5.0, "failed")]
    records = [{"pass": p, "seconds": t, "status": status, "unknowns": 1,
                "max_error_u": 1.0, "error_ratio": 1.0} for p, t, status in times]
    assert run.end_to_end(records, setup=[1.0])["op_p50_s"] == 3.0


def test_tracing_overhead_is_positive():
    result, _ = run.benchmark(lf, SMALL["pipeline_large"](), seed=1, seconds=0.1, trace=True)
    assert result["metrics"]["trace.overhead_s"]["value"] > 0.0


def test_setup_samples_are_spread_over_the_run(monkeypatch):
    events = []

    def fake_op(lf, workload, op, out, records, pass_index):
        events.append("op")
        records.append({"op": op})
        return 0.03

    def fake_setup():
        events.append("setup")
        return 0.1

    monkeypatch.setattr(run, "run_op", fake_op)
    monkeypatch.setattr(run, "setup_sample", fake_setup)
    records, setup = run.measure(lf, SMALL["sweep_tables"](), seed=1, seconds=0.1)
    assert len(records) == 4
    assert events[:7] == ["setup", "op", "op", "setup", "op", "op", "setup"]
    assert len(setup) == run.SETUP_MIN_SAMPLES
    assert set(events[7:]) == {"setup"}


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    import os
    import shutil
    import subprocess
    import sys

    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert not Path(tmp_path, ".perfbench_out").exists()
