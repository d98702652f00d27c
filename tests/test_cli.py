"""Command-line interface, exercised in-process through main(argv)."""

import math
from pathlib import Path

import numpy as np
import pytest

from layerfem import ProblemCoefficients, solve_fourth_order
from layerfem.cli import main
from layerfem.mesh import build_mesh
from layerfem.oracle import exact_w_polynomial

HEADER_SOLVE = "x,u_exact,u_fem,w_exact,w_fem"
HEADER_SWEEP = "epsilon,N,mesh,max_error,rate,assembly_s,solve_s,assumption_ok"


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def solve_columns(path):
    lines = read_lines(path)
    body = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return lines[0], body


def row_loop(header_lines, columns):
    """The per-row f-string formatting that the block writer replaced."""
    lines = list(header_lines)
    for row in zip(*columns):
        lines.append(",".join(
            f"{v}" if isinstance(v, (int, np.integer)) else f"{v:.10e}" for v in row
        ))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestSolve:
    def test_csv_shape_and_accuracy(self, tmp_path):
        out = tmp_path / "solve.csv"
        code = main(
            ["solve", "--epsilon", "1e-8", "--n", "32", "--mesh", "shishkin",
             "--output", str(out)]
        )
        assert code == 0
        header, body = solve_columns(out)
        assert header == HEADER_SOLVE
        assert body.shape == (33, 5)
        x, u_exact, u_fem, w_exact, w_fem = body.T
        assert x[0] == 0.0 and x[-1] == 1.0
        assert float(np.max(np.abs(w_exact - w_fem))) <= 1e-12
        err = float(np.max(np.abs(u_exact - u_fem)))
        assert 1e-5 < err < 1e-2

    def test_stdout_default(self, capsys):
        assert main(["solve", "--epsilon", "1e-2", "--n", "8"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == HEADER_SOLVE
        assert len(out) == 10

    def test_uniform_mesh_spacing(self, tmp_path):
        out = tmp_path / "solve.csv"
        main(["solve", "--epsilon", "1e-2", "--n", "8", "--mesh", "uniform",
              "--output", str(out)])
        _, body = solve_columns(out)
        assert np.allclose(np.diff(body[:, 0]), 0.125, atol=1e-15)

    def test_polynomial_source_blanks_exact_u(self, tmp_path):
        out = tmp_path / "solve.csv"
        code = main(
            ["solve", "--epsilon", "1e-4", "--n", "16", "--f-poly", "0,0,1",
             "--output", str(out)]
        )
        assert code == 0
        _, body = solve_columns(out)
        x, u_exact, _, w_exact, w_fem = body.T
        assert np.all(np.isnan(u_exact[1:-1]))  # no closed form published
        # -w'' = x^2, w(0) = w(1) = 0  =>  w = (x - x^4) / 12
        assert np.allclose(w_exact, (x - x**4) / 12.0, atol=1e-15)
        assert float(np.max(np.abs(w_exact - w_fem))) <= 1e-12

    def test_nonmodel_coefficients_blank_exact_u(self, tmp_path):
        out = tmp_path / "solve.csv"
        main(["solve", "--epsilon", "1e-4", "--n", "16", "--a", "2.0",
              "--output", str(out)])
        _, body = solve_columns(out)
        assert np.all(np.isnan(body[1:-1, 1]))

    def test_odd_n_rejected(self, capsys):
        assert main(["solve", "--n", "7"]) == 2
        assert "n_intervals" in capsys.readouterr().err

    def test_nonfinite_coefficient_names_its_flag(self, capsys):
        assert main(["solve", "--n", "8", "--a", "inf"]) == 2
        assert capsys.readouterr().err.startswith("error: a:")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_source_is_a_numerical_failure(self, value, capsys):
        assert main(["solve", "--n", "8", "--f-poly", value]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:")

    def test_unwritable_output(self, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        assert main(["solve", "--n", "8", "--output", str(target)]) == 3

    def test_failed_solve_leaves_no_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert main(["solve", "--f-poly", "nan", "--output", str(target)]) == 4
        assert not target.exists()
        capsys.readouterr()

    def test_stdout_matches_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert main(["solve", "--n", "64", "--output", str(target)]) == 0
        capsys.readouterr()
        assert main(["solve", "--n", "64"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == target.read_bytes()

    def test_nan_exact_column_matches_row_loop(self, tmp_path):
        target = tmp_path / "out.csv"
        code = main(["solve", "--n", "4096", "--a", "2", "--b", "0.5",
                     "--f-poly", "0,0,1", "--output", str(target)])
        assert code == 0
        mesh = build_mesh("shishkin", 4096, 1e-8)
        result = solve_fourth_order(
            mesh, ProblemCoefficients(epsilon=1e-8, a=2.0, b=0.5), lambda x: x**2
        )
        columns = [mesh.nodes, np.full(mesh.nodes.shape, np.nan), result.u.values,
                   exact_w_polynomial((0.0, 0.0, 1.0), mesh.nodes), result.w.values]
        assert target.read_bytes() == row_loop([HEADER_SOLVE], columns)


class TestMeshDump:
    def test_known_transition_point(self, tmp_path):
        out = tmp_path / "mesh.csv"
        code = main(
            ["mesh-dump", "--epsilon", "1e-8", "--n", "8", "--output", str(out)]
        )
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "# tau=6.2383246250e-08"
        assert lines[1] == "index,x"
        assert len(lines) == 11
        assert lines[2] == "0,0.0000000000e+00"
        assert lines[-1].startswith("8,")
        xs = [float(line.split(",")[1]) for line in lines[2:]]
        assert xs[0] == 0.0 and xs[-1] == 1.0
        assert xs == sorted(xs)

    def test_matches_row_loop(self, tmp_path):
        target = tmp_path / "mesh.csv"
        assert main(["mesh-dump", "--epsilon", "1e-6", "--n", "20000",
                     "--output", str(target)]) == 0
        mesh = build_mesh("shishkin", 20000, 1e-6)
        expected = row_loop([f"# tau={mesh.tau:.10e}", "index,x"],
                            [range(len(mesh.nodes)), mesh.nodes])
        assert target.read_bytes() == expected

    def test_requires_epsilon_and_n(self, capsys):
        assert main(["mesh-dump", "--n", "8"]) == 2
        capsys.readouterr()

    def test_validation_failure(self, capsys):
        assert main(["mesh-dump", "--epsilon", "1e-8", "--n", "7"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_preset_grid_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--preset", "table1", "--timing-repeats", "1",
             "--jobs", "1", "--output", str(out)]
        )
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == HEADER_SWEEP
        assert len(lines) == 1 + 3 * 2 * 12  # eps x kinds x N
        first = lines[1].split(",")
        assert first[0] == "1.000000e-10"
        assert first[1] == "4"
        assert first[2] == "uniform"
        assert first[4] == ""  # no rate for the first N of a series
        assert first[7] == "true"

    def test_epsilon_one_preset(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--preset", "epsilon-one", "--timing-repeats", "1",
              "--jobs", "1", "--output", str(out)])
        lines = read_lines(out)
        assert len(lines) == 1 + 12
        assert all(line.split(",")[2] == "uniform" for line in lines[1:])
        assert all(line.split(",")[7] == "false" for line in lines[1:])

    def test_inline_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--epsilon", "1e-6,1e-4", "--n", "8,16", "--mesh",
             "shishkin", "--timing-repeats", "1", "--jobs", "1",
             "--output", str(out)]
        )
        assert code == 0
        lines = read_lines(out)
        assert len(lines) == 1 + 2 * 1 * 2
        rate = lines[2].split(",")[4]
        assert 1.0 < float(rate) < 3.0  # doubled N reports a rate

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--preset", "epsilon-one", "--epsilon", "1e-4", "--n", "8",
              "--timing-repeats", "1", "--jobs", "1", "--output", str(out)])
        lines = read_lines(out)
        assert len(lines) == 2
        assert lines[1].startswith("1.000000e-04,8,uniform,")

    def test_grid_required(self, capsys):
        assert main(["sweep"]) == 2
        assert "required unless supplied by --preset" in capsys.readouterr().err

    def test_bad_jobs(self, capsys):
        assert main(["sweep", "--preset", "epsilon-one", "--jobs", "0"]) == 2
        capsys.readouterr()

    def test_deterministic_apart_from_timings(self, tmp_path):
        argv = ["sweep", "--epsilon", "1e-8", "--n", "8,16", "--mesh", "both",
                "--timing-repeats", "1", "--jobs", "1"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(argv + ["--output", str(first)])
        main(argv + ["--output", str(second)])
        for line_a, line_b in zip(read_lines(first), read_lines(second)):
            cells_a, cells_b = line_a.split(","), line_b.split(",")
            stable_a = cells_a[:5] + cells_a[7:]
            stable_b = cells_b[:5] + cells_b[7:]
            assert stable_a == stable_b


class TestTable:
    def test_aligns_sweep_csv(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        main(["sweep", "--epsilon", "1e-6", "--n", "8,16", "--mesh", "uniform",
              "--timing-repeats", "1", "--jobs", "1", "--output", str(csv)])
        assert main(["table", str(csv)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("epsilon")
        assert "," not in lines[0]

    def test_drops_comment_rows(self, tmp_path, capsys):
        dump = tmp_path / "mesh.csv"
        main(["mesh-dump", "--epsilon", "1e-6", "--n", "8", "--output", str(dump)])
        assert main(["table", str(dump)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("index")
        assert len(lines) == 10

    def test_missing_file(self, tmp_path, capsys):
        assert main(["table", str(tmp_path / "absent.csv")]) == 3
        capsys.readouterr()

    def test_comment_only_file(self, tmp_path, capsys):
        path = tmp_path / "comments.csv"
        path.write_text("# tau=1.0e-01\n# nothing else\n", encoding="utf-8")
        assert main(["table", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: csv_path:")

    def test_ragged_rows_name_the_line(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,c\n1,2\n", encoding="utf-8")
        assert main(["table", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: csv_path:")
        assert "line 2" in err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,b\n\u00e9,1\n".encode("latin-1"))
        assert main(["table", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: csv_path:")


class TestArgparseBoundary:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_mesh_choice(self, capsys):
        assert main(["solve", "--mesh", "radial"]) == 2
        capsys.readouterr()


def test_console_entry_point_matches_main():
    """The `layerfem` script maps to main, installed or as declared."""
    from importlib.metadata import PackageNotFoundError, distribution

    try:
        installed = distribution("layerfem").entry_points
    except PackageNotFoundError:
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        scripts = declared["project"]["scripts"]
    else:
        console = installed.select(group="console_scripts")
        scripts = {ep.name: ep.value for ep in console}
    assert scripts.get("layerfem") == "layerfem.cli:main"
