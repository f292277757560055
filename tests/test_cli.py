"""Command-line interface: parsing, exit codes, JSON/CSV contracts, determinism."""

import csv
import io
import json
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from diskpoisson import cli, kernel, mappings, regimes
from diskpoisson.cli import main
from diskpoisson.derivs import (
    FLAG_NONE,
    FLAG_ORIGIN,
    FLAG_UNDER_RESOLVED,
    deriv_field,
    read_deriv_csv,
    write_deriv_csv,
)
from diskpoisson.kernel import QuadSpec, circle_poisson_values, radial_grid, read_boundary_csv
from diskpoisson.kernel import _ANGULAR_CAP
from diskpoisson.mappings import HypMonomial
from diskpoisson.norms import KernelQuantity, divergence_probe
from diskpoisson.regimes import (
    certification_grid,
    check_angular_derivative_bound,
    check_scaled_kernel_bound,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRegime:
    def test_classify_json(self, capsys):
        code, out, err = run_cli(
            capsys, ["regime", "--alpha", "-0.5", "--p", "2"]
        )
        assert code == 0
        assert err == ""
        data = json.loads(out)
        assert data["label"] == "Pi3"
        assert data["alpha"] == -0.5
        assert data["p"] == 2.0
        assert data["predictions"] == sorted(data["predictions"])

    def test_infinite_p(self, capsys):
        code, out, _ = run_cli(capsys, ["regime", "--alpha", "0", "--p", "inf"])
        assert code == 0
        assert json.loads(out)["label"] == "Pi3"

    def test_alpha_precondition_named(self, capsys):
        code, out, err = run_cli(capsys, ["regime", "--alpha", "-1.5", "--p", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "alpha" in err

    def test_p_precondition_named(self, capsys):
        code, _, err = run_cli(capsys, ["regime", "--alpha", "0.5", "--p", "0.5"])
        assert code == 2
        assert "p must" in err

    def test_thread_count_validated(self, capsys):
        # verify runs on one thread: a thread count is no option
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "oracle", "--threads", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 0" in capsys.readouterr().err


class TestExample:
    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, ["example", "--id", "nope"])
        assert code == 2
        assert "unknown example" in err

    def test_numeric_alias_resolution(self, capsys):
        code, out, _ = run_cli(capsys, ["example", "--id", "4.1"])
        assert code == 0
        data = json.loads(out)
        assert data["id"] == "hyp-monomial"
        assert data["alias"] == "4.1"
        assert data["facts"]["boundary_constant"] == pytest.approx(
            1.5737874653547954, rel=1e-12
        )

    def test_phase_facts(self, capsys):
        code, out, _ = run_cli(capsys, ["example", "--id", "piecewise-phase"])
        assert code == 0
        data = json.loads(out)
        assert data["alias"] == "4.2"
        assert data["facts"]["corner_nodes"] == [0, 1024]
        assert data["facts"]["deriv_l1_mean"] == 1.0
        assert data["facts"]["deriv_sup_norm"] == pytest.approx(
            (math.pi + 1.0) / math.pi, rel=1e-14
        )

    def test_log_series_defaults(self, capsys):
        code, out, _ = run_cli(
            capsys, ["example", "--id", "4.3", "--samples", "256"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["id"] == "log-series"
        assert data["params"]["n_trunc"] == 127  # alias-free default
        assert data["samples"] == 256

    def test_export_round_trip(self, capsys, tmp_path):
        path = tmp_path / "monomial.csv"
        code, out, _ = run_cli(
            capsys, ["example", "--id", "4.1", "--export", str(path)]
        )
        assert code == 0
        assert json.loads(out)["export"] == str(path)
        back = read_boundary_csv(str(path))
        want = HypMonomial(-0.5, 1).boundary(2048)
        assert np.array_equal(back.values, want.values)

    def test_parameter_precondition(self, capsys):
        code, _, err = run_cli(
            capsys, ["example", "--id", "4.1", "--alpha", "0.5"]
        )
        assert code == 2
        assert "alpha in (-1, 0)" in err


@pytest.fixture()
def monomial_csv(tmp_path):
    path = tmp_path / "boundary.csv"
    rc = main(["example", "--id", "4.1", "--export", str(path),
               "--output", str(tmp_path / "ignore.json")])
    assert rc == 0
    return str(path)


class TestEval:
    def test_point_value(self, capsys, monomial_csv):
        code, out, _ = run_cli(
            capsys,
            ["eval", "--alpha", "-0.5", "--boundary", monomial_csv,
             "--point", "0.5,0.7"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == -0.5
        row = data["values"][0]
        m = HypMonomial(-0.5, 1)
        want = float(m.e2(0.5)) * 0.5 * np.exp(0.7j)
        assert row["re"] == pytest.approx(want.real, rel=1e-9)
        assert row["im"] == pytest.approx(want.imag, rel=1e-9)
        assert row["r"] == pytest.approx(0.5, abs=1e-12)
        assert row["theta"] == pytest.approx(0.7, abs=1e-12)

    def test_field_near_the_origin_is_refused_by_name(self, capsys, monomial_csv):
        # The polar frame divides by r: at r = 1e-200 df/dz read 6.7e183.
        code, out, err = run_cli(capsys, ["eval", "--alpha", "0.5", "--boundary", monomial_csv,
                                          "--point", "1e-200,2", "--field"])
        assert (code, out) == (2, "")
        assert err == ("error: radius r=1e-200 is below 1e-08, where the polar frame's "
                       "division by r loses accuracy; r = 0 takes the operator's limit\n")

    def test_point_and_grid_exclusive(self, capsys, monomial_csv):
        code, _, err = run_cli(
            capsys,
            ["eval", "--alpha", "-0.5", "--boundary", monomial_csv,
             "--point", "0.5,0.7", "--grid"],
        )
        assert code == 2
        assert "exactly one" in err

    def test_missing_source(self, capsys, monomial_csv):
        code, _, err = run_cli(
            capsys, ["eval", "--alpha", "-0.5", "--boundary", monomial_csv]
        )
        assert code == 2

    def test_malformed_point(self, capsys, monomial_csv):
        code, _, err = run_cli(
            capsys,
            ["eval", "--alpha", "-0.5", "--boundary", monomial_csv,
             "--point", "0.5"],
        )
        assert code == 2
        assert "r,theta" in err

    def test_field_csv_round_trip(self, capsys, monomial_csv, tmp_path):
        out_path = tmp_path / "field.csv"
        code, out, _ = run_cli(
            capsys,
            ["eval", "--alpha", "-0.5", "--boundary", monomial_csv,
             "--grid", "--grid-thetas", "32", "--field", "--r-max", "0.9",
             "--output", str(out_path)],
        )
        assert code == 0
        assert out == ""  # written to the file, not stdout
        fld = read_deriv_csv(str(out_path))
        # origin plus 63 interior radii at 32 angles each
        assert len(fld.points) == 1 + 63 * 32
        m = HypMonomial(-0.5, 1)
        inner = np.abs(fld.points) > 0.0
        want = m.field(fld.points[inner])
        assert np.max(np.abs(fld.dz[inner] - want.dz)) < 1e-8
        assert np.max(np.abs(fld.dzbar[inner] - want.dzbar)) < 1e-8

    def test_point_field_flags_as_the_grid_does(self, tmp_path):
        # 2048 samples under-resolve r = 0.999 (2048 < 8 / (1 - 0.999)): the grid's
        # outermost rows are flagged, and so is a point on that circle.
        boundary, grid_csv, points_csv = (str(tmp_path / name)
                                          for name in ("phase.csv", "grid.csv", "points.csv"))
        assert main(["example", "--id", "4.2", "--export", boundary,
                     "--output", str(tmp_path / "example.json")]) == 0
        argv = ["eval", "--alpha", "0.7", "--boundary", boundary, "--field"]
        assert main(argv + ["--grid", "--output", grid_csv]) == 0
        assert main(argv + ["--point", "0.999,1", "--point", "0.5,1", "--point", "0,3",
                            "--output", points_csv]) == 0
        grid, points = read_deriv_csv(grid_csv), read_deriv_csv(points_csv)
        radii = np.abs(grid.points)
        assert {flag for flag, r in zip(grid.flags, radii) if r == radii.max()} == {
            FLAG_UNDER_RESOLVED}
        assert grid.flags[0] == FLAG_ORIGIN
        assert points.flags == [FLAG_UNDER_RESOLVED, FLAG_NONE, FLAG_ORIGIN]

    def test_nothing_under_resolved_at_alpha_zero(self, tmp_path):
        # The same fields at alpha = 0 are exact for the samples: no row is flagged.
        boundary, grid_csv, points_csv = (str(tmp_path / name)
                                          for name in ("phase.csv", "grid.csv", "points.csv"))
        assert main(["example", "--id", "4.2", "--export", boundary,
                     "--output", str(tmp_path / "example.json")]) == 0
        argv = ["eval", "--alpha", "0", "--boundary", boundary, "--field"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", kernel.ResolutionWarning)
            assert main(argv + ["--grid", "--output", grid_csv]) == 0
            assert main(argv + ["--point", "0.999,1", "--point", "0.5,1", "--point", "0,3",
                                "--output", points_csv]) == 0
        grid, points = read_deriv_csv(grid_csv), read_deriv_csv(points_csv)
        assert grid.flags[0] == FLAG_ORIGIN and set(grid.flags[1:]) == {FLAG_NONE}
        assert points.flags == [FLAG_NONE, FLAG_NONE, FLAG_ORIGIN]

    def test_constant_is_one_at_alpha_zero(self, capsys, tmp_path):
        # F = 1 at 256 samples: the Poisson kernel's modes reproduce it exactly at r = 1 - 1/N,
        # where the trapezoid's aliases read 2.16, and its Hardy norm converges to 1.
        path = tmp_path / "one.csv"
        path.write_text("theta,re,im\n" + "".join(f"{2.0 * math.pi * j / 256!r},1.0,0.0\n"
                                                  for j in range(256)))
        base = ["--alpha", "0", "--boundary", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", kernel.ResolutionWarning)
            code, out, err = run_cli(capsys, ["eval", *base, "--point", "0.99609375,0"])
            assert (code, err) == (0, "")
            assert json.loads(out)["values"] == [
                {"im": 0.0, "r": 0.99609375, "re": 1.0, "theta": 0.0}]
            code, out, err = run_cli(capsys, ["norm", *base, "--p", "2", "--quantity", "f",
                                              "--kind", "hardy", "--r-max", "0.996",
                                              "--cutoffs", "0.9,0.99,0.996"])
            assert (code, err) == (0, "")
            data = json.loads(out)
            assert data["values"] == [1.0, 1.0, 1.0] and data["status"] == "converged"

    def test_origin_prints_r_and_theta_zero_on_both_paths(self, capsys, monomial_csv):
        # --point 0,3 is the origin, whatever its angle
        argv = ["eval", "--alpha", "-0.5", "--boundary", monomial_csv, "--point", "0,3"]
        for extra in (["--format", "csv"], ["--field"]):
            code, out, _ = run_cli(capsys, argv + extra)
            assert code == 0
            row = next(csv.DictReader(io.StringIO(out)))
            assert (row["r"], row["theta"]) == ("0.0", "0.0")

    def test_field_rejects_json_format(self, capsys, monomial_csv):
        code, _, err = run_cli(
            capsys,
            ["eval", "--alpha", "-0.5", "--boundary", monomial_csv,
             "--grid", "--field", "--format", "json"],
        )
        assert code == 2
        assert "CSV only" in err

    def test_grid_strides_by_the_csv_sample_count(self, capsys, tmp_path):
        # No --nodes: the 8192-sample CSV is swept at 8192 nodes, and each row
        # must hold the value at the angle it is labelled with.
        path = tmp_path / "phase8192.csv"
        assert main(["example", "--id", "4.2", "--samples", "8192", "--export", str(path),
                     "--output", str(tmp_path / "ignore.json")]) == 0
        code, out, _ = run_cli(
            capsys,
            ["eval", "--alpha", "-0.5", "--boundary", str(path), "--grid",
             "--grid-thetas", "16", "--r-max", "0.9"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["nodes"] == 8192
        F = read_boundary_csv(str(path))
        q = QuadSpec(r_max=0.9)
        sweeps = {float(r): circle_poisson_values(-0.5, F, float(r), q) for r in q.radial_grid}
        assert len(data["values"]) == 16 * len(sweeps)
        for row in data["values"]:
            j = round(row["theta"] * 8192 / (2.0 * math.pi))
            assert F.thetas[j] == pytest.approx(row["theta"], abs=1e-12)
            want = sweeps[row["r"]][j]
            assert abs(complex(row["re"], row["im"]) - want) < 1e-12

    def test_grid_csv_bytes_equal_csv_writer(self, capsys, monomial_csv):
        # 64 radii at 64 angles: 4096 rows, two of the writer's row blocks
        code, out, _ = run_cli(
            capsys,
            ["eval", "--alpha", "-0.5", "--boundary", monomial_csv, "--grid",
             "--grid-thetas", "64", "--r-max", "0.9", "--format", "csv"],
        )
        assert code == 0
        F = read_boundary_csv(monomial_csv)
        q = QuadSpec(r_max=0.9)
        vals = np.concatenate([circle_poisson_values(-0.5, F, float(r), q)[::32]
                               for r in q.radial_grid])
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["r", "theta", "re", "im"])
        writer.writerows(zip(np.repeat(q.radial_grid, 64).tolist(),
                             np.tile(kernel._uniform_thetas(64), len(q.radial_grid)).tolist(),
                             vals.real.tolist(), vals.imag.tolist()))
        assert len(q.radial_grid) * 64 > kernel._CSV_BLOCK
        assert out == buf.getvalue()

    @pytest.mark.parametrize("table", ["--field", "csv"])
    def test_grid_tables_write_the_same_bytes_to_stdout_and_output(self, capsys, monomial_csv,
                                                                    tmp_path, table):
        argv = ["eval", "--alpha", "-0.5", "--boundary", monomial_csv, "--grid",
                "--grid-thetas", "64", "--r-max", "0.9"]
        argv += ["--field"] if table == "--field" else ["--format", "csv"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        path = tmp_path / "table.csv"
        assert run_cli(capsys, argv + ["--output", str(path)])[:2] == (0, "")
        F = read_boundary_csv(monomial_csv)
        q = QuadSpec(r_max=0.9)
        want = tmp_path / "want.csv"
        if table == "--field":
            write_deriv_csv(str(want), deriv_field(-0.5, F, q, n_thetas=64))
        else:
            vals = np.concatenate([circle_poisson_values(-0.5, F, float(r), q)[::32]
                                   for r in q.radial_grid])
            with open(want, "w", newline="") as fh:
                kernel._write_csv(fh, ("r", "theta", "re", "im"), (
                    np.repeat(q.radial_grid, 64),
                    np.tile(kernel._uniform_thetas(64), len(q.radial_grid)),
                    vals.real, vals.imag))
        assert out.encode() == path.read_bytes() == want.read_bytes()

    def test_grid_thetas_checked_against_csv_not_nodes(self, capsys, monomial_csv):
        code, _, err = run_cli(
            capsys,
            ["eval", "--alpha", "-0.5", "--boundary", monomial_csv,
             "--grid", "--grid-thetas", "4096"],
        )
        assert code == 2
        assert "divide" in err

    def test_grid_thetas_must_divide(self, capsys, monomial_csv):
        code, _, err = run_cli(
            capsys,
            ["eval", "--alpha", "-0.5", "--boundary", monomial_csv,
             "--grid", "--grid-thetas", "100"],
        )
        assert code == 2
        assert "divide" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["eval", "--alpha", "-0.5", "--boundary", "/nonexistent.csv",
             "--point", "0.5,0.7"],
        )
        assert code == 2
        assert err.startswith("error:")


class TestInputContract:
    """Bad input exits 2 with an `error:` line, never a traceback."""

    def refused(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err
        return err

    def test_short_csv_row_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("theta,re,im\n0.0,1.0,0.0\n0.1,1.0\n")
        err = self.refused(capsys, ["eval", "--alpha", "-0.5", "--boundary", str(path),
                                    "--point", "0.5,0"])
        assert "line 3" in err

    def test_nan_sample_refused(self, capsys, tmp_path):
        thetas = 2.0 * np.pi * np.arange(32) / 32
        values = ["nan" if j == 5 else "1.0" for j in range(32)]
        path = tmp_path / "nan.csv"
        path.write_text("theta,re,im\n" + "".join(
            f"{float(t)!r},{v},0.0\n" for t, v in zip(thetas, values)))
        err = self.refused(capsys, ["eval", "--alpha", "-0.5", "--boundary", str(path),
                                    "--point", "0.5,0"])
        assert "finite" in err

    @pytest.mark.parametrize("field", [False, True])
    def test_nan_theta_refused(self, capsys, tmp_path, field):
        # NaN compares false with everything, so it must fail the grid check, not pass it.
        path = tmp_path / "b.csv"
        assert main(["example", "--id", "4.2", "--samples", "16", "--export", str(path)]) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        lines[4] = "nan," + lines[4].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        argv = ["eval", "--alpha", "0", "--boundary", str(path), "--point", "0.3,1"]
        err = self.refused(capsys, argv + ["--field"] if field else argv)
        assert str(path) in err and "uniform" in err

    def test_directory_as_boundary(self, capsys, tmp_path):
        self.refused(capsys, ["eval", "--alpha", "-0.5", "--boundary", str(tmp_path),
                              "--point", "0.5,0"])

    def test_arithmetic_overflow(self, capsys):
        self.refused(capsys, ["example", "--id", "4.1", "--n", "200"])


class TestNamedRefusals:
    def test_non_numeric_csv_field_names_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "reprs.csv"
        path.write_text("theta,re,im\n0.0,1.0,0.0\nnp.float64(0.1),1.0,0.0\n")
        code, out, err = run_cli(capsys, ["eval", "--alpha", "-0.5", "--boundary", str(path),
                                          "--point", "0.5,0"])
        assert (code, out) == (2, "")
        assert err == (f"error: {path}, line 3: theta,re,im must be real numbers, "
                       "got ['np.float64(0.1)', '1.0', '0.0']\n")

    def test_csv_past_the_sample_cap_is_refused_while_read(self, capsys, tmp_path):
        # A uniform grid of 2^17 + 2 samples, valid but for its length: it is
        # refused at its first row past the cap, holding only packed samples.
        n = _ANGULAR_CAP + 2
        path = tmp_path / "long.csv"
        thetas = 2.0 * np.pi * np.arange(n) / n
        path.write_text("theta,re,im\n" + "".join(f"{float(t)!r},1.0,0.0\n" for t in thetas))
        tracemalloc.start()
        try:
            code = main(["eval", "--alpha", "-0.5", "--boundary", str(path), "--point", "0.5,0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == (f"error: {path}, line {_ANGULAR_CAP + 2}: more than {_ANGULAR_CAP} "
                       "samples (the angular node cap)\n")
        assert peak < 6 << 20  # 24 bytes a row: 3 MiB of packed samples

    def test_gamma_past_142_is_evaluated(self, capsys):
        # Gamma(151) is finite; the boundary constant is
        # Gamma(151) Gamma(1/2) / (Gamma(150.75) Gamma(3/4)), 5.06506751299466 by mpmath.
        code, out, _ = run_cli(capsys, ["example", "--id", "4.1", "--n", "150"])
        assert code == 0
        assert json.loads(out)["facts"]["boundary_constant"] == pytest.approx(
            5.06506751299466, rel=1e-12)

    def test_gamma_overflow_names_gamma_and_x(self, capsys):
        code, out, err = run_cli(capsys, ["example", "--id", "4.1", "--n", "200"])
        assert (code, out) == (2, "")
        assert err == "error: Gamma(x) overflows at x=201.0; this evaluation holds for x <= 171\n"


    @pytest.mark.parametrize("argv,message", [
        (["eval", "--alpha", "inf", "--point", "0.5,1"], "alpha must be finite, got inf"),
        (["regime", "--alpha", "inf", "--p", "2"], "alpha must be finite, got inf"),
        (["eval", "--alpha", "200", "--point", "0.5,1"],
         "c_alpha overflows at alpha=200.0: Gamma(1+alpha/2)^2 exceeds the double range"),
        (["eval", "--alpha", "0", "--point", "0.5,inf"],
         "each --point must have a finite r and theta, got '0.5,inf'"),
    ], ids=["eval-alpha-inf", "regime-alpha-inf", "eval-alpha-200", "eval-point-inf"])
    def test_non_finite_or_overflowing_numbers(self, capsys, tmp_path, argv, message):
        if argv[0] == "eval":
            path = tmp_path / "b.csv"
            kernel.write_boundary_csv(str(path), HypMonomial(-0.5, 1).boundary(16))
            argv = argv + ["--boundary", str(path)]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


NORM_41 = ["norm", "--alpha", "-0.5", "--p", "2", "--example", "4.1"]


class TestArgumentChecks:
    """Arguments are refused before any boundary is built or array allocated."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused argument reached a subcommand")

        for name in ("_load_boundary", "_build_example", "read_boundary_csv",
                     "_inequality_records", "_oracle_records"):
            monkeypatch.setattr(cli, name, refuse)

    def refused(self, capsys, argv):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert peak < 1 << 20  # one 2^17-node complex array alone takes 2 MiB
        return err

    @pytest.mark.parametrize("cutoffs,r_max", [
        ("0.9,0.99,0.9995", "0.999"),   # the last cutoff is past r-max
        ("0.9,0.99,0.999", "0.99"),
        ("0.999,0.99,0.9", "0.999"),    # not increasing
        ("0.9,0.9,0.99", "0.999"),
        ("0.0,0.5,0.9", "0.999"),       # not positive
    ])
    def test_cutoffs_increasing_up_to_r_max(self, capsys, cutoffs, r_max):
        err = self.refused(capsys, NORM_41 + ["--cutoffs", cutoffs, "--r-max", r_max])
        assert err == (f"error: cutoffs must be strictly increasing in (0, r-max = {r_max}], "
                       f"got {cutoffs!r}\n")

    @pytest.mark.parametrize("r_max", ["0.5", "0.99"])
    def test_no_default_cutoffs_below_r_max_0_99(self, capsys, r_max):
        # Without --cutoffs they are 1 - 100w, 1 - 10w, r-max (w = 1 - r-max): the first is
        # not positive here (-8.9e-16 at 0.99), so the refusal asks for --cutoffs.
        err = self.refused(capsys, NORM_41 + ["--r-max", r_max])
        assert err.startswith(f"error: r-max = {r_max} leaves no default cutoffs ")
        assert err.endswith("; give them with --cutoffs\n")

    @pytest.mark.parametrize("argv,name", [
        (NORM_41 + ["--nodes", str((1 << 17) + 2)], "nodes"),
        (NORM_41 + ["--samples", str(1 << 40)], "samples"),
        (["report", "--nodes", str(1 << 18)], "nodes"),
        (["example", "--id", "4.2", "--samples", str((1 << 17) + 2)], "samples"),
        (["verify", "--nodes", str(1 << 62)], "nodes"),
    ])
    def test_node_and_sample_caps(self, capsys, argv, name):
        err = self.refused(capsys, argv)
        assert err.startswith(f"error: {name} must be at most {_ANGULAR_CAP}, got ")

    def test_threads_only_where_read_and_eval_takes_no_nodes(self, capsys):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        options = {name: {opt for act in sp._actions for opt in act.option_strings}
                   for name, sp in sub.choices.items()}
        assert not any("--threads" in opts for opts in options.values())
        assert "--nodes" not in options["eval"] and "--r-max" in options["eval"]
        threads = ["--threads", "1"]
        for argv in (["eval", "--alpha", "0", "--boundary", "b.csv", "--grid"] + threads,
                     NORM_41 + threads, ["regime", "--alpha", "0.5", "--p", "2"] + threads,
                     ["verify"] + threads, ["example", "--id", "4.1"] + threads,
                     ["report"] + threads,
                     ["eval", "--alpha", "0", "--boundary", "b.csv", "--grid", "--nodes", "2048"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["example", "--id", "4.1", "--alpha", "-5"], "alpha must exceed -1, got -5.0"),
        (["example", "--id", "hyp-monomial", "--alpha", "0.5"],
         "hyp-monomial needs alpha in (-1, 0), got 0.5"),
        (["example", "--id", "4.1", "--n", "0"], "hyp-monomial needs n >= 1, got 0"),
        (["example", "--id", "4.3", "--n-trunc", "1"], "n-trunc must be >= 2, got 1"),
        (["example", "--id", "4.4"], "unknown example id '4.4'"),
        (NORM_41 + ["--alpha", "0.5"], "hyp-monomial needs alpha in (-1, 0), got 0.5"),
        (["norm", "--alpha", "0", "--p", "2", "--example", "log-series", "--n-trunc", "1"],
         "n-trunc must be >= 2, got 1"),
        (NORM_41 + ["--boundary", "b.csv"], "--boundary and --example are mutually exclusive"),
        (["norm", "--alpha", "0", "--p", "2"], "a boundary source is required"),
        (["example", "--id", "4.3", "--n-trunc", "10000000000000"],
         "n-trunc must be at most 2000000, got 10000000000000"),
    ])
    def test_example_options_checked_where_read(self, capsys, argv, message):
        assert self.refused(capsys, argv).startswith(f"error: {message}")

    @pytest.mark.parametrize("command", ["report", "verify"])
    def test_negative_seed(self, capsys, command):
        assert self.refused(capsys, [command, "--seed", "-1"]) == "error: seed must be >= 0, got -1\n"

    def test_caps_admit_the_largest_counts_in_use(self):
        for nodes in ("81920", str(_ANGULAR_CAP)):
            ns = cli.build_parser().parse_args(NORM_41 + ["--nodes", nodes, "--samples", nodes])
            cli._check_args(ns)
            assert ns.nodes == ns.samples == int(nodes)


@pytest.mark.parametrize("argv", [
    ["norm", "--alpha", "0", "--p", "2", "--samples", "17"],
    ["norm", "--alpha", "0", "--p", "2", "--n-trunc", "1"],
    ["norm", "--alpha", "0", "--p", "2", "--n", "0"],
    ["example", "--id", "4.2", "--alpha", "-5"],
    ["example", "--id", "piecewise-phase", "--n-trunc", "1"],
    ["example", "--id", "4.3", "--alpha", "-5"],
    ["example", "--id", "4.1", "--n-trunc", "1"],
])
def test_options_the_command_ignores_are_not_checked(capsys, monomial_csv, argv):
    # --boundary reads no example option, and each example only its own.
    if argv[0] == "norm":
        argv = argv + ["--boundary", monomial_csv, "--r-max", "0.9", "--cutoffs", "0.5,0.7,0.9"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("{")


class TestNorm:
    def test_probe_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["norm", "--alpha", "-0.5", "--p", "1", "--quantity", "dr",
             "--kind", "hardy", "--example", "4.1"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["quantity"] == "dr"
        assert data["alpha"] == -0.5
        assert data["p"] == 1.0
        assert data["kind"] == "hardy"
        assert data["boundary"] == "hyp-monomial"
        assert data["cutoffs"] == [0.9, 0.99, 0.999]
        assert len(data["values"]) == 3
        assert data["diverging"] is True
        assert data["status"] == "diverging"
        assert data["exponent"] == pytest.approx(-0.5, abs=0.05)

    def test_report_json_is_the_cli_row(self, capsys, monomial_csv):
        # p = inf is written "inf", as strict JSON has no Infinity, by one encoder.
        code, out, _ = run_cli(capsys, ["norm", "--alpha", "0", "--p", "inf", "--quantity",
                                        "dr", "--kind", "hardy", "--boundary", monomial_csv])
        assert code == 0
        F = read_boundary_csv(monomial_csv)
        rep = divergence_probe(KernelQuantity(0.0, F, "dr"), math.inf, (0.9, 0.99, 0.999),
                               "hardy", QuadSpec(), "dr", 0.0)

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")
        data = json.loads(rep.to_json(), parse_constant=refuse)
        assert data["p"] == "inf"
        assert dict(data, kind="hardy", boundary="boundary.csv") == json.loads(out)

    def test_default_cutoffs_follow_r_max(self, capsys):
        # Without --cutoffs and below r-max = 0.999 they are the nested 1 - 100w, 1 - 10w,
        # r-max (w = 1 - r-max) that a norm's status probes; at the default r-max they stay
        # 0.9, 0.99, 0.999 (test_probe_json_schema).
        code, out, err = run_cli(capsys, ["norm", "--example", "4.3", "--alpha", "0", "--p",
                                          "2", "--quantity", "f", "--kind", "hardy",
                                          "--r-max", "0.996"])
        assert (code, err) == (0, "")
        w = 1.0 - 0.996
        assert json.loads(out)["cutoffs"] == [1.0 - 100.0 * w, 1.0 - 10.0 * w, 0.996]

    @pytest.mark.xfail(strict=True, reason=(
        "the trapezoid kernel sweep at the default nodes is off by 0.21 at r = 0.999; "
        "the exact multiplier path of ROADMAP item 1 makes this pass"))
    def test_hardy_norm_of_f_matches_the_closed_form(self, capsys):
        # f of example 4.1 has constant modulus on each circle, so its Hardy
        # mean there is |f(r)| itself.
        code, out, _ = run_cli(
            capsys,
            ["norm", "--alpha", "-0.5", "--p", "2", "--quantity", "f",
             "--kind", "hardy", "--example", "4.1"],
        )
        assert code == 0
        data = json.loads(out)
        m = HypMonomial(-0.5, 1)
        want = [abs(m.value(r)) for r in data["cutoffs"]]
        assert data["values"] == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("kind", ["hardy", "bergman"])
    def test_large_p_means_do_not_overflow(self, capsys, kind):
        # |f|^2000 overflows past |f| = 1.43; those circles used to be dropped,
        # which froze the values at 1.4162 and read "converged".
        code, out, _ = run_cli(
            capsys,
            ["norm", "--alpha", "-0.5", "--p", "2000", "--quantity", "f",
             "--kind", kind, "--example", "4.1"],
        )
        assert code == 0
        data = json.loads(out)
        v = data["values"]
        assert all(math.isfinite(x) for x in v)
        assert v[0] < v[1] < v[2]
        assert data["status"] != "converged"

    def test_boundary_and_example_exclusive(self, capsys, monomial_csv):
        code, _, err = run_cli(
            capsys,
            ["norm", "--alpha", "-0.5", "--p", "1", "--example", "4.1",
             "--boundary", monomial_csv],
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_source_required(self, capsys):
        code, _, err = run_cli(capsys, ["norm", "--alpha", "-0.5", "--p", "1"])
        assert code == 2
        assert "boundary source" in err

    def test_cutoffs_validated(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["norm", "--alpha", "-0.5", "--p", "1", "--example", "4.1",
             "--cutoffs", "0.5,0.9"],
        )
        assert code == 2
        assert "at least 3" in err
        code, _, err = run_cli(
            capsys,
            ["norm", "--alpha", "-0.5", "--p", "1", "--example", "4.1",
             "--cutoffs", "a,b,c"],
        )
        assert code == 2
        assert "comma-separated" in err


class TestVerify:
    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "oracle"])
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "oracle"
        assert data["all_hold"] is True
        assert data["n_records"] == 26
        checks = {rec["check"] for rec in data["records"]}
        assert checks == {
            "kernel_extension_oracle", "harmonic_power", "sine_moment_identity",
        }
        assert all(
            set(rec) == {"check", "params", "lhs", "rhs", "holds"}
            for rec in data["records"]
        )

    def test_one_kernel_spectrum_per_alpha_boundary_and_radius(self, monkeypatch):
        built = Counter()
        grid_kernels = []
        circle_spectra, grid_kernel = kernel._circle_spectra, kernel._grid_kernel

        def counting(a, F, r, q, quantities):
            built[(float(getattr(a, "alpha", a)), id(F), r)] += 1
            return circle_spectra(a, F, r, q, quantities)

        def counting_grid_kernel(*args):
            grid_kernels.append(args)
            return grid_kernel(*args)

        for module in (kernel, regimes):
            monkeypatch.setattr(module, "_circle_spectra", counting)
        monkeypatch.setattr(kernel, "_grid_kernel", counting_grid_kernel)
        q = QuadSpec(angular_nodes=64, r_max=0.99, radial_grid=radial_grid(0.99, 6))
        records = cli._inequality_records(q)
        # One circle-operator call per (alpha, boundary, radius), so one grid kernel for each
        # at alpha != 0 (whose f sweep for J1 reads it at r = 0 too) and none at alpha = 0,
        # where the multipliers are closed forms.
        assert sum(built.values()) == 3 * 3 * len(q.radial_grid)
        assert set(built.values()) == {1}
        assert len(grid_kernels) == sum(v for key, v in built.items() if key[0] != 0.0)
        assert all(args[0].alpha != 0.0 for args in grid_kernels)
        # The one pass gives the records of the separate checks, in their order.
        want = certification_grid(q)
        for label, F in cli._bundled_boundaries(q.angular_nodes):
            for alpha in (-0.5, 0.0, 1.0):
                want += [check_angular_derivative_bound(alpha, F, p, q, label=label)
                         for p in (1.0, 2.0, 4.0)]
                want.append(check_scaled_kernel_bound(alpha, F, q, label=label))
        assert records == want

    @pytest.mark.parametrize("nodes", ["256", "1024"])
    def test_inequalities_hold_at_coarse_node_counts(self, capsys, nodes):
        # The kernel-mean and distance-integral sums double their nodes until r is resolved.
        code, out, _ = run_cli(capsys, ["verify", "--suite", "inequalities", "--nodes", nodes])
        assert code == 0
        assert json.loads(out)["all_hold"] is True

    def test_seed_changes_oracle_points(self, capsys):
        _, out0, _ = run_cli(capsys, ["verify", "--suite", "oracle", "--seed", "0"])
        _, out7, _ = run_cli(capsys, ["verify", "--suite", "oracle", "--seed", "7"])
        assert out0 != out7
        assert json.loads(out7)["all_hold"] is True


class TestReport:
    def test_ellipticity_oracles_are_circle_sums(self, monkeypatch):
        # The report's phase and log-series circles come from FFT circle
        # sums, never from the pointwise power-series loops.
        def refuse(*args, **kwargs):
            raise AssertionError("pointwise series loop called")

        monkeypatch.setattr(mappings, "phase_wirtinger", refuse)
        monkeypatch.setattr(mappings, "log_series_derivs", refuse)
        verdicts = {row["example"]: row["report"]["verdict"]
                    for row in cli._ellipticity_summaries((1.0, 10.0, 100.0))}
        assert verdicts == {"hyp-monomial": "non_elliptic_trend",
                            "piecewise-phase": "elliptic_candidate",
                            "log-series": "non_elliptic_trend",
                            "identity": "elliptic_candidate"}

    def test_hyp_monomial_min_kprime_matches_mpmath(self):
        # The report's hyp-monomial rows come from the closed form at the
        # default tolerance; rebuild each row from mpmath at the same points.
        mpmath = pytest.importorskip("mpmath")
        k_list = (1.0, 10.0, 100.0)
        radii = (1.0 - 1e-3, 1.0 - 1e-4, 1.0 - 1e-5, 1.0 - 1e-6)
        report = next(row["report"] for row in cli._ellipticity_summaries(k_list)
                      if row["example"] == "hyp-monomial")
        A = HypMonomial(-0.5, 1).a_coeff()
        circles = []
        with mpmath.workdps(40):
            for r in radii:
                pts = r * np.exp(1j * kernel._uniform_thetas(64))
                moduli = []
                for z, rz in zip(pts, np.abs(pts)):
                    x = float(rz) * float(rz)
                    e1 = A * mpmath.hyp2f1(1.25, 2.25, 3.0, x)
                    e2 = mpmath.hyp2f1(0.25, 1.25, 2.0, x)
                    zm = mpmath.mpc(z)
                    moduli.append((abs(e1 * mpmath.conj(zm) * zm + e2), abs(e1 * zm * zm)))
                circles.append(moduli)
            want = [max(0, max((dz + dzbar) ** 2 - K * (dz * dz - dzbar * dzbar)
                               for circle in circles[:k + 1] for dz, dzbar in circle))
                    for K in k_list for k in range(len(radii))]
        got = [row["min_kprime"] for row in report["rows"]]
        assert got == pytest.approx([float(w) for w in want], rel=1e-10)

    def test_divergence_rows_equal_their_probes(self):
        q = QuadSpec()
        m = HypMonomial(-0.5, 1)
        picks = {"dz": 0, "dzbar": 1, "dr": 2}
        rows = cli._divergence_summaries(q)
        assert [(row["quantity"], row["kind"], row["p"]) for row in rows] == list(
            cli._DIVERGENCE_ROWS)
        for row, (quantity, kind, p) in zip(rows, cli._DIVERGENCE_ROWS):
            rep = divergence_probe(lambda z, i=picks[quantity]: m.derivs(z)[i], p,
                                   (0.9, 0.99, 0.999), kind, q, quantity, -0.5)
            assert row == dict(json.loads(rep.to_json()), kind=kind)

    def test_divergence_rows_evaluate_each_circle_once(self, monkeypatch):
        derivs = HypMonomial.derivs
        calls = Counter()

        def counted(self, z, *args, **kwargs):
            calls[float(np.abs(np.asarray(z)).flat[0])] += 1
            return derivs(self, z, *args, **kwargs)

        monkeypatch.setattr(HypMonomial, "derivs", counted)
        q = QuadSpec()
        cli._divergence_summaries(q)
        eval_radii = {float(r) for r in q.radial_grid if r <= 0.999} | {0.9, 0.99, 0.999}
        # one call per radius (the first point of each circle lies at theta = 0)
        assert len(eval_radii) == 65
        assert sorted(calls) == sorted(eval_radii)
        assert set(calls.values()) == {1}

    def test_bundle_smoke(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["report", "--output", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert set(data) >= {"certifications", "regimes", "divergence", "ellipticity"}
        cert = data["certifications"]
        assert cert["all_hold"] is True
        assert cert["failures"] == []
        assert cert["n_records"] == 129  # perfbench's REPORT_RECORDS: report checks this count
        labels = {row["example"]: row["report"]["verdict"]
                  for row in data["ellipticity"]}
        assert labels["identity"] == "elliptic_candidate"
        assert labels["log-series"] == "non_elliptic_trend"
        assert labels["hyp-monomial"] == "non_elliptic_trend"
        probe = data["divergence"][0]
        assert {"quantity", "p", "cutoffs", "values", "status", "kind"} <= set(probe)
