"""CLI front end: parsing, schemas, round trips, exit codes, determinism."""

import collections
import contextlib
import csv
import inspect
import io
import json
import math
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxbound import ab_spectrum as ab
from fluxbound import ac_spectrum as ac
from fluxbound import cli
from fluxbound import numkernel as nk
from fluxbound import printed as pr

import routes

E_GOLDEN = -0.56600199969254444


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "fluxbound", *args],
        capture_output=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParseArgs:
    def test_ab_solve_spec(self):
        spec = cli.parse_args(["ab-solve", "--l", "0", "--s", "-1", "--mu", "0.5", "--xi", "-1"])
        assert spec.command == "ab-solve"
        assert spec.params["mu"] == 0.5
        assert spec.fmt == "csv"

    def test_xi_theta_mutually_exclusive(self):
        with pytest.raises(cli.UsageError):
            cli.parse_args(["ab-solve", "--mu", "0.25", "--xi", "-1", "--theta", "3.14"])

    def test_extension_required(self):
        with pytest.raises(cli.UsageError):
            cli.parse_args(["ab-solve", "--mu", "0.25"])

    def test_gamma_grid_points(self):
        spec = cli.parse_args(["ac-sweep", "--gamma-grid", "0.1:0.9:17", "--xi", "-1"])
        assert spec.params["gamma_grid"] == (0.1, 0.9, 17)

    def test_grid_validation(self):
        with pytest.raises(cli.UsageError):
            cli._parse_grid("0.5:0.1:9")
        with pytest.raises(cli.UsageError):
            cli._parse_grid("0.1:0.9:1")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 0.3   # flux\nxi = -2.0\n")
        spec = cli.parse_args(["ab-solve", "--config", str(cfg), "--xi", "-1"])
        assert spec.params["mu"] == 0.3  # from file
        assert spec.params["xi"] == -1.0  # flag wins

    def test_config_file_skips_keys_without_a_flag(self, tmp_path):
        # r_min named the oracle's old inner cutoff; like any key without a
        # flag it is skipped, where the --r-min flag is a usage error
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r_min = 0.1\nbogus = 3\n")
        spec = cli.parse_args(["oracle-check", "--config", str(cfg), "--mu", "0.25", "--xi", "-1"])
        assert "r_min" not in spec.params and "bogus" not in spec.params

    def test_config_skips_keys_the_command_does_not_read(self, tmp_path):
        # ab-sweep reads no --mu and ac-sweep no channel flag, so their keys
        # are skipped like any other key without a flag, bad values and all
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = abc\n")
        spec = cli.parse_args(["ab-sweep", "--config", str(cfg), "--beta-grid", "0.1:0.9:3", "--xi", "-1"])
        assert "mu" not in spec.params
        cfg.write_text("l = 1.5\nzeta = 2\ncoupling = x\ngamma = 0.3\n")
        spec = cli.parse_args(["ac-sweep", "--config", str(cfg), "--gamma-grid", "0.1:0.9:3", "--xi", "-1"])
        assert spec.params.keys().isdisjoint({"l", "zeta", "coupling", "gamma"})

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("l", "abc"),
            ("mass", "heavy"),
            ("l", "1.5"),
            ("mu", "abc"),
            ("format", "xml"),
            ("level_eq", "bogus"),
            ("s", "3"),
        ],
    )
    def test_config_value_of_wrong_type(self, tmp_path, key, raw):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        with pytest.raises(cli.UsageError) as info:
            cli.parse_args(["ab-solve", "--config", str(cfg), "--xi", "-1"])
        assert key in str(info.value)
        assert str(cfg) in str(info.value)

    def test_config_value_outside_choices(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sector = zz\n")
        with pytest.raises(cli.UsageError) as info:
            cli.parse_args(["oracle-check", "--config", str(cfg), "--mu", "0.25", "--xi", "-1"])
        assert "sector" in str(info.value)
        assert str(cfg) in str(info.value)

    @pytest.mark.parametrize(
        "mass, ok",
        [("1.5e-154", True), ("1e153", True), ("0", False), ("-1", False), ("nan", False),
         ("inf", False), ("1.4e-154", False), ("2e154", False)],
    )
    def test_mass_needs_finite_normal_square(self, mass, ok):
        argv = ["ac-solve", "--gamma", "0.5", "--xi", "-1", "--mass", mass]
        if ok:
            assert cli.parse_args(argv).params["mass"] == float(mass)
        else:
            with pytest.raises(cli.UsageError, match="--mass"):
                cli.parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ab-solve", "--mu", "0.25", "--xi", "-1e-3"],
            ["ab-solve", "--mu", "0.25", "--xi", "-1e-300"],
            ["ab-solve", "--mu", "-.25", "--s", "-1", "--xi", "-1"],
            ["ab-sweep", "--beta-grid", "-1.5:1.5:61", "--xi", "-1"],
            ["ab-density", "--mu", "0.25", "--xi", "-1", "--energy-grid", "-5:-1.001:100"],
            ["ab-solve", "--mu", "0.25", "--xi", "-inf"],
            ["ab-solve", "--mu", "0.25", "--xi", "-Infinity"],
        ],
    )
    def test_negative_value_after_space(self, argv):
        joined = [f"{a}={b}" for a, b in zip(argv[1::2], argv[2::2])]
        assert cli.parse_args(argv) == cli.parse_args(argv[:1] + joined)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ab-solve", "--mu", "0.25", "--xi", "-1", "--bogus", "3"],
            ["ab-solve", "--mu", "0.25", "--xi", "-1", "--s", "3"],
            ["ab-solve", "--mu", "abc", "--xi", "-1"],
            ["ab-sweep", "--xi", "-1"],
            ["no-such-command", "--xi", "-1"],
            [],
            ["ab-solve", "--xi", "-1"],
            ["ab-sweep", "--xi", "-1", "--beta-grid", "0.9:0.1:5"],
            ["ac-solve", "--gamma", "0.5", "--xi", "-1", "--mass", "1e-200"],
            ["oracle-check", "--sector", "ac", "--gamma", "0.5", "--xi", "-1", "--r-min=0"],
            ["oracle-check", "--mu", "0.25", "--xi", "-1", "--r-min", "1e-6"],
            ["ab-solve", "--mu", "0.25", "--xi", "nan"],
            ["ab-solve", "--mu", "0.25", "--theta", "nan"],
            ["ab-solve", "--mu", "0.25", "--theta", "7"],
            ["ac-solve", "--gamma", "0.5", "--theta", "-0.1"],
            ["oracle-check", "--sector", "ac", "--gamma", "0.5", "--xi", "-1", "--resolution=0.1"],
            ["oracle-check", "--mu", "0.25", "--xi", "-1", "--resolution", "0.05"],
        ],
    )
    def test_one_json_usage_line(self, capsys, argv):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["kind"] == "usage"
        # the oracle has no step to set, so --resolution is an unknown flag
        if any(arg.startswith("--resolution") for arg in argv):
            assert "unrecognized arguments: --resolution" in report["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["ab-sweep", "--xi", "-1", "--beta-grid=-1.7e308:1.7e308:3"],
            ["ac-sweep", "--xi", "-1", "--gamma-grid=-1.7e308:1.7e308:3"],
            ["ab-wavefunction", "--mu", "0.25", "--xi", "-1", "--r-grid=-1.7e308:1.7e308:3"],
            ["ab-density", "--mu", "0.25", "--xi", "-1", "--energy-grid=-1.7e308:1.7e308:3"],
        ],
    )
    def test_grid_whose_width_overflows(self, capsys, argv):
        # finite bounds whose width hi - lo overflows: the grid itself is the
        # bad input, where linear_grid would make its first point nan
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = "grid width hi - lo overflows, got '-1.7e308:1.7e308:3'"
        assert err == json.dumps({"error": error, "kind": "usage"}) + "\n"

    @pytest.mark.parametrize(
        "flag, value", [("--xi", "nan"), ("--theta", "nan"), ("--theta", "7"), ("--theta", "-0.1")]
    )
    def test_bad_extension_named_by_its_flag(self, capsys, flag, value):
        assert cli.main(["ab-solve", "--mu", "0.25", flag, value]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["kind"] == "usage"
        assert report["error"].startswith(f"{flag}: ")

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["ab-solve", "--mu", "inf"], "--mu", "inf"),
            (["ab-wavefunction", "--r-grid", "1:2:2", "--mu", "-inf"], "--mu", "-inf"),
            (["ab-density", "--energy-grid", "1.1:2:2", "--mu", "nan"], "--mu", "nan"),
            (["oracle-check", "--mu", "nan"], "--mu", "nan"),
            (["ac-solve", "--gamma", "nan"], "--gamma", "nan"),
            (["oracle-check", "--sector", "ac", "--gamma", "inf"], "--gamma", "inf"),
            (["ac-solve", "--coupling", "-inf"], "--coupling", "-inf"),
        ],
    )
    def test_non_finite_channel_value_named_by_its_flag(self, capsys, argv, flag, value):
        assert cli.main([*argv, "--xi", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = f"{flag} must be finite, got {value}"
        assert err == json.dumps({"error": error, "kind": "usage"}) + "\n"

    @pytest.mark.parametrize("l", [2**53 + 1, -(2**53) - 1, 10**400])
    def test_l_beyond_the_exact_integers(self, capsys, l):
        # --l 2**53 still parses; 10**400 has no double at all
        assert cli.parse_args(["ab-solve", "--mu", "0.25", "--xi", "-1", "--l", str(2**53)])
        for argv in (["ab-solve", "--mu", "0.25"], ["ac-solve", "--coupling", "0.3"]):
            assert cli.main([*argv, "--xi", "-1", "--l", str(l)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            error = f"--l must lie in [-2**53, 2**53], got {l}"
            assert err == json.dumps({"error": error, "kind": "usage"}) + "\n"

    def test_grid_whose_points_overflow(self, capsys):
        # a finite width whose multiples overflow would put inf in the grid
        argv = ["ab-sweep", "--xi", "-1", "--beta-grid=0:8.98846567431158e307:4"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = "grid step product (hi - lo)*(n - 2) overflows, got '0:8.98846567431158e307:4'"
        assert err == json.dumps({"error": error, "kind": "usage"}) + "\n"
        assert cli._parse_grid("0:8.98846567431158e307:3") == (0.0, 8.98846567431158e307, 3)

    def test_radius_beyond_the_double_range(self, capsys):
        argv = ["ab-wavefunction", "--mu", "0.25", "--xi", "-1", "--r-grid", "1:1e308:2"]
        assert cli.main([*argv, "--mass", "1e-150"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = "--r-grid: the radius 1e+308/m overflows at --mass 1e-150"
        assert err == json.dumps({"error": error, "kind": "usage"}) + "\n"
        assert cli.main([*argv, "--mass", "1"]) == 0

    def test_grid_point_cap(self, capsys):
        assert cli._parse_grid("0.1:0.9:100000") == (0.1, 0.9, 100000)
        assert cli.main(["ac-sweep", "--xi", "-1", "--gamma-grid", "0.1:0.9:100001"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = "grid takes at most 100000 points, got 100001"
        assert err == json.dumps({"error": error, "kind": "usage"}) + "\n"

    @pytest.mark.parametrize("xi", ["-1", "1"])
    @pytest.mark.parametrize(
        "grid, error",
        [
            ("garbage", "grid must be 'lo:hi:n', got 'garbage'"),
            ("0.9:0.1:5", "grid bounds must be finite and increasing, got '0.9:0.1:5'"),
            ("0.1:0.9:1", "grid needs at least 2 points, got 1"),
            ("0.1:0.9:100001", "grid takes at most 100000 points, got 100001"),
        ],
        ids=["malformed", "decreasing", "one-point", "over-the-cap"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["ab-sweep", "--beta-grid"],
            ["ab-density", "--mu", "0.25", "--energy-grid"],
            ["ab-wavefunction", "--mu", "0.25", "--r-grid"],
            ["ac-sweep", "--gamma-grid"],
        ],
        ids=lambda command: command[0],
    )
    def test_bad_grid_at_either_sign_of_xi(self, capsys, command, grid, error, xi):
        # every grid is checked before a level is sought: at xi > 0 there is
        # no level, and ab-wavefunction used to print its header alone
        assert cli.main([*command, grid, "--xi", xi]) == 2
        assert capsys.readouterr() == ("", json.dumps({"error": error, "kind": "usage"}) + "\n")

    @pytest.mark.parametrize("xi", ["-1", "1", "-1e-300"])
    def test_radius_checked_before_the_level(self, capsys, xi):
        # without a level (xi = 1) or with one whose lambda underflows
        # (xi = -1e-300), the radius is still a usage error
        argv = ["ab-wavefunction", "--mu", "0.25", "--xi", xi, "--r-grid", "1:1e308:2"]
        assert cli.main([*argv, "--mass", "1e-150"]) == 2
        error = "--r-grid: the radius 1e+308/m overflows at --mass 1e-150"
        assert capsys.readouterr() == ("", json.dumps({"error": error, "kind": "usage"}) + "\n")

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["ab-sweep", "--beta-grid", "0.1:0.9:3", "--mu", "0.25"], "--mu 0.25"),
            (["ab-sweep", "--beta-grid", "0.1:0.9:3", "--mu", "inf"], "--mu inf"),
            (["ac-sweep", "--gamma-grid", "0.1:0.9:3", "--l", "3"], "--l 3"),
            (["ac-sweep", "--gamma-grid", "0.1:0.9:3", "--zeta", "-1"], "--zeta=-1"),
            (["ac-sweep", "--gamma-grid", "0.1:0.9:3", "--coupling", "7"], "--coupling 7"),
        ],
        ids=["ab-sweep-mu", "ab-sweep-mu-inf", "ac-sweep-l", "ac-sweep-zeta", "ac-sweep-coupling"],
    )
    def test_flag_the_command_does_not_read(self, capsys, argv, flags):
        # ab-sweep takes its flux from the grid, and ac-sweep its channel
        assert cli.main([*argv, "--xi", "-1"]) == 2
        error = f"fluxbound: unrecognized arguments: {flags}"
        assert capsys.readouterr() == ("", json.dumps({"error": error, "kind": "usage"}) + "\n")

    def test_gamma_on_ac_sweep_is_its_grid(self, capsys):
        # argparse expands a unique prefix of a flag, and ac-sweep declares
        # --gamma-grid but no --gamma; the last value given wins
        for argv in (["ac-sweep", "--gamma", "0.5"],
                     ["ac-sweep", "--gamma-grid", "0.1:0.9:3", "--gamma", "0.5"]):
            assert cli.main([*argv, "--xi", "-1"]) == 2
            error = "grid must be 'lo:hi:n', got '0.5'"
            assert capsys.readouterr() == ("", json.dumps({"error": error, "kind": "usage"}) + "\n")
        grid = main_in_process(["ac-sweep", "--gamma-grid", "0.1:0.9:3", "--xi", "-1"])
        assert grid[0] == 0
        assert main_in_process(["ac-sweep", "--gamma", "0.1:0.9:3", "--xi", "-1"]) == grid

    @pytest.mark.parametrize("argv", [["--help"], ["ab-solve", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert cli.main(argv) == 0
        assert "usage:" in capsys.readouterr().out


class TestEmitTable:
    def test_sweep_schema_columns(self):
        rows = [(1.0,) * len(cli._SWEEP_COLUMNS)]
        payload = cli.emit_table(rows, cli._SWEEP_COLUMNS, "csv").decode()
        header = payload.splitlines()[0]
        assert header == "beta,l,s,mu,nu,tau,xi,E_over_m,lambda_over_m,residual"

    def test_density_and_wavefunction_schemas(self):
        assert ",".join(cli._DENSITY_COLUMNS) == "E_over_m,density"
        assert ",".join(cli._WAVEFUNCTION_COLUMNS) == "r_times_m,f1,f2"

    def test_csv_round_trip_full_precision(self):
        rows = [(0.1 + 0.2, E_GOLDEN), (1.0 / 3.0, 2.0**-52)]
        payload = cli.emit_table(rows, ("x", "y"), "csv").decode()
        parsed = list(csv.DictReader(io.StringIO(payload)))
        for (x, y), row in zip(rows, parsed):
            assert float(row["x"]) == x
            assert float(row["y"]) == y

    def test_csv_matches_per_cell_formatting(self):
        # each cell is str(v) for an int or str and format(v, ".17g") for
        # anything else; column "b" changes type from row to row, so rows of
        # the same columns need different templates
        columns = ("a", "b", "c", "d")
        rows = [
            (3, 0.1, "x", math.nan),
            (True, 7, -0.0, math.inf),
            (-math.inf, "y", 5e-324, False),
            (3, 1e300, "x", -2),
            (3, 0.1, "x", 2.0**-1074 * 3),
        ]

        def cell(v):
            return str(v) if isinstance(v, (int, str)) else format(v, ".17g")

        want = "a,b,c,d\n" + "".join(",".join(map(cell, row)) + "\n" for row in rows)
        assert cli.emit_table(rows, columns, "csv").decode() == want

    def test_json_shape(self):
        payload = cli.emit_table([(1.5,), (2.5,)], ("a",), "json")
        data = json.loads(payload)
        assert data == [{"a": 1.5}, {"a": 2.5}]

    def test_json_writes_non_finite_cells_as_null(self):
        rows = [(0.5, math.nan, math.inf, -math.inf, 3, "x")]
        columns = ("a", "b", "c", "d", "e", "f")
        payload = cli.emit_table(rows, columns, "json")
        assert json.loads(payload, parse_constant=pytest.fail) == [
            {"a": 0.5, "b": None, "c": None, "d": None, "e": 3, "f": "x"}
        ]
        csv_row = cli.emit_table(rows, columns, "csv").decode().splitlines()[1]
        assert csv_row == "0.5,nan,inf,-inf,3,x"

    def test_newline_endings(self):
        payload = cli.emit_table([(1.0,)], ("a",), "csv")
        assert b"\r" not in payload
        assert payload.endswith(b"\n")


class TestRunCommands:
    def test_ab_solve_golden(self):
        code, out, _ = run_cli(["ab-solve", "--l", "0", "--s", "-1", "--mu", "0.25", "--xi", "-1"])
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out.decode())))
        assert float(row["E_over_m"]) == pytest.approx(E_GOLDEN, abs=1e-11)
        assert abs(float(row["residual"])) <= 1e-8

    def test_ab_sweep_curve_crosses_zero_at_half_flux(self):
        code, out, _ = run_cli(
            ["ab-sweep", "--beta-grid", "0.05:0.95:19", "--xi", "-1"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        es = {round(float(r["beta"]), 6): float(r["E_over_m"]) for r in rows}
        assert math.isnan(es[0.5])  # critical point: placeholder row
        assert es[0.05] < 0 < es[0.95]
        assert es[0.25] == pytest.approx(-es[0.75], abs=1e-10)
        finite = [(b, e) for b, e in sorted(es.items()) if not math.isnan(e)]
        assert all(e1 < e2 for (_, e1), (_, e2) in zip(finite, finite[1:]))

    def test_ac_solve_half_gamma(self):
        code, out, _ = run_cli(["ac-solve", "--gamma", "0.5", "--xi", "-1"])
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out.decode())))
        assert float(row["E_over_m"]) == pytest.approx(-0.5, abs=1e-12)

    def test_xi_is_printed_as_given(self, capsys):
        for xi in ("-1", "-1e15", "-1e-10", "0.3"):
            assert cli.main(["ab-solve", "--mu", "0.25", "--xi", xi]) == 0
            row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            assert float(row["xi"]) == float(xi)

    @pytest.mark.parametrize("xi", ["-1e-300", "-1e300"])
    def test_extreme_xi_has_a_level(self, capsys, xi):
        # E rounds to the continuum edge: to tau*m as xi -> 0^- and to
        # -tau*m as xi -> -inf (tau = +1 here)
        assert cli.main(["ab-solve", "--mu", "0.25", "--xi", xi]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(row["xi"]) == float(xi)
        assert abs(float(row["E_over_m"])) == pytest.approx(1.0, abs=1e-11)
        assert math.copysign(1.0, float(row["E_over_m"])) == (1.0 if xi == "-1e-300" else -1.0)

    def test_level_whose_lambda_underflows(self, capsys):
        # the true lambda is 1.75e-599 m: ab-solve prints 0, and there is no
        # decaying doublet to tabulate
        assert cli.main(["ab-solve", "--mu", "0.25", "--xi", "-1e-300"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(row["lambda_over_m"]) == 0.0
        argv = ["ab-wavefunction", "--mu", "0.25", "--xi", "-1e-300", "--r-grid", "0.1:5:5"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["kind"] == "domain"

    def test_ac_level_with_exact_xi(self, capsys):
        # -m/(2 xi^2) at gamma = 1/2, to the kernel's Gamma(1/2)/Gamma(3/2)
        assert cli.main(["ac-solve", "--gamma", "0.5", "--xi", "-1e-10"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(row["xi"]) == -1e-10
        assert float(row["E_over_m"]) == pytest.approx(-5e19, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ac-sweep", "--gamma-grid", "0.001:0.5:3", "--xi", "-0.001"],
            ["ac-solve", "--gamma", "0.5", "--xi", "-1e-300"],
            ["ac-solve", "--gamma", "0.5", "--xi", "-1e300"],
        ],
    )
    def test_ac_level_beyond_the_double_range(self, capsys, argv):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        report = json.loads(line)
        assert report["kind"] == "domain"
        assert "gamma=" in report["error"] and "xi=" in report["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["ab-solve"],
            ["ab-density", "--energy-grid", "1.1:2:2"],
            ["ab-wavefunction", "--r-grid", "1:2:2"],
            ["oracle-check"],
        ],
    )
    @pytest.mark.parametrize("mu", ["1e308", "-1.7976931348623157e308"])
    def test_critical_flux_where_twice_nu_overflows(self, capsys, argv, mu):
        # such a flux is an integer, so its channel is critical
        assert cli.main([*argv, "--mu", mu, "--xi", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        report = json.loads(line)
        assert report["kind"] == "domain" and "is critical" in report["error"]

    def test_sweep_rows_of_critical_fluxes_far_out(self, capsys):
        assert cli.main(["ab-sweep", "--xi", "-1", "--beta-grid=1e308:1.7e308:2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(row["mu"]) for row in rows] == [1e308, 1.7e308]
        for row in rows:
            assert row["tau"] == "0"
            level = (row[col] for col in ("E_over_m", "lambda_over_m", "residual"))
            assert all(math.isnan(float(v)) for v in level)

    def test_regular_channel_exits_2_with_reason(self):
        code, out, err = run_cli(["ab-solve", "--l", "1", "--s", "1", "--mu", "0.2", "--xi", "-1"])
        assert code == 2
        reason = json.loads(err.decode())
        assert reason["kind"] == "domain"
        assert out == b""

    def test_density_scan(self):
        code, out, _ = run_cli(
            ["ab-density", "--mu", "0.25", "--xi", "-1", "--energy-grid", "1.1:5:9"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        assert len(rows) == 9
        assert all(float(r["density"]) >= 0.0 for r in rows)

    def test_density_rows_scale_with_mass(self, capsys):
        # the density is 1/m times a function of E/m; forming (|E| - m)(|E| + m)
        # overflowed near the largest accepted mass
        def rows(mass):
            argv = ["ab-density", "--mu", "0.25", "--xi", "-1", "--energy-grid", "1.1:3:3"]
            assert cli.main(argv + ["--mass", mass]) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            return [[float(v) for v in line.split(",")] for line in lines]

        base = rows("1")
        assert len(base) == 3
        for mass in ("1.5e-154", "1e150", "1.3e154"):
            for got, want in zip(rows(mass), base, strict=True):
                assert got[0] == want[0]
                assert got[1] * float(mass) == pytest.approx(want[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("grid", ["2:1e200:3", "-1e200:-5e199:3", "-1e200:-2:3"])
    def test_density_beyond_the_overflow_of_k_squared(self, capsys, grid):
        # (e - 1)(e + 1) overflows for e above about 1.3e154, and these rows
        # exited 2 with "density must be finite"; the density falls as
        # |E|^-(1 + 2 nu) there, 2.69e-302 at |E| = 1e200.  The last grid
        # ends at E = -2m, not at the 0.0 that lo + (hi - lo) rounds to
        assert cli.main(["ab-density", "--mu", "0.25", "--xi", "-1", f"--energy-grid={grid}"]) == 0
        rows = {
            abs(float(e)): float(d)
            for e, d in (line.split(",") for line in capsys.readouterr().out.splitlines()[1:])
        }
        assert len(rows) == 3 and all(math.isfinite(d) and d > 0.0 for d in rows.values())
        assert rows[1e200] == pytest.approx(2.6896319582317064e-302, rel=1e-12)
        assert rows[1e200] / rows[5e199] == pytest.approx(2.0**-1.5, rel=1e-12)

    def test_density_continues_across_the_overflow_of_k_squared(self, capsys):
        # either side of e = 1.3e154, k is sqrt((e - 1)(e + 1)) and
        # sqrt(e - 1) sqrt(e + 1), and the density keeps its power law
        argv = ["ab-density", "--mu", "0.25", "--xi", "-1", "--energy-grid=1e154:2e154:2"]
        assert cli.main(argv) == 0
        (_, lo), (_, hi) = (
            map(float, line.split(",")) for line in capsys.readouterr().out.splitlines()[1:]
        )
        assert hi / lo == pytest.approx(2.0**-1.5, rel=1e-12)

    def test_wavefunction_table(self):
        code, out, _ = run_cli(
            ["ab-wavefunction", "--mu", "0.25", "--xi", "-1", "--r-grid", "0.1:5:7"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        assert len(rows) == 7
        assert set(rows[0]) == {"r_times_m", "f1", "f2"}

    @pytest.mark.parametrize(
        "grid", ["5e-324:1e-300:2", "1e-323:1e-300:3", "5e-324:1e-320:4"]
    )
    def test_wavefunction_at_subnormal_radii(self, capsys, grid):
        # lambda r / 2 underflows to 0 at the smallest subnormal radii, where
        # K's series takes ln(lambda r / 2) as ln(lambda r) - ln 2; the rows
        # are finite, the components growing as r^(-nu) and r^(nu - 1/2)
        argv = ["ab-wavefunction", "--mu", "0.25", "--xi", "-1", "--r-grid", grid]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == int(grid.rsplit(":", 1)[1])
        assert all(math.isfinite(v) for row in rows for v in row)
        assert rows[0][0] == 5e-324 or rows[0][0] == 1e-323

    def test_wavefunction_rows_scale_with_mass(self):
        args = ["ab-wavefunction", "--mu", "0.25", "--xi", "-1", "--r-grid", "0.1:2:3"]

        def rows(mass):
            code, out, _ = run_cli(args + ["--mass", mass])
            assert code == 0
            return [[float(v) for v in line.split(",")] for line in out.decode().splitlines()[1:]]

        base = rows("1")
        assert len(base) == 3
        for mass in ("1e-100", "1e-20", "1e-8", "1e8", "1e150"):
            root_m = math.sqrt(float(mass))
            for got, want in zip(rows(mass), base):
                assert got[0] == want[0]
                for g, w in zip(got[1:], want[1:]):
                    assert g / root_m == pytest.approx(w, rel=1e-13)

    def test_oracle_check_ac(self):
        code, out, _ = run_cli(
            ["oracle-check", "--sector", "ac", "--gamma", "0.5", "--xi", "-1"]
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out.decode())))
        assert float(row["abs_diff_over_m"]) <= 1e-5

    @pytest.mark.parametrize(
        "channel",
        [
            ["--mu", "0.25", "--xi", "-1"],
            ["--mu", "0.7", "--xi", "-2"],
            ["--sector", "ac", "--gamma", "0.3", "--xi", "-3"],
        ],
    )
    def test_oracle_check_order_is_nan(self, capsys, channel):
        # the oracle sums two series at one radius, with no step to refine,
        # so no order is printed; its error bound sits at the rounding floor
        assert cli.main(["oracle-check", *channel]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert math.isnan(float(row["convergence_order"]))
        assert 0.0 < float(row["error_bound_over_m"]) < 1e-13

    @pytest.mark.parametrize("mass", ["1e-150", "1e-8", "1", "1e8", "1e150"])
    @pytest.mark.parametrize(
        "channel",
        [["--mu", "0.25", "--xi", "-1"], ["--sector", "ac", "--gamma", "0.5", "--xi", "-1"]],
    )
    def test_oracle_check_columns_finite_at_every_mass(self, capsys, channel, mass):
        # only the order is NaN, and the bound scales with m like the level
        assert cli.main(["oracle-check", *channel, "--mass", mass]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        del row["convergence_order"]
        assert all(math.isfinite(float(v)) for v in row.values()), row
        assert 0.0 < float(row["error_bound_over_m"]) < 1e-13

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mu", "0.25", "--xi", "-1"],
            ["--mu", "0.7", "--xi", "-2"],
            ["--mu", "0.45", "--xi", "-1e-30"],
            ["--mu", "0.25", "--xi", "-1e20"],
            ["--sector", "ac", "--gamma", "0.5", "--xi", "-1"],
            ["--sector", "ac", "--gamma", "0.05", "--xi", "-0.3"],
        ],
    )
    def test_oracle_check_error_bound_holds(self, capsys, argv):
        # error_bound_over_m bounds the printed level's distance from the
        # oracle's line solved with the exact connection ratio at 50 digits
        assert cli.main(["oracle-check", *argv]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        xi = float(argv[-1])
        if argv[0] == "--sector":
            exact = routes.exact_ac_energy(float(argv[3]), xi)
        else:
            exact = routes.exact_dirac_energy(ab.DiracChannel(m=1.0, l=0, s=-1, mu=float(argv[1])), xi)
        assert abs(float(row["E_oracle_over_m"]) - exact) <= float(row["error_bound_over_m"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mu", "0.25", "--xi", "-1e-3"],
            ["--mu", "0.25", "--xi", "-1e20"],
            ["--sector", "ac", "--gamma", "0.5", "--xi", "-1e-10"],
            ["--mu", "0.45", "--xi", "-1e-30"],
            ["--sector", "ac", "--gamma", "0.05", "--xi", "-0.3"],
        ],
    )
    def test_oracle_check_reaches_every_level(self, capsys, argv):
        # lambda = 1.75e-5 m, 4.5e-14 m and 1.2e-33 m, where E rounds to -+m,
        # and E = -5e19 m and -1.8e10 m; the neutral fermion's relative error
        # is R's over gamma, with t's rounding
        assert cli.main(["oracle-check", *argv]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        order = float(row.pop("convergence_order"))
        values = {col: float(text) for col, text in row.items()}
        assert all(math.isfinite(v) for v in values.values()), row
        assert math.isnan(order)
        assert values["abs_diff_over_m"] <= 1e-12 * max(1.0, abs(values["E_analytic_over_m"]))

    @pytest.mark.parametrize("sector", [["--mu", "0.25"], ["--sector", "ac", "--gamma", "0.5"]])
    def test_oracle_check_without_a_level_prints_the_header(self, capsys, sector):
        assert cli.main(["oracle-check", *sector, "--xi", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [",".join(cli._ORACLE_COLUMNS)]

    def test_oracle_check_columns_in_units_of_m(self, capsys):
        def row(mass):
            assert cli.main(["oracle-check", "--mu", "0.25", "--xi", "-1", "--mass", mass]) == 0
            return [float(v) for v in capsys.readouterr().out.splitlines()[1].split(",")]

        base = row("1")
        assert base[3] > 0.0  # match_residual
        got = row("1e8")
        # abs_diff_over_m is a difference of two energies that each move by an
        # ulp, and the order is NaN at every mass
        assert got[2] == pytest.approx(base[2], abs=1e-15)
        assert math.isnan(got[5]) and math.isnan(base[5])
        del got[5], base[5], got[2], base[2]
        assert got == pytest.approx(base, rel=1e-12, abs=0.0)

    def test_shallow_printed_level(self):
        code, out, _ = run_cli(
            ["ab-solve", "--mu", "0.25", "--xi", "-1e-3", "--level-eq", "lev0lev1"]
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out.decode())))
        assert float(row["E_over_m"]) == pytest.approx(0.99999999999760536, rel=1e-15)
        assert float(row["lambda_over_m"]) == pytest.approx(2.1884396152274765e-06, rel=1e-12)

    def test_level_eq_comparison_modes(self):
        base = ["ab-solve", "--l", "0", "--s", "-1", "--mu", "0.25", "--xi", "-1"]
        vals = {}
        for mode in ("master", "wr00", "levab", "lev0lev1"):
            code, out, _ = run_cli(base + ["--level-eq", mode])
            assert code == 0
            rows = list(csv.DictReader(io.StringIO(out.decode())))
            if rows:
                vals[mode] = float(rows[0]["E_over_m"])
        assert vals["master"] == pytest.approx(E_GOLDEN, abs=1e-11)
        # the printed variants expose their documented discrepancies on this
        # s = -1 channel at xi = -1: the wr00 form has its root at positive xi
        # only, lev0 has none at |xi| = 1, while levab admits one but at a
        # different depth than the master equation
        assert math.isnan(vals["wr00"])
        assert math.isnan(vals["lev0lev1"])
        assert abs(vals["levab"]) < 1.0
        assert vals["levab"] != pytest.approx(E_GOLDEN, abs=1e-3)
        code, out, _ = run_cli(
            ["ab-solve", "--l", "0", "--s", "-1", "--mu", "0.25", "--xi", "-0.5",
             "--level-eq", "lev0lev1"]
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out.decode())))
        assert abs(float(row["E_over_m"])) < 1.0

    def test_config_value_of_wrong_type_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l = abc\n")
        code, out, err = run_cli(["ab-solve", "--config", str(cfg), "--mu", "0.25", "--xi", "-1"])
        assert code == 2
        assert out == b""
        lines = err.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "usage"

    def test_negative_grid_after_space_matches_equals_form(self):
        args = ["ab-sweep", "--xi", "-1", "--beta-grid"]
        code, out, _ = run_cli(args + ["-1.5:1.5:61"])
        assert code == 0
        assert out == run_cli(args[:-1] + ["--beta-grid=-1.5:1.5:61"])[1]
        assert len(out.decode().splitlines()) == 62

    def test_ac_sweep_across_regular_channels(self):
        code, out, _ = run_cli(["ac-sweep", "--gamma-grid", "0.05:1.5:40", "--xi", "-0.5"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        assert len(rows) == 40
        for row in rows:
            level_cols = [float(row[c]) for c in ("E_over_m", "kappa_over_m", "residual")]
            if float(row["gamma"]) < 1.0:
                assert all(math.isfinite(v) for v in level_cols)
            else:
                assert all(math.isnan(v) for v in level_cols)

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            ["ac-solve", "--gamma", "0.5", "--xi", "-1", "--output", str(target)]
        )
        assert code == 0
        assert out == b""
        assert target.read_bytes().startswith(b"gamma,")


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        args = ["ab-sweep", "--beta-grid", "0.05:0.95:13", "--xi", "-1"]
        outs = {run_cli(args)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_json_determinism(self):
        args = ["ac-sweep", "--gamma-grid", "0.1:0.9:9", "--xi", "-1", "--format", "json"]
        assert run_cli(args)[1] == run_cli(args)[1]


def main_in_process(argv):
    """cli.main(argv) with its stdout bytes and stderr text captured."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
        out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


# the level columns, NaN together in a row without a level
_LEVEL_COLUMNS = {"E_over_m", "lambda_over_m", "kappa_over_m", "residual"}
_XI_EDGES = [
    sign * v for v in (0.0, 1e-300, 1e-10, 1.0, 1e15, 1e300, math.inf) for sign in (1.0, -1.0)
]
_EXTENSIONS = st.one_of(
    st.tuples(st.just("--xi"), st.sampled_from(_XI_EDGES) | st.floats(-10.0, 10.0) | st.floats()),
    st.tuples(st.just("--theta"), st.floats(0.0, 2.0 * math.pi) | st.floats()),
).map(lambda pair: [pair[0], repr(pair[1])])


def _or_any_double(*sampled):
    # one of the sampled values, or any double, NaN and +-inf included
    return st.sampled_from(sampled) | st.floats().map(repr)


_MU = _or_any_double("0.25", "0.1", "0.7", "0.45")
_GAMMA = _or_any_double("0.5", "0.2", "0.9", "0")
_L = st.sampled_from(["0", "1", "-1"]) | st.integers().map(str)
_S = st.sampled_from(["-1", "1"]) | st.integers().map(str)
_AB_CHANNEL = _MU.map(lambda mu: ["--mu", mu]) | st.tuples(_MU, _L, _S).map(
    lambda t: ["--mu", t[0], "--l", t[1], "--s", t[2]]
)
_AC_CHANNEL = _GAMMA.map(lambda g: ["--gamma", g]) | st.tuples(
    _or_any_double("-0.3", "0.5", "1.2"), _L, st.sampled_from(["1", "-1"])
).map(lambda t: ["--coupling", t[0], "--l", t[1], "--zeta", t[2]])


def _grid(lo, hi):
    # lo:hi:n with n from 2 to 5, each bound the given one or any double
    return st.tuples(_or_any_double(lo), _or_any_double(hi), st.integers(2, 5)).map(
        lambda t: ":".join(map(str, t))
    )


_PRINTED_LEVEL_EQ = st.sampled_from(["wr00", "levab", "lev0lev1"])
_COMMANDS = st.one_of(
    _AB_CHANNEL.map(lambda ch: ["ab-solve", *ch]),
    st.tuples(_AB_CHANNEL, _PRINTED_LEVEL_EQ).map(
        lambda pair: ["ab-solve", *pair[0], "--level-eq", pair[1]]
    ),
    st.tuples(_grid("0.1", "0.9"), _PRINTED_LEVEL_EQ).map(
        lambda pair: ["ab-sweep", "--beta-grid", pair[0], "--level-eq", pair[1]]
    ),
    _AC_CHANNEL.map(lambda ch: ["ac-solve", *ch]),
    _grid("0.001", "0.5").map(lambda grid: ["ac-sweep", "--gamma-grid", grid]),
    st.tuples(_AB_CHANNEL, _grid("0.1", "5")).map(
        lambda pair: ["ab-wavefunction", *pair[0], "--r-grid", pair[1]]
    ),
    st.tuples(_AB_CHANNEL, _grid("-4", "-1.01")).map(
        lambda pair: ["ab-density", *pair[0], "--energy-grid", pair[1]]
    ),
    _AB_CHANNEL.map(lambda ch: ["oracle-check", *ch]),
    _AC_CHANNEL.map(lambda ch: ["oracle-check", "--sector", "ac", *ch]),
)
# the default mass, the edges of the accepted range (1.5e-154 to 1.3e154)
# and beyond them, or any double
_MASS = st.one_of(
    st.just([]),
    st.sampled_from([1.5e-154, 1.3e154, 1.4e-154, 2e154, 0.0, -1.0, 3.0])
    | st.floats(1e-3, 1e3)
    | st.floats(),
).map(lambda m: m if m == [] else [f"--mass={m!r}"])


class TestExtensionContract:
    """Every extension parameter, at the edges of the double range and off
    them, any mass, any double as the flux or the neutral fermion's index or
    coupling, any --l and --s, and grids of 2 to 5 points between any two
    doubles, gives exit 0 with finite rows or exit 2 with one JSON line: of
    kind usage where parse_args rejects the argv, and of kind domain where
    it accepts it."""

    @settings(max_examples=400, deadline=None)
    @given(command=_COMMANDS, extension=_EXTENSIONS, mass=_MASS)
    @example(
        command=["ac-sweep", "--gamma-grid", "0.001:0.5:3"],
        extension=["--xi", "-0.001"],
        mass=[],
    )
    @example(
        command=["ac-solve", "--gamma", "0.5"], extension=["--xi", "-1e-300"], mass=[]
    )
    @example(
        command=["ac-solve", "--gamma", "0.5"], extension=["--xi", "-1e300"], mass=[]
    )
    @example(
        command=["ab-solve", "--mu", "0.25"], extension=["--xi", "-inf"], mass=[]
    )
    @example(  # E rounds to -m exactly, with lambda = 1.05e-8 m
        command=["ab-wavefunction", "--mu", "0.25", "--r-grid", "0.1:5:5"],
        extension=["--xi", "-883873354192"],
        mass=[],
    )
    @example(  # the largest accepted mass
        command=["oracle-check", "--mu", "0.25"],
        extension=["--xi", "-1"],
        mass=["--mass=1.3e154"],
    )
    @example(  # the smallest accepted mass
        command=["oracle-check", "--sector", "ac", "--gamma", "0.5"],
        extension=["--xi", "-1e-10"],
        mass=["--mass=1.5e-154"],
    )
    # a flux whose 2 nu overflows, or that is not finite
    @example(command=["ab-solve", "--mu", "inf"], extension=["--xi", "-1"], mass=[])
    @example(
        command=["ab-density", "--mu", "-inf", "--energy-grid", "1.1:2:2"],
        extension=["--xi", "-1"],
        mass=[],
    )
    @example(
        command=["ab-wavefunction", "--mu", "1e308", "--r-grid", "1:2:2"],
        extension=["--xi", "-1"],
        mass=[],
    )
    @example(
        command=["oracle-check", "--mu", "1e308"], extension=["--xi", "-1"], mass=[]
    )
    @example(
        command=["ab-sweep", "--beta-grid=1e308:1.7e308:2", "--level-eq", "levab"],
        extension=["--xi", "-1"],
        mass=[],
    )
    @example(  # an --l without a double
        command=["ac-solve", "--coupling", "0.3", "--l", str(10**400), "--zeta", "1"],
        extension=["--xi", "-1"],
        mass=[],
    )
    @example(  # grid points beyond the double range
        command=["ab-sweep", "--beta-grid=0:8.98846567431158e307:4", "--level-eq", "levab"],
        extension=["--xi", "-1"],
        mass=[],
    )
    @example(  # lambda r far beyond K's underflow, where z cosh(t) rounds to z
        command=["ab-wavefunction", "--mu", "0.25", "--r-grid", "1e17:1e18:3"],
        extension=["--xi", "-1"],
        mass=[],
    )
    @example(  # the smallest subnormal radius, where lambda r / 2 underflows to 0
        command=["ab-wavefunction", "--mu", "0.25", "--r-grid", "5e-324:1e-300:2"],
        extension=["--xi", "-1"],
        mass=[],
    )
    @example(  # a radius r = r_times_m/m beyond the double range
        command=["ab-wavefunction", "--mu", "0.25", "--r-grid", "1:1e308:2"],
        extension=["--xi", "-1"],
        mass=["--mass=1e-150"],
    )
    @example(  # a grid of 10**12 points, which would not fit in memory
        command=["ac-sweep", "--gamma-grid", "0.1:0.9:1000000000000"],
        extension=["--xi", "-1"],
        mass=[],
    )
    def test_exit_0_with_finite_rows_or_exit_2(self, command, extension, mass):
        oracle = command[0] == "oracle-check"
        argv = command + extension + mass
        code, out, err = main_in_process(argv)
        if oracle:
            # the oracle reaches every level of an extended channel that the
            # analytic route finds (gamma = 0 is log-critical, not extended)
            if command[1] == "--sector":
                solve = ["ac-solve", *command[3:]]
            else:
                solve = ["ab-solve", *command[1:]]
            solved, rows, _ = main_in_process(solve + extension + mass)
            level = solved == 0 and next(csv.DictReader(io.StringIO(rows.decode())))
            extended = level and (
                "gamma" not in level or ac._regime(float(level["gamma"])) is ac.ACRegime.EXTENDED
            )
            if extended and math.isfinite(float(level["E_over_m"])):
                assert code == 0
        try:
            cli.parse_args(argv)
            phase = "domain"
        except cli.UsageError:
            phase = "usage"
        if code == 2:
            assert out == b""
            (line,) = err.splitlines()
            assert json.loads(line)["kind"] == phase
            return
        assert phase == "domain"
        assert code == 0 and err == ""
        for row in csv.DictReader(io.StringIO(out.decode())):
            values = {col: float(text) for col, text in row.items()}
            nan_cols = {col for col, v in values.items() if math.isnan(v)}
            # no level: all level columns NaN; oracle-check: the NaN order
            assert nan_cols <= {"convergence_order"} or nan_cols == _LEVEL_COLUMNS & set(row)
            for col, v in values.items():
                if col == "xi":  # the stored xi, inf for the theta = pi extension
                    assert v == math.inf or math.isfinite(v)
                elif col not in nan_cols:
                    assert math.isfinite(v), (col, row)


class TestMasterRouteIndependence:
    """The master route never calls a printed form: with every function of
    ``printed`` made to raise, the master level, both doublets and the
    master-route CLI tables are unchanged, and ``ab_spectrum`` holds no name
    from ``printed``."""

    ARGVS = (
        ["ab-solve", "--mu", "0.25", "--xi", "-1", "--level-eq", "master"],
        ["ab-sweep", "--beta-grid", "0.05:0.95:19", "--xi", "-1", "--level-eq", "master"],
        ["ab-wavefunction", "--mu", "0.25", "--xi", "-1", "--r-grid", "0.01:10:20"],
        ["oracle-check", "--mu", "0.25", "--xi", "-1"],
        ["oracle-check", "--sector", "ac", "--gamma", "0.5", "--xi", "-1"],
    )

    def master_route(self):
        ch = ab.DiracChannel(m=1.0, l=0, s=-1, mu=0.25)
        ext = ab.Extension.from_xi(-1.0)
        level = ab.solve_bound_energy(ch, ext)
        radii = (1e-3, 0.5, 3.0)
        bound = [ab.bound_doublet(level)(r) for r in radii]
        continuum = [ab.continuum_doublet(ch, ext, e)(r) for e in (-2.0, 1.5) for r in radii]
        return level, bound, continuum, [main_in_process(argv) for argv in self.ARGVS]

    def test_master_route_without_the_printed_forms(self, monkeypatch):
        assert not any(value is pr or getattr(value, "__module__", None) == pr.__name__
                       for value in vars(ab).values())
        before = self.master_route()
        assert all(code == 0 for code, _, _ in before[-1])

        def forbidden(*args, **kwargs):
            raise AssertionError("the master route called a printed form")

        names = [name for name, value in vars(pr).items()
                 if inspect.isfunction(value) and value.__module__ == pr.__name__]
        assert {"printed_level", "_density_on_rim", "spectral_density"} <= set(names)
        for name in names:
            monkeypatch.setattr(pr, name, forbidden)
        assert self.master_route() == before


class TestParserCache:
    """main() builds its parser once per process, and every later call
    prints the bytes a call with a freshly built parser prints."""

    @staticmethod
    def argvs(tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("mu = 0.7\nxi = -2\nformat = json\n")
        return [
            ["ab-solve", "--mu", "0.25", "--xi", "-1"],
            ["ac-sweep", "--gamma-grid", "0.1:0.9:3", "--xi", "-1"],
            ["ab-solve", "--config", str(config)],
            ["oracle-check", "--sector", "ac", "--gamma", "0.5", "--xi", "-1"],
            ["ab-solve", "--config", str(config), "--mu", "0.4", "--format", "csv"],
            ["ab-density", "--mu", "0.25", "--xi", "-1", "--energy-grid", "-4:-1.01:3"],
            ["oracle-check", "--config", str(config)],
            ["ab-solve", "--mu", "0.25"],
            ["ab-wavefunction", "--mu", "0.25", "--xi", "-1", "--r-grid", "0.1:5:3"],
        ]

    def test_interleaved_calls_print_first_call_bytes(self, tmp_path):
        argvs = self.argvs(tmp_path)
        first = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            first.append(main_in_process(argv))
        assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 0, 0, 2, 0]
        cli._build_parser.cache_clear()
        for argvs_round in (argvs, argvs[::-1]):
            for argv in argvs_round:
                assert main_in_process(argv) == first[argvs.index(argv)], argv
        assert cli._build_parser.cache_info().misses == 1

    def test_help_exits_0_with_a_kept_parser(self, capsys):
        for argv in (["--help"], ["oracle-check", "--help"], ["--help"]):
            assert cli.main(argv) == 0
            assert "usage:" in capsys.readouterr().out
        assert cli.main(["ab-solve", "--mu", "0.25", "--xi", "-1"]) == 0
        assert capsys.readouterr().out.startswith("beta,")


# each flag with values to draw, valid ones first; a value may be negative,
# out of range, of the wrong type or outside the flag's choices
_COMMON_FLAGS = [
    ("--mass", ["2", "1e-200", "-1"]),
    ("--theta", ["3", "0.5", "7"]),
    ("--format", ["json", "csv", "xml"]),
    ("--output", ["out.csv"]),
]
_AB_FLAGS = [
    ("--l", ["0", "-1", "x"]),
    ("--s", ["-1", "1", "3"]),
]
_MU_FLAG = ("--mu", ["0.25", "0.7", "-0.3"])
_GAMMA_FLAG = ("--gamma", ["0.5", "-0.2"])
_AC_FLAGS = [
    ("--l", ["0"]),
    ("--zeta", ["1", "-1", "2"]),
    ("--coupling", ["-0.5", "-1e-3"]),
]
# the flags cli._COMMANDS declares for each command besides the common ones,
# less the channel flag and the grid, which _REQUIRED_FLAGS draws;
# oracle-check keeps its other sector's --gamma and the removed --resolution
_COMMAND_FLAGS = {
    "ab-solve": _AB_FLAGS + [("--level-eq", ["master", "wr00", "bogus"])],
    "ab-sweep": _AB_FLAGS + [("--level-eq", ["levab"])],
    "ab-density": _AB_FLAGS,
    "ab-wavefunction": _AB_FLAGS,
    "ac-solve": _AC_FLAGS,
    "ac-sweep": [],
    "oracle-check": _AB_FLAGS
    + _AC_FLAGS[1:]
    + [_GAMMA_FLAG, ("--sector", ["ab", "ac", "xy"])]
    + [("--resolution", ["0.05", "-0.01", "1e-2"])],
}
# the extension, each command's channel flag and its grid, which parse_args
# requires, drawn more often
_REQUIRED_FLAGS = {
    "ab-solve": [_MU_FLAG],
    "ab-sweep": [("--beta-grid", ["0.1:0.9:5", "-1.5:1.5:7"])],
    "ab-density": [_MU_FLAG, ("--energy-grid", ["-4:-1.01:5", "1.01:10:3"])],
    "ab-wavefunction": [_MU_FLAG, ("--r-grid", ["0.1:5:3"])],
    "ac-solve": [_GAMMA_FLAG],
    "ac-sweep": [("--gamma-grid", ["0.1:0.9:5", "-0.5:0.5:3"])],
    "oracle-check": [_MU_FLAG],
}
_XI = ("--xi", ["-1", "-1e-3", "-inf", "2", "nan", "abc"])
# stray tokens: unknown flags, extra positionals, help, '--', a flag without
# its value, abbreviations (--m is ambiguous), a second command name
_NOISE = [
    "--bogus", "extra", "--", "-h", "--help", "-x", "--help=1", "-1", "--xi", "--res", "--m",
    "--gam", "ab-solve", "",
]


def _parse_corpus(configs: list[str]) -> list[list[str]]:
    """1500 seeded argv over every command: flags in the '=' and the space
    form, in any order and abbreviated, config files, stray tokens, and a
    head that is a command, nothing, an unknown command, '--' or help."""
    rng = random.Random(2028)
    corpus = []
    for _ in range(1500):
        command = rng.choice(list(_COMMAND_FLAGS))
        drawn = rng.sample(_COMMON_FLAGS + _COMMAND_FLAGS[command], rng.randint(0, 3))
        drawn += [f for f in [_XI, *_REQUIRED_FLAGS.get(command, [])] if rng.random() < 0.9]
        if rng.random() < 0.3:
            drawn.append(("--config", configs))
        rng.shuffle(drawn)
        argv = []
        for flag, values in drawn:
            value = values[0] if rng.random() < 0.6 else rng.choice(values)
            if rng.random() < 0.2:
                flag = flag[: rng.randint(3, len(flag))]
            argv += [f"{flag}={value}"] if rng.random() < 0.4 else [flag, value]
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            argv.insert(rng.randint(0, len(argv)), rng.choice(_NOISE))
        heads = ([command], [], ["no-such-command"], ["--"], ["-h"], ["--help"], [command[:5]])
        corpus.append(rng.choices(heads, weights=(80, 4, 4, 4, 3, 3, 2))[0] + argv)
    return corpus


def _parse_outcome(parse, argv):
    """What parse(argv) gives: a RunSpec, a UsageError's text or the code of
    a SystemExit, with what it printed on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("spec", repr(parse(argv)))
        except cli.UsageError as exc:
            result = ("usage", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


class TestParsePath:
    """A command's argv goes straight to its sub-parser; every argv still
    gets what argparse's full top-level pass gives it (``routes``)."""

    @staticmethod
    def configs(tmp_path) -> list[str]:
        texts = {
            "good": "mu = 0.7\nxi = -2\nformat = json\nresolution = 0.1\n",
            "wrong_type": "l = abc\n",
            "outside_choices": "format = xml\n",
            "unknown_keys": "# only gamma has a flag\nfoo = 1\ngamma = 0.3\n",
            "malformed": "mu 0.7\n",
        }
        for name, text in texts.items():
            (tmp_path / f"{name}.cfg").write_text(text)
        return [str(tmp_path / f"{name}.cfg") for name in [*texts, "missing"]]

    def test_every_argv_parses_as_the_top_level_pass(self, tmp_path):
        kinds = collections.Counter()
        for argv in _parse_corpus(self.configs(tmp_path)):
            got = _parse_outcome(cli.parse_args, argv)
            assert got == _parse_outcome(routes.top_level_parse_args, argv), argv
            (kind, value), out, _ = got
            kinds[kind] += 1
            if kind == "usage":
                kinds[value.split(":")[0]] += 1
                kinds["unrecognized"] += "unrecognized arguments" in value
                kinds["config"] += ".cfg" in value
            kinds["help"] += "usage:" in out
        # the corpus reaches every path: specs, the top-level parser's and
        # the sub-parsers' errors, leftover tokens, config files and help
        assert kinds["spec"] >= 300 and kinds["exit"] >= 100 and kinds["help"] == kinds["exit"]
        assert kinds["fluxbound"] >= 200 and kinds["fluxbound ab-solve"] >= 40
        assert kinds["unrecognized"] >= 100 and kinds["config"] >= 40

    def test_run_reports_domain_errors_only(self, tmp_path, monkeypatch, capsys):
        # parse_args makes every usage check, so what it accepts runs to a
        # table or to a domain error
        monkeypatch.chdir(tmp_path)  # where --output out.csv writes
        codes = collections.Counter()
        for argv in _parse_corpus(self.configs(tmp_path)):
            try:
                spec = cli.parse_args(argv)
            except (cli.UsageError, SystemExit):
                continue
            code = cli.run(spec)
            codes[code] += 1
            err = capsys.readouterr().err
            if code:
                assert code == 2 and json.loads(err)["kind"] == "domain", argv
        assert codes[0] >= 200 and codes[2] >= 20

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["no-such-command", "--xi", "-1"],
                "fluxbound: argument command: invalid choice: 'no-such-command' (choose from "
                "'ab-solve', 'ab-sweep', 'ab-density', 'ab-wavefunction', 'ac-solve', "
                "'ac-sweep', 'oracle-check')",
            ),
            (
                ["--", "ab-solve", "--mu", "0.25", "--xi", "-1"],
                "fluxbound: argument command: invalid choice: '--' (choose from "
                "'ab-solve', 'ab-sweep', 'ab-density', 'ab-wavefunction', 'ac-solve', "
                "'ac-sweep', 'oracle-check')",
            ),
            ([], "fluxbound: the following arguments are required: command"),
            (["--xi", "-1"], "fluxbound: the following arguments are required: command"),
            (
                ["ab-solve", "--mu", "0.25", "--xi", "-1", "--bogus", "3"],
                "fluxbound: unrecognized arguments: --bogus 3",
            ),
            (
                ["ac-solve", "extra", "--gamma", "0.5", "--xi", "-1"],
                "fluxbound: unrecognized arguments: extra",
            ),
            (
                ["ab-solve", "--mu", "0.25", "--", "--xi", "-1"],
                "fluxbound: unrecognized arguments: -- --xi=-1",
            ),
        ],
    )
    def test_top_level_message(self, capsys, argv, error):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", json.dumps({"error": error, "kind": "usage"}) + "\n")


def _csv_dicts(out: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out.decode())))


class TestTablesEqualTheLibrary:
    """Each table row holds the library's values at the row's inputs, bit for
    bit: the tables build each channel's energy-independent part once, and
    the per-row arithmetic must stay the library's."""

    @pytest.mark.parametrize("mass", ["1", "3"])
    @pytest.mark.parametrize("grid", ["1.01:10:25", "-10:-1.01:25"])
    @pytest.mark.parametrize("mu", ["0.25", "0.75"])
    def test_ab_density(self, mass, grid, mu):
        m = float(mass)
        argv = ["ab-density", "--mu", mu, "--xi", "-0.7", "--mass", mass, f"--energy-grid={grid}"]
        code, out, err = main_in_process(argv)
        assert (code, err) == (0, "")
        rows = _csv_dicts(out)
        assert len(rows) == 25
        ch = ab.DiracChannel(m=m, l=0, s=-1, mu=float(mu))
        ext = ab.Extension.from_xi(-0.7)
        for row in rows:
            want = pr.spectral_density(ch, ext, float(row["E_over_m"]) * m)
            assert float(row["density"]) == want

    @pytest.mark.parametrize("mass", ["1", "3"])
    def test_ac_sweep_over_every_chart(self, mass):
        # the grid hits gamma = 0 exactly (the log-critical chart), runs
        # through the extended channels on both signs of the coupling and
        # ends in regular channels, whose rows have NaN level columns
        m = float(mass)
        argv = ["ac-sweep", "--gamma-grid=-0.5:1.5:41", "--xi", "-1", "--mass", mass]
        code, out, err = main_in_process(argv)
        assert (code, err) == (0, "")
        rows = _csv_dicts(out)
        grid = nk.linear_grid(-0.5, 1.5, 41)
        assert len(rows) == len(grid)
        ext = ab.Extension.from_xi(-1.0)
        regimes = set()
        for row, g in zip(rows, grid):
            assert (row["l"], row["zeta"], row["xi"]) == ("0", "1", "-1")
            assert float(row["coupling"]) == -g
            ch = ac.ACChannel(m=m, coupling=-g, l=0, zeta=1)
            assert float(row["gamma"]) == ch.gamma
            regimes.add(ch.regime)
            got = [float(row[c]) for c in ("E_over_m", "kappa_over_m", "residual")]
            if ch.regime is ac.ACRegime.REGULAR:
                assert all(math.isnan(v) for v in got)
                continue
            level = ac.ac_bound_energy(ch, ext)
            assert got == [level.E_n / m, level.kappa / m, level.residual]
        assert 0.0 in grid
        assert regimes == set(ac.ACRegime)

    def test_ac_solve_prints_l_and_zeta_as_ints(self):
        argv = ["ac-solve", "--coupling", "0.3", "--l", "1", "--zeta", "-1", "--xi", "-1"]
        code, out, err = main_in_process(argv)
        assert (code, err) == (0, "")
        (row,) = _csv_dicts(out)
        assert (row["l"], row["zeta"]) == ("1", "-1")
        ch = ac.ACChannel(m=1.0, coupling=0.3, l=1, zeta=-1)
        level = ac.ac_bound_energy(ch, ab.Extension.from_xi(-1.0))
        got = [float(row[c]) for c in ("gamma", "coupling", "E_over_m", "kappa_over_m", "residual")]
        assert got == [ch.gamma, 0.3, level.E_n, level.kappa, level.residual]


class TestTableErrorLines:
    """A table that cannot be built exits 2 with the library's error line;
    the density checks the channel and the extension before any row and each
    energy at its row."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["ab-density", "--mu", "1.2", "--xi", "-1", "--energy-grid", "1.01:10:20"],
                "omega_xi_continued: channel nu=0.7 is regular; "
                "requires the extended regime 0 < nu < 1/2",
            ),
            (
                ["ab-density", "--mu", "0.25", "--theta", "3.141592653589793",
                 "--energy-grid", "1.01:10:20"],
                "omega_xi_continued: xi must be finite",
            ),
            (
                ["ab-density", "--mu", "0.25", "--xi", "-1", "--energy-grid=0.5:2:4"],
                "omega_xi_continued: need |E| > m, got E=0.5",
            ),
            (
                ["ab-density", "--mu", "0.25", "--xi", "-1", "--energy-grid=0.5:2:4",
                 "--mass", "3"],
                "omega_xi_continued: need |E| > m, got E=1.5",
            ),
            (
                ["ab-density", "--mu", "0.75", "--xi", "-1", "--energy-grid=-3:-1:4",
                 "--mass", "3"],
                "omega_xi_continued: need |E| > m, got E=-3.0",
            ),
            (  # 4 s lambda overflows above |E| = 4.5e307 m
                ["ab-density", "--mu", "0.25", "--xi=-1e300", "--energy-grid=-1.7e308:-1e308:3"],
                "spectral_density: density must be finite",
            ),
            (
                ["ac-sweep", "--gamma-grid=0.01:0.5:3", "--xi=-1e-5"],
                "ac_bound_energy: the level at gamma=0.01, xi=-1e-05 lies outside "
                "the double range",
            ),
            (
                ["ac-sweep", "--gamma-grid=0.01:0.5:3", "--xi=-1e5"],
                "ac_bound_energy: the level at gamma=0.01, xi=-100000.0 lies outside "
                "the double range",
            ),
        ],
    )
    def test_error_line(self, argv, error):
        want = json.dumps({"error": error, "kind": "domain"}) + "\n"
        assert main_in_process(argv) == (2, b"", want)


_ORACLE_CHECK_HEADER = (
    b"E_analytic_over_m,E_oracle_over_m,abs_diff_over_m,match_residual,"
    b"error_bound_over_m,convergence_order\n"
)


class TestOracleCheckBytes:
    """oracle-check's stdout, byte for byte, as the oracle prints it when it
    takes the connection ratio from two series matched at one radius.
    Against the inward Numerov sweep at step 0.1, which these rows pinned
    before, every E_oracle moved onto the analytic level or next to it: by
    +2.1e-10 m at --mu 0.25 --xi -1 (abs_diff 2.1e-10 -> 0), by -3.4e-9 m at
    --gamma 0.5 (3.4e-9 -> 2.2e-16, an ulp of the analytic level), and by
    +1.5e1 m at --gamma 0.05 --xi -0.3, whose level is -1.8e10 m (14.5 ->
    3.4e-5, 1.9e-15 relative).  match_residual, 1e-15 |dE/dx| at the root,
    moved in its eighth to ninth digit with the root.  The column
    r_min_sensitivity, 0 in every row, became error_bound_over_m, and
    convergence_order, 4.27 and 3.66 before, reads nan in every row, and
    JSON writes it null (it wrote NaN, which is not JSON).  The
    --resolution=0.05 row went with the flag; --mu 0.7 --xi -2, a tau = -1
    channel, took its place."""

    @pytest.mark.parametrize(
        "args, row",
        [
            (
                "--mu 0.25 --xi -1",
                b"-0.56600199969254428,-0.56600199969254428,0,"
                b"3.3982086817202066e-16,3.350791572145812e-15,nan\n",
            ),
            (
                "--sector ac --gamma 0.5 --xi -1",
                b"-0.50000000000000022,-0.5,2.2204460492503131e-16,"
                b"5.0000000000000004e-16,4.5443062430371939e-15,nan\n",
            ),
            (
                "--mu 0.7 --xi -2",
                b"0.78529522053777367,0.7852952205377739,2.2204460492503131e-16,"
                b"1.9165570830026461e-16,2.3143722911935759e-15,nan\n",
            ),
            (
                "--mu 0.25 --xi -1 --mass 3",
                b"-0.56600199969254428,-0.56600199969254428,0,"
                b"3.3982086817202066e-16,3.3507915721458116e-15,nan\n",
            ),
            (
                "--mu 0.25 --xi -1e20",
                b"-1,-1,0,1.0144569525521644e-42,4.4408920985006262e-16,nan\n",
            ),
            (
                "--sector ac --gamma 0.05 --xi -0.3",
                b"-18045567293.783653,-18045567293.783619,3.4332275390625e-05,"
                b"1.8045567293783622e-05,0.0022379178937039432,nan\n",
            ),
        ],
    )
    def test_csv(self, args, row):
        assert main_in_process(["oracle-check", *args.split()]) == (
            0,
            _ORACLE_CHECK_HEADER + row,
            "",
        )

    def test_json(self):
        want = (
            b'[\n {\n  "E_analytic_over_m": -0.5660019996925443,\n'
            b'  "E_oracle_over_m": -0.5660019996925443,\n'
            b'  "abs_diff_over_m": 0.0,\n'
            b'  "match_residual": 3.3982086817202066e-16,\n'
            b'  "error_bound_over_m": 3.350791572145812e-15,\n'
            b'  "convergence_order": null\n }\n]\n'
        )
        argv = ["oracle-check", "--mu", "0.25", "--xi", "-1", "--format", "json"]
        assert main_in_process(argv) == (0, want, "")


class TestTableBytes:
    """Two tables' stdout, byte for byte.  The sweep's rows are those the
    package printed when K's series took 1/Gamma(1 +- mu) from a separate
    reciprocal gamma and each table module laid out its own grid; the
    wavefunction's moved by up to 1e-15 relative when the Dirac Gamma ratio
    came by duplication from the kernel's log_gamma_ratio.  The
    wavefunction's radii reach lambda r = 2.47, so its rows cross K's seam at
    z = 2; the sweep's grid hits gamma = 0 and the regular rows."""

    @pytest.mark.parametrize(
        "argv, want",
        [
            (
                ["ab-wavefunction", "--mu", "0.25", "--xi", "-1", "--r-grid", "0.01:3:5"],
                b"r_times_m,f1,f2\n"
                b"0.01,0.21018553707939194,-2.2993359217407883\n"
                b"0.75750000000000006,0.21591658090793764,-0.52901149270147962\n"
                b"1.5050000000000001,0.12124297480167842,-0.26820607247885891\n"
                b"2.2524999999999999,0.066534983931555533,-0.14103931132900177\n"
                b"3,0.03625059166178303,-0.075039555675174743\n",
            ),
            (
                ["ac-sweep", "--xi", "-1", "--gamma-grid=-0.5:1.5:5"],
                b"gamma,l,zeta,coupling,xi,E_over_m,kappa_over_m,residual\n"
                b"0.5,0,1,0.5,-1,-0.50000000000000022,1.0000000000000002,0\n"
                b"0,0,1,-0,-1,-0.17065062030470429,0.58420992854401965,0\n"
                b"0.5,0,1,-0.5,-1,-0.50000000000000022,1.0000000000000002,0\n"
                b"1,0,1,-1,-1,nan,nan,nan\n"
                b"1.5,0,1,-1.5,-1,nan,nan,nan\n",
            ),
        ],
        ids=["ab-wavefunction", "ac-sweep"],
    )
    def test_csv(self, argv, want):
        assert main_in_process(argv) == (0, want, "")
