"""Command-line interface: exit codes, formats, manifests, determinism.

Most cases drive ``main()`` in-process for speed; a few go through a real
subprocess to cover the installed entry point end to end.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

from dotwire import cli, errors, lattice
from dotwire.cli import main
from dotwire.config import OPTIONS
from dotwire.errors import NotConverged
from dotwire.model import solve_single_dot

PI = math.pi

CSV_FLOAT = re.compile(r"^-?\d\.\d{17}e[+-]\d{2}$")

# Smallest useful invocation: one table, three detunings.
TINY = ["spectrum", "--single-dot", "--n-points", "3"]


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, err = run_main(capsys)
        assert code == 1
        assert "subcommand" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_main(capsys, "spectrum", "--frequency", "3")
        assert code == 1
        assert "error:" in err

    def test_bad_choice(self, capsys):
        code, _, err = run_main(capsys, "spectrum", "--sr", "sideways")
        assert code == 1
        assert "invalid choice" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys, "--config", str(tmp_path / "nope.ini"), *TINY
        )
        assert code == 1
        assert "not found" in err

    @pytest.mark.parametrize("line, message", [
        ("delta_min = abc", "expected a number, got 'abc'"),
        ("single_dot = maybe", "expected a boolean, got 'maybe'"),
    ], ids=["number", "boolean"])
    def test_unparsable_config_value(self, capsys, tmp_path, line, message):
        config = tmp_path / "run.ini"
        config.write_text(f"[spectrum]\n{line}\n")
        code, out, err = run_main(capsys, "--config", str(config), "spectrum")
        assert (code, out) == (1, "")
        key = line.split()[0]
        assert err == f"error: [spectrum] {key}: {message}\n"

    def test_invalid_parameter_value(self, capsys):
        # Library-level validation surfaces as a usage error, not a crash.
        code, _, err = run_main(capsys, "storage", "--pulse-ratio", "0.9")
        assert code == 1
        assert "pulse_ratio" in err

    def test_inverted_bracket_with_every_kd_skipped(self, capsys):
        # at kd = pi/4 the bracket (1, 3) holds no peak, so the search
        # would skip every kd; the inverted bracket is refused all the same
        code, out, err = run_main(
            capsys, "peaks", "--kd-min", "0.7853981633974483",
            "--kd-max", "0.7853981633974483", "--n-kd", "1",
            "--bracket-lo", "3", "--bracket-hi", "1",
        )
        assert (code, out) == (1, "")
        assert "invalid bracket (3.0, 1.0)" in err

    @pytest.mark.parametrize("flag", ["--bracket-lo=-inf", "--bracket-hi=-inf"],
                             ids=["lo", "hi"])
    def test_infinite_bracket_end(self, capsys, tmp_path, flag):
        # refused by its key before the command runs, so nothing is written
        out = tmp_path / "run"
        code, printed, err = run_main(capsys, "--out", str(out), "peaks",
                                      flag)
        assert (code, printed) == (1, "")
        key = flag[2:].split("=")[0].replace("-", "_")
        assert err == f"error: {key} must be finite, got -inf\n"
        assert not out.exists()

    def test_non_finite_config_value(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[peaks]\nbracket_lo = -inf\n")
        out = tmp_path / "run"
        code, printed, err = run_main(capsys, "--config", str(config),
                                      "--out", str(out), "peaks")
        assert (code, printed) == (1, "")
        assert err == "error: bracket_lo must be finite, got -inf\n"
        assert not out.exists()

    def test_storage_run_outlasting_the_mode_recurrence(self, capsys):
        code, out, err = run_main(capsys, "storage", "--sigma-t", "400")
        assert (code, out) == (1, "")
        assert "recurrence time" in err

    def test_storage_run_shorter_than_one_control_step(self, capsys):
        code, out, err = run_main(capsys, "storage", "--sigma-t", "0.001")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert "shorter than one control step" in err

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--kd", "nan"),
        ("peaks", "--gamma-nr", "nan"),
        ("storage", "--pulse-ratio", "inf"),
        ("storage", "--sigma-t", "nan"),
        ("phase", "--gamma-prime", "nan"),
        ("oracle-verify", "--quick", "--sigma-k", "nan"),
        ("oracle-verify", "--quick", "--tolerance", "nan"),
    ], ids=["spectrum-kd", "peaks-gamma-nr", "storage-pulse-ratio",
            "storage-sigma-t", "phase-gamma-prime", "oracle-sigma-k",
            "oracle-tolerance"])
    def test_non_finite_parameter(self, capsys, argv):
        code, out, err = run_main(capsys, *argv)
        assert code == 1
        assert out == ""
        # the message names the parameter that was set
        name = argv[-2][2:].replace("-", "_")
        assert f"{name} must be finite" in err


_NUMBER_OPTIONS = [(command, option) for command, options in OPTIONS.items()
                   for option in options if option.kind in ("float", "floats")]


@pytest.mark.parametrize(
    "command, option", _NUMBER_OPTIONS,
    ids=[f"{command}-{option.key}" for command, option in _NUMBER_OPTIONS])
class TestNegativeNumberValues:
    """A value of a minus and a number in any form float() reads is the
    option's value, as it is after an equals sign, not a second option."""

    def test_scientific_notation_is_a_value(self, capsys, command, option):
        flag = "--" + option.key.replace("_", "-")
        apart = run_main(capsys, command, flag, "-1e-3")
        joined = run_main(capsys, command, f"{flag}=-1e-3")
        assert apart == joined
        args = cli._build_parser().parse_args([command, flag, "-1e-3"])
        assert cli._resolve(command, args, {})[option.key] in (-1e-3,
                                                               [-1e-3])

    def test_minus_infinity_is_refused_by_name(self, capsys, command, option):
        flag = "--" + option.key.replace("_", "-")
        code, out, err = run_main(capsys, command, flag, "-inf")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert "expected one argument" not in err
        assert err == f"error: {option.key} must be finite, got -inf\n"


class TestGridInput:
    @pytest.mark.parametrize("argv", [
        ("concurrence-map", "--n-kd"),
        ("concurrence-map", "--n-delta"),
        ("phase", "--n-points"),
        ("peaks", "--n-kd"),
        ("spectrum", "--single-dot", "--n-points"),
    ], ids=["map-n-kd", "map-n-delta", "phase", "peaks", "single-dot"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one(self, capsys, argv, count):
        code, out, err = run_main(capsys, *argv, count)
        assert code == 1
        assert out == ""
        assert f"{argv[-1][2:].replace('-', '_')} must be >= " in err

    @pytest.mark.parametrize("argv", [
        ("concurrence-map", "--kd-min", "inf"),
        ("concurrence-map", "--delta-max", "nan"),
        ("phase", "--delta-min", "inf"),
        ("peaks", "--kd-max", "nan"),
        ("spectrum", "--delta-min", "inf"),
        ("spectrum", "--single-dot", "--delta-max", "nan"),
    ], ids=["map-kd-min", "map-delta-max", "phase", "peaks", "spectrum",
            "single-dot"])
    def test_non_finite_end(self, capsys, argv):
        code, out, err = run_main(capsys, *argv)
        assert code == 1
        assert out == ""
        # one line, no warnings from the grid arithmetic before it
        assert err == (f"error: {argv[-2][2:].replace('-', '_')} must be "
                       f"finite, got {float(argv[-1])}\n")

    @pytest.mark.parametrize("single", [(), ("--single-dot",)],
                             ids=["two-dot", "single-dot"])
    def test_spectrum_needs_two_points(self, capsys, single):
        code, out, err = run_main(capsys, "spectrum", *single,
                                  "--n-points", "1")
        assert code == 1
        assert out == ""
        assert "n_points must be >= 2, got 1" in err

    @pytest.mark.parametrize("single", [(), ("--single-dot",)],
                             ids=["two-dot", "single-dot"])
    @pytest.mark.parametrize("ends", [("3", "-3"), ("1", "1")],
                             ids=["descending", "equal"])
    def test_spectrum_needs_ascending_ends(self, capsys, single, ends):
        code, out, err = run_main(capsys, "spectrum", *single,
                                  "--delta-min", ends[0],
                                  "--delta-max", ends[1], "--n-points", "3")
        assert code == 1
        assert out == ""
        assert err == (f"error: need delta_min < delta_max, got "
                       f"{float(ends[0])} >= {float(ends[1])}\n")


class TestSpectrumOutput:
    def test_single_table_csv(self, capsys):
        code, out, _ = run_main(capsys, *TINY)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "delta,T,R,Loss"
        assert len(lines) == 4
        for cell in lines[1].split(","):
            assert CSV_FLOAT.match(cell), cell

    def test_multi_table_csv_has_name_markers(self, capsys):
        code, out, _ = run_main(
            capsys, "spectrum", "--kd", "0.785", "--gamma-nr", "0.025",
            "--sr", "both", "--n-points", "3",
        )
        assert code == 0
        names = [line[2:] for line in out.split("\n") if line.startswith("# ")]
        assert names == [
            "spectrum_kd0.785_gnr0.025_sr.csv",
            "spectrum_kd0.785_gnr0.025_nosr.csv",
            "spectrum_single_gp0.05.csv",
        ]
        assert out.count("delta,T,R,Loss") == 3

    def test_single_table_json(self, capsys):
        code, out, _ = run_main(capsys, "--format", "json", *TINY)
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["delta", "T", "R", "Loss"]
        assert len(doc["rows"]) == 3
        assert isinstance(doc["rows"][0][1], float)

    def test_multi_table_json(self, capsys):
        code, out, _ = run_main(
            capsys, "--format", "json", "spectrum", "--kd", "0.785",
            "--gamma-nr", "0.1", "--n-points", "3",
        )
        assert code == 0
        doc = json.loads(out)
        names = [t["name"] for t in doc["tables"]]
        assert names == ["spectrum_kd0.785_gnr0.1_sr",
                         "spectrum_single_gp0.05"]

    def test_single_dot_rows_are_the_closed_form(self, capsys):
        code, out, _ = run_main(capsys, "spectrum", "--single-dot")
        assert code == 0
        rows = [list(map(float, line.split(",")))
                for line in out.strip().split("\n")[1:]]
        assert len(rows) == 601
        assert rows[0][0] == -3.0 and rows[-1][0] == 3.0
        for delta, T, R, Loss in rows:
            sol = solve_single_dot(0.05, float(delta))
            assert (T, R, Loss) == (sol.T, sol.R, sol.Loss), delta

    def test_flux_conservation_in_output(self, capsys):
        _, out, _ = run_main(capsys, *TINY)
        for line in out.strip().split("\n")[1:]:
            _, T, R, Loss = map(float, line.split(","))
            assert T + R + Loss == pytest.approx(1.0, abs=1e-12)


class TestSpectrumTableNames:
    # table names keep 6 significant digits, so these pairs share one name
    COLLIDING = {
        "repeated-kd": (["--kd", "1.0", "--kd", "1.0", "--gamma-nr", "0.1"],
                        ("kd=1.0, gamma_nr=0.1", "kd=1.0, gamma_nr=0.1")),
        "repeated-gamma-nr": (
            ["--kd", "1.0", "--gamma-nr", "0.1", "--gamma-nr", "0.1"],
            ("kd=1.0, gamma_nr=0.1", "kd=1.0, gamma_nr=0.1"),
        ),
        "kd-1e-7-apart": (
            ["--kd", "1.0", "--kd", "1.0000001", "--gamma-nr", "0.1"],
            ("kd=1.0, gamma_nr=0.1", "kd=1.0000001, gamma_nr=0.1"),
        ),
    }

    @pytest.mark.parametrize("case", COLLIDING)
    @pytest.mark.parametrize("to_dir", [False, True], ids=["stdout", "out"])
    def test_colliding_names_are_rejected(self, capsys, tmp_path, case,
                                          to_dir):
        args, (first, second) = self.COLLIDING[case]
        out = tmp_path / "run"
        argv = ["--out", str(out)] if to_dir else []
        code, stdout, err = run_main(capsys, *argv, "spectrum", *args,
                                     "--n-points", "3")
        assert (code, stdout) == (1, "")
        assert err == (f"error: {first} and {second} give the same table "
                       f"name spectrum_kd1_gnr0.1 (names keep 6 significant "
                       f"digits)\n")
        assert not out.exists()

    def test_names_that_differ_in_6_digits_pass(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run_main(capsys, "--out", str(out), "spectrum",
                              "--kd", "1.0", "--kd", "1.00001",
                              "--gamma-nr", "0.1", "--n-points", "3")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        paths = [entry["path"] for entry in manifest["outputs"]]
        assert paths == ["spectrum_kd1_gnr0.1_sr.csv",
                         "spectrum_kd1.00001_gnr0.1_sr.csv",
                         "spectrum_single_gp0.05.csv"]


class TestNanHandling:
    SINGULAR = [
        "concurrence-map",
        "--kd-min", str(2 * PI), "--kd-max", str(2 * PI), "--n-kd", "1",
        "--delta-min", "-1", "--delta-max", "1", "--n-delta", "3",
    ]

    def test_csv_nan_literal(self, capsys):
        code, out, _ = run_main(capsys, *self.SINGULAR)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kd,delta,C"
        assert lines[2].split(",")[2] == "nan"

    def test_json_null(self, capsys):
        code, out, _ = run_main(capsys, "--format", "json", *self.SINGULAR)
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][1][2] is None
        assert doc["rows"][0][2] == pytest.approx(1.0)


class TestCellFormat:
    SMALL = [
        ["spectrum", "--sr", "both", "--n-points", "3"],
        ["peaks", "--n-kd", "3"],
        ["concurrence-map", "--n-kd", "3", "--n-delta", "3"],
        TestNanHandling.SINGULAR,
        ["phase", "--n-points", "3"],
        ["oracle-verify", "--quick"],
        ["storage", "--pulse-ratio", "5"],
    ]

    @pytest.mark.parametrize("argv", SMALL, ids=lambda argv: argv[0])
    def test_every_cell_is_a_builtin_int_or_float(
        self, capsys, monkeypatch, argv
    ):
        # The writers print a cell as the value it is, so each command must
        # hand them built-in ints and floats only: no bool, no numpy scalar.
        results = []
        command, help_text = cli._COMMANDS[argv[0]]

        def recording(p):
            results.append(command(p))
            return results[-1]

        monkeypatch.setitem(cli._COMMANDS, argv[0], (recording, help_text))
        code, _, _ = run_main(capsys, "--format", "csv", *argv)
        assert code == 0
        (result,) = results
        cells = [v for t in result.tables for row in t.rows for v in row]
        assert cells
        assert {type(v) for v in cells} <= {int, float}


def _reference_csv(table: cli.Table) -> str:
    """The CSV writer's contract, one cell at a time."""
    def cell(value):
        return str(value) if isinstance(value, int) else f"{value:.17e}"

    lines = [",".join(table.columns)]
    lines.extend(",".join(cell(v) for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


class TestTableCsv:
    def test_signed_zeros_and_nan_in_a_repeating_column(self):
        axis = [0.0, -0.0, math.nan, 0.5, -0.5]
        rows = [[axis[i % 5], float(i)] for i in range(40)]
        rows.append([-0.0, math.nan])
        table = cli.Table("t", ["x", "y"], rows)
        text = cli._table_csv(table)
        assert text == _reference_csv(table)
        cells = [line.split(",")[0] for line in text.split("\n")[1:6]]
        assert cells == ["0.00000000000000000e+00",
                         "-0.00000000000000000e+00", "nan",
                         "5.00000000000000000e-01",
                         "-5.00000000000000000e-01"]

    def test_ints_beside_floats_keep_their_type(self):
        # 1 == 1.0 and True == 1, so a shared key would print one for the
        # other; each column repeats its values
        rows = [[i % 2, float(i % 2), i % 3, True, 1.0] for i in range(30)]
        rows += [[1.0, 1, 2.0, 1, True]]
        table = cli.Table("t", ["a", "b", "c", "d", "e"], rows)
        text = cli._table_csv(table)
        assert text == _reference_csv(table)
        assert text.split("\n")[2] == "1,1.00000000000000000e+00,1,True," \
            "1.00000000000000000e+00"

    def test_empty_table_is_the_header_line(self):
        table = cli.Table("t", ["kd", "delta", "C"], [])
        assert cli._table_csv(table) == "kd,delta,C\n"

    def test_table_longer_than_one_block(self):
        n = 2 * cli._CSV_BLOCK + 7
        rows = [[float(i // 50), i * 0.1, i, math.sqrt(i)] for i in range(n)]
        table = cli.Table("t", ["axis", "x", "i", "root"], rows)
        text = cli._table_csv(table)
        assert text == _reference_csv(table)
        assert text.count("\n") == n + 1

    @pytest.mark.parametrize("argv", TestCellFormat.SMALL,
                             ids=lambda argv: argv[0])
    def test_command_tables_match_the_reference(self, argv):
        parser = cli._build_parser()
        args = parser.parse_args(argv)
        result = cli._COMMANDS[argv[0]][0](cli._resolve(argv[0], args, {}))
        assert result.tables
        for table in result.tables:
            assert cli._table_csv(table) == _reference_csv(table)


class TestOracleReport:
    def test_default_mode_checks_the_criterion_07_matrix(
        self, capsys, monkeypatch
    ):
        # the lattice run is not what is tested here: stand in the exact
        # amplitudes so the 50 points cost no time stepping
        def exact(params, packet):
            sol = cli.solve_two_dot(params)
            return lattice.OracleResult(t=sol.t, r=sol.r, n_modes=0,
                                        n_steps=0, t_final=0.0,
                                        dot_population=0.0, wall_time=0.0)

        monkeypatch.setattr(lattice, "scattering_oracle", exact)
        code, out, _ = run_main(capsys, "oracle-verify")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "full"
        assert report["n_points"] == 50
        points = {(pt["kd"], pt["delta"], pt["gamma_prime"])
                  for pt in report["points"]}
        assert points == {
            (kd, delta, gp)
            for kd in (0.5 * PI, 0.65 * PI, PI, 1.35 * PI, 2 * PI)
            for delta in (-2.0, -1.3, 1.2, 1.7, 2.3)
            for gp in (0.0, 0.05)
        }
        assert not any(pt["with_sr"] for pt in report["points"])
        assert report["max_error"] == 0.0

    def test_unsettled_point_is_null_in_strict_json(
        self, capsys, tmp_path, monkeypatch
    ):
        def unsettled(params, packet):
            raise NotConverged("emitter population has not decayed")

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        monkeypatch.setattr(lattice, "scattering_oracle", unsettled)
        code, out, _ = run_main(capsys, "oracle-verify", "--quick")
        assert code == 2
        code, _, _ = run_main(
            capsys, "--out", str(tmp_path), "oracle-verify", "--quick"
        )
        assert code == 2
        written = (tmp_path / "report.json").read_text()
        for text in (out, written):
            report = json.loads(text, parse_constant=reject)
            assert report["max_error"] is None
            assert report["all_within_tolerance"] is False
            for point in report["points"]:
                assert point["t_error"] is None
                assert point["r_error"] is None
                assert point["within_tolerance"] is False
                assert isinstance(point["with_sr"], bool)
                assert point["n_steps"] is None
                assert point["t_final"] is None
                assert point["dot_population"] is None


class TestConfigResolution:
    def test_config_fills_defaults(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[spectrum]\nsingle_dot = true\nn_points = 5\n")
        code, out, _ = run_main(capsys, "--config", str(ini), "spectrum")
        assert code == 0
        assert len(out.strip().split("\n")) == 6

    def test_flag_overrides_config(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[spectrum]\nsingle_dot = true\nn_points = 5\n")
        code, out, _ = run_main(
            capsys, "--config", str(ini), "spectrum", "--n-points", "3"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    def test_other_sections_ignored(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[spectrum]\nsingle_dot = true\nn_points = 3\n"
            "[storage]\npulse_ratio = 5\n"
        )
        code, out, _ = run_main(capsys, "--config", str(ini), "spectrum")
        assert code == 0
        assert len(out.strip().split("\n")) == 4


class TestParserReuse:
    # one parser serves every call in a process; no parsed value may carry
    # over from one call to the next
    def test_kd_from_one_call_is_not_kept(self, capsys, tmp_path):
        argv = ["spectrum", "--sr", "off", "--n-points", "3"]
        first, second = tmp_path / "first", tmp_path / "second"
        code, _, _ = run_main(capsys, "--out", str(first), *argv,
                              "--kd", "1.0")
        assert code == 0
        assert run_main(capsys, "--out", str(second), *argv)[0] == 0
        default = next(o.default for o in OPTIONS["spectrum"]
                       if o.key == "kd")
        kd = [json.loads((path / "manifest.json").read_text())["parameters"]
              ["kd"] for path in (first, second)]
        assert kd == [[1.0], list(default)]
        assert cli._build_parser() is cli._build_parser()

    def test_format_from_one_call_is_not_kept(self, capsys):
        code, out, _ = run_main(capsys, "--format", "json", *TINY)
        assert code == 0
        assert json.loads(out)["columns"] == ["delta", "T", "R", "Loss"]
        code, out, _ = run_main(capsys, *TINY)
        assert code == 0
        assert out.startswith("delta,T,R,Loss\n")


class TestExitCodeContracts:
    def test_singular_point_is_2(self, capsys):
        code, _, err = run_main(
            capsys, "spectrum", "--kd", str(2 * PI), "--gamma0", "0",
            "--gamma-nr", "0", "--n-points", "3",
            "--delta-min", "-1", "--delta-max", "1",
        )
        assert code == 2
        assert "singular" in err

    def test_population_underflow_is_2(self, capsys):
        code, _, err = run_main(capsys, "storage", "--pulse-ratio", "1.05")
        assert code == 2
        assert "error:" in err

    def test_design_switching_on_too_hard_is_2(self, capsys):
        # an infeasible design, not a numerical failure of the lattice
        code, out, err = run_main(
            capsys, "storage", "--pulse-ratio", "10.350611616634874",
            "--sigma-t", "5.1"
        )
        assert code == 2
        assert out == ""
        assert "holds the control off" in err

    def test_bandwidth_is_2(self, capsys):
        code, _, err = run_main(
            capsys, "storage", "--pulse-ratio", "5", "--sigma-t", "4"
        )
        assert code == 2
        assert "bandwidth" in err

    def test_grid_too_coarse_is_3(self, capsys):
        code, _, err = run_main(
            capsys, "oracle-verify", "--quick", "--sigma-k", "0.0005"
        )
        assert code == 3
        assert "error:" in err

    def test_packet_wider_than_the_grid_core_is_3(self, capsys):
        # 4 * 0.07 reaches past make_mode_grid's uniform core, whose
        # line-patch neighbours do not mirror about the carrier
        code, _, err = run_main(
            capsys, "oracle-verify", "--quick", "--sigma-k", "0.07"
        )
        assert code == 3
        assert "4*sigma_k = 0.28 either side" in err
        assert "uniform core, half-width 0.2504: narrow the packet" in err

    # the README's exit-code table, class by class
    EXIT_CODES = {
        "DotwireError": 1, "ConfigError": 1,
        "SingularSystem": 2, "NoPeakInBracket": 2, "NoMinimumInBracket": 2,
        "TangentPole": 2, "EmptyProjection": 2, "PopulationUnderflow": 2,
        "BandwidthTooWide": 2,
        "GridTooCoarse": 3, "StepTooLarge": 3, "NotConverged": 3,
    }

    def test_table_names_every_error_class(self):
        assert set(self.EXIT_CODES) == set(errors.__all__)

    @pytest.mark.parametrize("name", [*errors.__all__, "ValueError"])
    def test_raised_class_sets_exit_code(self, capsys, monkeypatch, name):
        error = getattr(errors, name, ValueError)

        def failing(p):
            raise error(f"{name} raised")

        monkeypatch.setitem(cli._COMMANDS, "spectrum", (failing, ""))
        code, out, err = run_main(capsys, *TINY)
        assert code == self.EXIT_CODES.get(name, 1)
        assert out == ""
        assert err == f"error: {name} raised\n"


class TestOutDirAndManifest:
    def test_writes_files_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, stdout, _ = run_main(capsys, "--out", str(out), *TINY)
        assert code == 0
        assert stdout == ""  # data went to files, not the console
        data = out / "spectrum_single_gp0.05.csv"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "spectrum"
        assert manifest["format"] == "csv"
        assert manifest["parameters"]["n_points"] == 3
        assert manifest["parameters"]["single_dot"] is True
        assert manifest["warnings"] == []
        assert manifest["wall_time_s"] >= 0.0
        (entry,) = manifest["outputs"]
        payload = data.read_bytes()
        assert entry["path"] == data.name
        assert entry["size_bytes"] == len(payload)
        assert entry["sha256"] == hashlib.sha256(payload).hexdigest()

    # at kd = pi/4 the bracket (1, 3) holds no reflection peak, so both
    # curves skip it with a warning; at kd = 2.0 both have one at ~2.19
    SKIPPING = ["--kd-min", "0.7853981633974483", "--kd-max", "2.0",
                "--n-kd", "2", "--bracket-lo", "1", "--bracket-hi", "3"]
    SKIP_WARNINGS = [
        f"dotwire.spectra: skipping kd=0.785398 (with_sr={flag}): no peak "
        f"in (1.0, 3.0)" for flag in (False, True)
    ]

    def test_manifest_lists_the_run_warnings(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _, err = run_main(capsys, "--out", str(out), "peaks",
                                *self.SKIPPING)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == self.SKIP_WARNINGS
        assert err == "".join(f"warning: {w}\n" for w in self.SKIP_WARNINGS)

    def test_warnings_print_to_stderr_beside_a_stdout_table(self, capsys):
        code, out, err = run_main(capsys, "peaks", *self.SKIPPING)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kd,delta_peak,R_peak,with_sr"
        assert [line.split(",")[0] for line in lines[1:]] == [
            f"{2.0:.17e}", f"{2.0:.17e}"
        ]
        assert err == "".join(f"warning: {w}\n" for w in self.SKIP_WARNINGS)

    def test_no_peak_in_the_bracket_is_a_warning(self, capsys, tmp_path):
        # at kd = pi/4 the reflection peaks lie outside (1, 3): both curves
        # skip the spacing, and the table keeps only its header
        out = tmp_path / "run"
        code, _, _ = run_main(capsys, "--out", str(out), "peaks",
                              "--kd-min", "0.7853981633974483",
                              "--kd-max", "0.7853981633974483", "--n-kd", "1",
                              "--bracket-lo", "1", "--bracket-hi", "3")
        assert code == 0
        table = (out / "peaks.csv").read_text()
        assert table == "kd,delta_peak,R_peak,with_sr\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == self.SKIP_WARNINGS

    def test_every_file_listed_with_checksum(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run_main(
            capsys, "--out", str(out), "spectrum", "--kd", "0.785",
            "--sr", "both", "--n-points", "3",
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {e["path"] for e in manifest["outputs"]}
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert listed == on_disk
        assert len(listed) == 2 * 3 + 1  # sr x gamma_nr grid + single ref
        for entry in manifest["outputs"]:
            payload = (out / entry["path"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(payload).hexdigest()

    def test_data_bytes_are_deterministic(self, capsys, tmp_path):
        args = ["concurrence-map", "--n-kd", "4", "--n-delta", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_main(capsys, "--out", str(a), *args)[0] == 0
        assert run_main(capsys, "--out", str(b), *args)[0] == 0
        name = "concurrence_map.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_echo_reruns_identically(self, capsys, tmp_path):
        first = tmp_path / "first"
        args = ["spectrum", "--kd", "0.9", "--gamma-nr", "0.3",
                "--n-points", "7"]
        assert run_main(capsys, "--out", str(first), *args)[0] == 0
        params = json.loads((first / "manifest.json").read_text())["parameters"]

        lines = ["[spectrum]"]
        for key, value in params.items():
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, list):
                text = ", ".join(repr(v) for v in value)
            elif isinstance(value, str):
                text = value
            else:
                text = repr(value)
            lines.append(f"{key} = {text}")
        ini = tmp_path / "echo.ini"
        ini.write_text("\n".join(lines) + "\n")

        second = tmp_path / "second"
        code, _, _ = run_main(
            capsys, "--config", str(ini), "--out", str(second), "spectrum"
        )
        assert code == 0
        names = {p.name for p in first.iterdir()}
        assert {p.name for p in second.iterdir()} == names
        for name in names - {"manifest.json"}:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_nothing_written_on_compute_error(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run_main(
            capsys, "--out", str(out), "spectrum", "--kd", str(2 * PI),
            "--gamma0", "0", "--gamma-nr", "0", "--n-points", "3",
            "--delta-min", "-1", "--delta-max", "1",
        )
        assert code == 2
        assert not out.exists()

    # three data files, so a failure can land between them
    MULTI = ["spectrum", "--kd", "0.785", "--sr", "both", "--n-points", "3"]

    def test_stale_manifest_removed_before_first_write(
        self, capsys, tmp_path, monkeypatch
    ):
        out = tmp_path / "run"
        out.mkdir()
        manifest = out / "manifest.json"
        manifest.write_text('{"outputs": []}\n')
        replaced = []
        real_replace = os.replace

        def recording_replace(src, dst):
            replaced.append((os.path.basename(dst), manifest.exists()))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        assert run_main(capsys, "--out", str(out), *self.MULTI)[0] == 0
        assert replaced[0][0] != "manifest.json"
        assert not any(present for _, present in replaced[:-1])
        assert replaced[-1] == ("manifest.json", False)
        entries = json.loads(manifest.read_text())["outputs"]
        listed = {entry["path"] for entry in entries}
        assert {p.name for p in out.iterdir()} == listed | {"manifest.json"}

    def test_failed_write_leaves_no_manifest(
        self, capsys, tmp_path, monkeypatch
    ):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text('{"outputs": []}\n')
        calls = []
        real_replace = os.replace

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        code, _, err = run_main(capsys, "--out", str(out), *self.MULTI)
        assert code == 1
        assert "disk full" in err
        assert len(calls) == 2
        # neither the manifest, nor the file written before the failure,
        # nor a temporary file is left behind
        assert list(out.iterdir()) == []

    def test_unwritable_target_is_config_error(self, capsys, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        code, _, err = run_main(capsys, "--out", str(blocker), *TINY)
        assert code == 1
        assert "cannot write output" in err


class TestStorageCommand:
    def test_efficiency_tracks_bound(self, capsys):
        code, out, _ = run_main(capsys, "storage", "--pulse-ratio", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "P,efficiency,design"
        ratio, eff, design = map(float, lines[1].split(","))
        assert ratio == 5.0
        assert design == pytest.approx(0.8)
        assert eff == pytest.approx(0.8, abs=5e-3)


def _child(*argv):
    """Run a fresh interpreter on these sources, with src/ on its path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
    )


class TestSubprocessEntryPoints:
    def run(self, *argv):
        return _child("-m", "dotwire", *argv)

    def test_version(self):
        proc = self.run("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("dotwire ")

    def test_help_lists_commands(self):
        proc = self.run("--help")
        assert proc.returncode == 0
        for name in ("spectrum", "peaks", "concurrence-map", "phase",
                     "oracle-verify", "storage"):
            assert name in proc.stdout

    def test_tiny_spectrum_round_trip(self):
        proc = self.run(*TINY)
        assert proc.returncode == 0
        assert proc.stdout.startswith("delta,T,R,Loss\n")

    def test_closed_form_commands_start_without_scipy(self, tmp_path):
        # The pytest process has imported numpy and scipy already, so the
        # import checks run in a fresh interpreter on the same sources.
        child = """
import contextlib
import io
import math
import sys

import dotwire
from dotwire import cli

HEAVY = ("numpy", "dotwire.lattice", "dotwire.storage", "scipy.linalg",
         "scipy.optimize")


def run(*argv):
    assert cli.main(["--out", sys.argv[1] + "/" + argv[0], *argv]) == 0


def loaded():
    print(" ".join(name for name in HEAVY if name in sys.modules))


with contextlib.redirect_stdout(io.StringIO()) as text:
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0
assert "concurrence-map" in text.getvalue()
run("spectrum", "--n-points", "3")
run("concurrence-map", "--n-kd", "3", "--n-delta", "3")
run("phase", "--n-points", "3")
loaded()
run("peaks")
loaded()
run("oracle-verify", "--quick")
from dotwire import lattice, spectra
from dotwire.model import ModelParams

assert spectra.reflection_minimum(ModelParams(kd=math.pi / 4))[1] < 1e-12
assert lattice.no_jump_equivalence(0.5 * math.pi, 0.05).max_trace_distance < 1e-8
run("storage", "--pulse-ratio", "5")
loaded()

namespace = {}
exec("from dotwire import *", namespace)
for name in dotwire.__all__:
    assert getattr(dotwire, name) is namespace[name], name
try:
    dotwire.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
"""
        proc = _child("-c", child, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        closed_form, after_peaks, after_storage = proc.stdout.split("\n")[:3]
        assert closed_form == ""
        assert after_peaks == ""
        assert after_storage == "numpy dotwire.lattice dotwire.storage"
        for name in ("spectrum/spectrum_single_gp0.05.csv",
                     "concurrence-map/concurrence_map.csv",
                     "phase/phase.csv", "peaks/peaks.csv",
                     "storage/storage.csv"):
            assert (tmp_path / name).is_file(), name

    def test_start_up_defers_output_and_config_modules(self, tmp_path):
        # the site module preloads some of these on some hosts, so only
        # what the package import itself adds is checked
        child = """
import sys

before = set(sys.modules)
import dotwire
from dotwire import cli

added = set(sys.modules) - before
print(" ".join(name for name in ("hashlib", "json", "configparser", "typing")
               if name in added))
assert cli.main(["--config", sys.argv[1], "--out", sys.argv[2], "phase"]) == 0
"""
        config = tmp_path / "dotwire.ini"
        config.write_text("[phase]\nn_points = 3\ngamma_prime = 0.05\n")
        out = tmp_path / "out"
        proc = _child("-c", child, str(config), str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["n_points"] == 3
        assert manifest["parameters"]["gamma_prime"] == [0.05]
        (entry,) = manifest["outputs"]
        payload = (out / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(payload).hexdigest()
        assert payload.count(b"\n") == 1 + 3

    def test_quick_verification_passes_then_fails_tolerance(self):
        passing = self.run("oracle-verify", "--quick")
        assert passing.returncode == 0
        report = json.loads(passing.stdout)
        assert report["all_within_tolerance"] is True
        assert report["n_points"] == 3
        assert report["max_error"] < 1e-3
        for point in report["points"]:
            assert isinstance(point["n_steps"], int) and point["n_steps"] > 0
            assert point["t_final"] > 0.0
            assert 0.0 <= point["dot_population"] <= 1e-6
            assert "wall_time" not in point

        failing = self.run("oracle-verify", "--quick", "--tolerance", "1e-9")
        assert failing.returncode == 2
        assert "tolerance" in failing.stderr
        # The report is still emitted so the failure can be inspected.
        assert json.loads(failing.stdout)["all_within_tolerance"] is False
