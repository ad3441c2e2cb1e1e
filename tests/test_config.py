"""Option table and INI config loading: flags, strict rejection, value
parsing, and the same parameters from a flag as from an INI key."""

from __future__ import annotations

import argparse
import json

import pytest

from dotwire import cli, lattice
from dotwire.config import OPTIONS, load_config
from dotwire.errors import ConfigError
from dotwire.lattice import OracleResult

# each command's flags, in --help order
FLAGS = {
    "spectrum": ["--kd", "--gamma0", "--gamma-nr", "--sr", "--single-dot",
                 "--gamma-prime", "--delta-min", "--delta-max", "--n-points"],
    "peaks": ["--kd-min", "--kd-max", "--n-kd", "--gamma0", "--gamma-nr",
              "--bracket-lo", "--bracket-hi"],
    "concurrence-map": ["--kd-min", "--kd-max", "--n-kd", "--delta-min",
                        "--delta-max", "--n-delta", "--gamma-nr"],
    "phase": ["--gamma-prime", "--delta-min", "--delta-max", "--n-points",
              "--kd-policy"],
    "oracle-verify": ["--quick", "--tolerance", "--sigma-k"],
    "storage": ["--pulse-ratio", "--sigma-t"],
}

# a small run per command that sets every option away from its default,
# once as flags and once as the INI section
SETTINGS = {
    "spectrum": (
        ["--kd", "0.5", "--kd", "1.5", "--gamma0", "0.03", "--gamma-nr",
         "0.1", "--sr", "both", "--single-dot", "--gamma-prime", "0.07",
         "--delta-min", "-1", "--delta-max", "1", "--n-points", "3"],
        "kd = 0.5, 1.5\ngamma0 = 0.03\ngamma_nr = 0.1\nsr = both\n"
        "single_dot = true\ngamma_prime = 0.07\ndelta_min = -1\n"
        "delta_max = 1\nn_points = 3\n",
    ),
    "peaks": (
        ["--kd-min", "2.0", "--kd-max", "2.5", "--n-kd", "2", "--gamma0",
         "0.03", "--gamma-nr", "0.02", "--bracket-lo", "-2.5",
         "--bracket-hi", "2.5"],
        "kd_min = 2.0\nkd_max = 2.5\nn_kd = 2\ngamma0 = 0.03\n"
        "gamma_nr = 0.02\nbracket_lo = -2.5\nbracket_hi = 2.5\n",
    ),
    "concurrence-map": (
        ["--kd-min", "2.0", "--kd-max", "3.0", "--n-kd", "2", "--delta-min",
         "-1", "--delta-max", "1", "--n-delta", "3", "--gamma-nr", "0.02"],
        "kd_min = 2.0\nkd_max = 3.0\nn_kd = 2\ndelta_min = -1\n"
        "delta_max = 1\nn_delta = 3\ngamma_nr = 0.02\n",
    ),
    "phase": (
        ["--gamma-prime", "0.01", "--gamma-prime", "0.2", "--delta-min",
         "-1", "--delta-max", "1", "--n-points", "3", "--kd-policy", "odd"],
        "gamma_prime = 0.01, 0.2\ndelta_min = -1\ndelta_max = 1\n"
        "n_points = 3\nkd_policy = odd\n",
    ),
    "oracle-verify": (
        ["--quick", "--tolerance", "0.5", "--sigma-k", "0.03"],
        "quick = true\ntolerance = 0.5\nsigma_k = 0.03\n",
    ),
    "storage": (
        ["--pulse-ratio", "6", "--sigma-t", "12"],
        "pulse_ratio = 6\nsigma_t = 12\n",
    ),
}


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


class TestOptionTable:
    def test_flags_per_command(self):
        parser = cli._build_parser()
        commands = next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert list(commands) == list(FLAGS)
        for command, subparser in commands.items():
            flags = [flag for action in subparser._actions
                     for flag in action.option_strings
                     if flag not in ("-h", "--help")]
            assert flags == FLAGS[command], command

    @pytest.mark.parametrize("command", list(SETTINGS))
    def test_flag_and_ini_key_give_the_same_parameters(
        self, command, tmp_path, monkeypatch
    ):
        # the lattice run is not what is tested here: stand in the exact
        # amplitudes so the quick points cost no time stepping
        def exact(params, packet):
            sol = cli.solve_two_dot(params)
            return OracleResult(t=sol.t, r=sol.r, n_modes=0, n_steps=0,
                                t_final=0.0, dot_population=0.0,
                                wall_time=0.0)

        monkeypatch.setattr(lattice, "scattering_oracle", exact)
        flags, ini = SETTINGS[command]
        by_flag, by_ini = tmp_path / "flag", tmp_path / "ini"
        config = tmp_path / "run.ini"
        config.write_text(f"[{command}]\n{ini}")
        assert cli.main(["--out", str(by_flag), command, *flags]) == 0
        assert cli.main(["--config", str(config), "--out", str(by_ini),
                         command]) == 0

        def parameters(directory):
            manifest = json.loads((directory / "manifest.json").read_text())
            return list(manifest["parameters"].items())

        assert parameters(by_flag) == parameters(by_ini)
        for option in OPTIONS[command]:
            default = json.loads(json.dumps(option.default))
            assert dict(parameters(by_flag))[option.key] != default, option.key


class TestLoadConfig:
    def test_full_file_round_trip(self, tmp_path):
        path = write(
            tmp_path,
            """
            [spectrum]
            kd = 0.5, 1.25
            delta_min = -2.5
            n_points = 101
            sr = on

            [storage]
            pulse_ratio = 5 10 20
            sigma_t = 8.0
            """,
        )
        cfg = load_config(path)
        assert cfg["spectrum"] == {
            "kd": [0.5, 1.25],
            "delta_min": -2.5,
            "n_points": 101,
            "sr": "on",
        }
        assert cfg["storage"] == {
            "pulse_ratio": [5.0, 10.0, 20.0],
            "sigma_t": 8.0,
        }

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_unknown_section(self, tmp_path):
        path = write(tmp_path, "[spektrum]\nkd = 1\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[spektrum\]"):
            load_config(path)

    def test_unknown_key_lists_known_ones(self, tmp_path):
        path = write(tmp_path, "[spectrum]\nkd_points = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'kd_points'") as info:
            load_config(path)
        assert "n_points" in str(info.value)

    def test_bad_number_names_section_and_key(self, tmp_path):
        path = write(tmp_path, "[spectrum]\nn_points = soup\n")
        with pytest.raises(ConfigError, match=r"\[spectrum\] n_points:"):
            load_config(path)

    def test_bad_choice(self, tmp_path):
        path = write(tmp_path, "[phase]\nkd_policy = sideways\n")
        with pytest.raises(ConfigError, match="expected one of even, odd"):
            load_config(path)

    def test_float_rejected_for_int(self, tmp_path):
        path = write(tmp_path, "[peaks]\nn_kd = 10.5\n")
        with pytest.raises(ConfigError, match="expected an integer"):
            load_config(path)

    def test_empty_list_rejected(self, tmp_path):
        path = write(tmp_path, "[storage]\npulse_ratio =\n")
        with pytest.raises(ConfigError, match="at least one number"):
            load_config(path)

    def test_malformed_ini(self, tmp_path):
        path = write(tmp_path, "kd = 1\n")  # key before any section header
        with pytest.raises(ConfigError, match="malformed config"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "[spectrum]\nkd = 1\nkd = 2\n")
        with pytest.raises(ConfigError, match="malformed config"):
            load_config(path)

    def test_scientific_notation(self, tmp_path):
        path = write(tmp_path, "[oracle-verify]\ntolerance = 1e-3\nquick = true\n")
        cfg = load_config(path)
        assert cfg["oracle-verify"] == {"tolerance": 1e-3, "quick": True}
