"""Command-line interface.

Six subcommands map onto the library surface:

    spectrum         transmission/reflection/loss detuning sweeps
    peaks            reflection-peak position vs emitter spacing
    concurrence-map  post-selected concurrence over (kd, delta)
    phase            relative phase along a constant-concurrence branch
    oracle-verify    time-domain lattice check of the algebraic amplitudes
    storage          metastable storage efficiency vs pulse ratio

Global flags (before the subcommand): --config INI, --out DIR,
--format csv|json. Exit codes: 0 success, 1 configuration or usage error,
2 contract violation (singular point, bandwidth too wide, verification over
tolerance, ...), 3 numerical failure (grid too coarse, step too large, probe
setup infeasible).

Without --out, tables print to stdout (multiple tables are separated by
"# <name>" comment lines). With --out DIR, each table becomes a file in
DIR and "manifest.json" is written last as the completion marker: it
echoes the effective parameters and lists every data file with a sha256
checksum. An old manifest is removed before the first file is written, and
each file is written under a temporary name and renamed into place. Data
files are byte-identical across reruns; only the manifest carries timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_config
from .entanglement import concurrence_map, phase_scan
from .errors import (
    BandwidthTooWide,
    ConfigError,
    EmptyProjection,
    GridTooCoarse,
    NoMinimumInBracket,
    NoPeakInBracket,
    NotConverged,
    PopulationUnderflow,
    SingularSystem,
    StepTooLarge,
    TangentPole,
)
from .lattice import WavepacketSpec, scattering_oracle
from .model import ModelParams, solve_single_dot, solve_two_dot
from .spectra import peak_position_curve, sweep_detuning
from .storage import StorageParams, simulate_storage

__all__ = ["main"]

PI = math.pi

_CONTRACT_ERRORS = (
    SingularSystem,
    NoPeakInBracket,
    NoMinimumInBracket,
    TangentPole,
    EmptyProjection,
    BandwidthTooWide,
    PopulationUnderflow,
)
_NUMERICAL_ERRORS = (GridTooCoarse, StepTooLarge, NotConverged)

_DEFAULTS: dict[str, dict[str, object]] = {
    "spectrum": {
        "kd": [0.25 * PI, 2.0 * PI],
        "gamma0": 0.025,
        "gamma_nr": [0.025, 0.125, 0.5],
        "sr": "on",
        "single_dot": False,
        "gamma_prime": 0.05,
        "delta_min": -3.0,
        "delta_max": 3.0,
        "n_points": 601,
    },
    "peaks": {
        "kd_min": 0.55 * PI,
        "kd_max": 1.45 * PI,
        "n_kd": 46,
        "gamma0": 0.025,
        "gamma_nr": 0.025,
        "bracket_lo": -3.0,
        "bracket_hi": 3.0,
    },
    "concurrence-map": {
        "kd_min": 0.6 * PI,
        "kd_max": 2.4 * PI,
        "n_kd": 91,
        "delta_min": -2.0,
        "delta_max": 2.0,
        "n_delta": 81,
        "gamma0": 0.0,
        "gamma_nr": 0.0,
    },
    "phase": {
        "gamma_prime": [0.0, 0.025, 0.125],
        "delta_min": -2.0,
        "delta_max": 2.0,
        "n_points": 401,
        "kd_policy": "even",
    },
    "oracle-verify": {
        "mode": "full",
        "tolerance": 1e-3,
        "sigma_k": 0.02,
    },
    "storage": {
        "pulse_ratio": [5.0, 10.0, 20.0, 50.0],
        "parity": "even",
        "sigma_t": 10.0,
    },
}

_ORACLE_KD = (0.5 * PI, 0.65 * PI, PI, 1.35 * PI, 2.0 * PI)
_ORACLE_DELTA = (-2.0, -1.3, 1.2, 1.7, 2.3)
_ORACLE_GAMMA = (0.0, 0.05)


@dataclass
class Table:
    name: str  # file stem; the writer appends .csv/.json
    columns: list[str]
    rows: list[list]


@dataclass
class CommandResult:
    tables: list[Table]
    report: dict | None = None  # replaces tables when format is json
    exit_code: int = 0
    default_format: str = "csv"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the interface reserves 2
    for domain-contract violations, so usage errors become ConfigError."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise ConfigError(message)


class _WarningCollector(logging.Handler):
    def __init__(self, sink: list[str]) -> None:
        super().__init__(level=logging.WARNING)
        self.sink = sink
        self.setFormatter(logging.Formatter("%(name)s: %(message)s"))

    def emit(self, record: logging.LogRecord) -> None:
        self.sink.append(self.format(record))


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dotwire",
        description="Two-emitter waveguide scattering, entanglement, "
        "verification, and storage calculations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument("--config", metavar="FILE",
                        help="INI file with per-command defaults")
    parser.add_argument("--out", metavar="DIR",
                        help="write data files plus manifest.json into this "
                        "directory instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv; oracle-verify "
                        "defaults to json)")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("spectrum", help="T/R/loss detuning sweeps")
    p.add_argument("--kd", type=float, action="append",
                   help="emitter spacing phase; repeatable")
    p.add_argument("--gamma0", type=float,
                   help="free-space radiative rate of each emitter")
    p.add_argument("--gamma-nr", type=float, action="append", dest="gamma_nr",
                   help="non-radiative rate; repeatable (one file per value)")
    p.add_argument("--sr", choices=("off", "on", "both"),
                   help="include the collective emission term")
    p.add_argument("--single-dot", action="store_const", const=True,
                   dest="single_dot",
                   help="emit only the single-emitter reference spectrum")
    p.add_argument("--gamma-prime", type=float, dest="gamma_prime",
                   help="total loss rate for the single-emitter reference")
    p.add_argument("--delta-min", type=float, dest="delta_min")
    p.add_argument("--delta-max", type=float, dest="delta_max")
    p.add_argument("--n-points", type=int, dest="n_points")

    p = sub.add_parser("peaks", help="reflection-peak position vs spacing")
    p.add_argument("--kd-min", type=float, dest="kd_min")
    p.add_argument("--kd-max", type=float, dest="kd_max")
    p.add_argument("--n-kd", type=int, dest="n_kd")
    p.add_argument("--gamma0", type=float)
    p.add_argument("--gamma-nr", type=float, dest="gamma_nr")
    p.add_argument("--bracket-lo", type=float, dest="bracket_lo")
    p.add_argument("--bracket-hi", type=float, dest="bracket_hi")

    p = sub.add_parser("concurrence-map",
                       help="post-selected concurrence over (kd, delta)")
    p.add_argument("--kd-min", type=float, dest="kd_min")
    p.add_argument("--kd-max", type=float, dest="kd_max")
    p.add_argument("--n-kd", type=int, dest="n_kd")
    p.add_argument("--delta-min", type=float, dest="delta_min")
    p.add_argument("--delta-max", type=float, dest="delta_max")
    p.add_argument("--n-delta", type=int, dest="n_delta")
    p.add_argument("--gamma0", type=float)
    p.add_argument("--gamma-nr", type=float, dest="gamma_nr")

    p = sub.add_parser("phase",
                       help="relative phase along a high-concurrence branch")
    p.add_argument("--gamma-prime", type=float, action="append",
                   dest="gamma_prime", help="total loss rate; repeatable")
    p.add_argument("--delta-min", type=float, dest="delta_min")
    p.add_argument("--delta-max", type=float, dest="delta_max")
    p.add_argument("--n-points", type=int, dest="n_points")
    p.add_argument("--kd-policy", choices=("even", "odd"), dest="kd_policy")

    p = sub.add_parser("oracle-verify",
                       help="time-domain lattice check of the amplitudes")
    p.add_argument("--quick", action="store_const", const="quick",
                   dest="mode", help="three spot points instead of the "
                   "full matrix")
    p.add_argument("--coarse", action="store_const", const="coarse",
                   dest="mode", help="2x2x2 sub-matrix")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--sigma-k", type=float, dest="sigma_k",
                   help="probe packet spectral width")

    p = sub.add_parser("storage", help="metastable storage efficiency")
    p.add_argument("--pulse-ratio", type=float, action="append",
                   dest="pulse_ratio",
                   help="bright-to-metastable decay ratio P; repeatable")
    p.add_argument("--parity", choices=("even", "odd"))
    p.add_argument("--sigma-t", type=float, dest="sigma_t")

    return parser


def _resolve(command: str, args: argparse.Namespace,
             config: dict[str, dict[str, object]]) -> dict[str, object]:
    effective = dict(_DEFAULTS[command])
    effective.update(config.get(command, {}))
    for key in _DEFAULTS[command]:
        value = getattr(args, key, None)
        if value is not None:
            effective[key] = value
    return effective


def _num(value: float) -> str:
    return f"{value:.6g}"


def _cmd_spectrum(p: dict) -> CommandResult:
    grid = (p["delta_min"], p["delta_max"], p["n_points"])

    def single_table() -> Table:
        rows = []
        for delta in np.linspace(*grid):
            sol = solve_single_dot(p["gamma_prime"], delta)
            rows.append([delta, sol.T, sol.R, sol.Loss])
        return Table(f"spectrum_single_gp{_num(p['gamma_prime'])}",
                     ["delta", "T", "R", "Loss"], rows)

    if p["single_dot"]:
        return CommandResult(tables=[single_table()])

    sr_flags = {"off": (False,), "on": (True,), "both": (True, False)}[p["sr"]]
    tables: list[Table] = []
    for kd in p["kd"]:
        for gnr in p["gamma_nr"]:
            for sr in sr_flags:
                params = ModelParams(kd=kd, gamma0=p["gamma0"], gamma_nr=gnr,
                                     include_superradiance=sr)
                rows = [[row.delta, row.T, row.R, row.Loss]
                        for row in sweep_detuning(params, *grid)]
                name = (f"spectrum_kd{_num(kd)}_gnr{_num(gnr)}"
                        f"_{'sr' if sr else 'nosr'}")
                tables.append(Table(name, ["delta", "T", "R", "Loss"], rows))
    tables.append(single_table())
    return CommandResult(tables=tables)


def _cmd_peaks(p: dict) -> CommandResult:
    kd_values = np.linspace(p["kd_min"], p["kd_max"], p["n_kd"])
    base = ModelParams(kd=1.0, gamma0=p["gamma0"], gamma_nr=p["gamma_nr"])
    without, with_sr = peak_position_curve(
        kd_values, base, bracket=(p["bracket_lo"], p["bracket_hi"])
    )
    rows = [[r.kd, r.delta_peak, r.R_peak, int(r.with_sr)]
            for r in (*with_sr, *without)]
    return CommandResult(tables=[
        Table("peaks", ["kd", "delta_peak", "R_peak", "with_sr"], rows)
    ])


def _cmd_concurrence_map(p: dict) -> CommandResult:
    cells = concurrence_map(
        np.linspace(p["kd_min"], p["kd_max"], p["n_kd"]),
        np.linspace(p["delta_min"], p["delta_max"], p["n_delta"]),
        ModelParams(kd=1.0, gamma0=p["gamma0"], gamma_nr=p["gamma_nr"]),
    )
    rows = [[c.kd, c.delta, c.concurrence] for c in cells]
    return CommandResult(tables=[
        Table("concurrence_map", ["kd", "delta", "C"], rows)
    ])


def _cmd_phase(p: dict) -> CommandResult:
    deltas = np.linspace(p["delta_min"], p["delta_max"], p["n_points"])
    rows: list[list] = []
    for gp in p["gamma_prime"]:
        for pt in phase_scan(deltas, gp, kd_policy=p["kd_policy"]):
            rows.append([pt.delta, gp, pt.theta])
    return CommandResult(tables=[
        Table("phase", ["delta", "gamma_prime", "theta"], rows)
    ])


def _oracle_points(mode: str) -> list[tuple[float, float, float, bool]]:
    if mode == "quick":
        return [
            (0.25 * PI, -0.5, 0.0, False),
            (0.25 * PI, 0.0, 0.05, False),
            (0.25 * PI, 0.3, 0.05, True),
        ]
    if mode == "coarse":
        return [
            (kd, delta, gp, False)
            for kd in (0.65 * PI, 1.35 * PI)
            for delta in (-1.3, 1.7)
            for gp in _ORACLE_GAMMA
        ]
    return [
        (kd, delta, gp, False)
        for kd in _ORACLE_KD
        for delta in _ORACLE_DELTA
        for gp in _ORACLE_GAMMA
    ]


def _cmd_oracle_verify(p: dict) -> CommandResult:
    packet = WavepacketSpec(sigma_k=p["sigma_k"])
    tolerance = p["tolerance"]

    def check(point: tuple[float, float, float, bool]) -> dict:
        kd, delta, gp, with_sr = point
        if with_sr:
            params = ModelParams(kd=kd, delta=delta, gamma0=gp / 2,
                                 gamma_nr=gp / 2, k0d=kd,
                                 include_superradiance=True)
        else:
            params = ModelParams(kd=kd, delta=delta, gamma_nr=gp)
        exact = solve_two_dot(params)
        entry = {
            "kd": kd,
            "delta": delta,
            "gamma_prime": gp,
            "with_sr": with_sr,
        }
        try:
            oracle = scattering_oracle(params, packet)
        except NotConverged as exc:
            # An unsettled point is reported as a failing row rather than
            # aborting the rest of the matrix.
            entry.update(t_error=math.nan, r_error=math.nan,
                         within_tolerance=False, note=str(exc))
            return entry
        entry.update(
            t_error=abs(oracle.t - exact.t),
            r_error=abs(oracle.r - exact.r),
        )
        entry["within_tolerance"] = bool(
            max(entry["t_error"], entry["r_error"]) <= tolerance
        )
        return entry

    points = [check(point) for point in _oracle_points(p["mode"])]
    finite = [max(pt["t_error"], pt["r_error"]) for pt in points
              if not math.isnan(pt["t_error"])]
    max_error = max(finite) if finite else math.nan
    all_ok = all(pt["within_tolerance"] for pt in points)
    report = {
        "mode": p["mode"],
        "sigma_k": p["sigma_k"],
        "tolerance": tolerance,
        "n_points": len(points),
        "max_error": max_error,
        "all_within_tolerance": all_ok,
        "points": points,
    }
    rows = [[pt["kd"], pt["delta"], pt["gamma_prime"], int(pt["with_sr"]),
             pt["t_error"], pt["r_error"], int(pt["within_tolerance"])]
            for pt in points]
    if not all_ok:
        print(
            f"error: lattice check disagrees with the solver beyond "
            f"tolerance {tolerance:.3e} (max error {max_error:.3e})",
            file=sys.stderr,
        )
    return CommandResult(
        tables=[Table(
            "oracle_verify",
            ["kd", "delta", "gamma_prime", "with_sr", "t_error", "r_error",
             "within_tolerance"],
            rows,
        )],
        report=report,
        exit_code=0 if all_ok else 2,
        default_format="json",
    )


def _cmd_storage(p: dict) -> CommandResult:
    def run(ratio: float) -> list:
        result = simulate_storage(
            StorageParams(pulse_ratio=ratio, parity=p["parity"],
                          sigma_t=p["sigma_t"])
        )
        return [ratio, result.efficiency, 1.0 - 1.0 / ratio]

    rows = [run(ratio) for ratio in p["pulse_ratio"]]
    return CommandResult(tables=[
        Table("storage", ["P", "efficiency", "bound"], rows)
    ])


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "peaks": _cmd_peaks,
    "concurrence-map": _cmd_concurrence_map,
    "phase": _cmd_phase,
    "oracle-verify": _cmd_oracle_verify,
    "storage": _cmd_storage,
}


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    return "nan" if math.isnan(value) else f"{value:.17e}"


def _json_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return None if math.isnan(value) else value


def _table_csv(table: Table) -> str:
    lines = [",".join(table.columns)]
    lines.extend(
        ",".join(_csv_cell(v) for v in row) for row in table.rows
    )
    return "\n".join(lines) + "\n"


def _table_json(table: Table) -> str:
    doc = {
        "columns": table.columns,
        "rows": [[_json_cell(v) for v in row] for row in table.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def _render_stdout(result: CommandResult, fmt: str) -> str:
    if fmt == "json":
        if result.report is not None:
            return json.dumps(result.report, indent=2) + "\n"
        if len(result.tables) == 1:
            return _table_json(result.tables[0])
        doc = {
            "tables": [
                {
                    "name": t.name,
                    "columns": t.columns,
                    "rows": [[_json_cell(v) for v in row] for row in t.rows],
                }
                for t in result.tables
            ]
        }
        return json.dumps(doc, indent=2) + "\n"
    if len(result.tables) == 1:
        return _table_csv(result.tables[0])
    parts = [f"# {t.name}.csv\n{_table_csv(t)}" for t in result.tables]
    return "".join(parts)


def _render_files(result: CommandResult, fmt: str) -> list[tuple[str, str]]:
    if fmt == "json":
        if result.report is not None:
            return [("report.json", json.dumps(result.report, indent=2) + "\n")]
        return [(f"{t.name}.json", _table_json(t)) for t in result.tables]
    return [(f"{t.name}.csv", _table_csv(t)) for t in result.tables]


def _write_outputs(
    out_dir: str,
    files: list[tuple[str, str]],
    command: str,
    fmt: str,
    parameters: dict,
    wall_time: float,
    warnings: list[str],
) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    manifest_path = directory / "manifest.json"
    # an old manifest would describe files this run is about to replace
    manifest_path.unlink(missing_ok=True)
    try:
        entries = []
        for name, text in files:
            path = directory / name
            _write_file(path, text)
            written.append(path)
            payload = text.encode("utf-8")
            entries.append({
                "path": name,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "size_bytes": len(payload),
            })
        manifest = {
            "command": command,
            "version": __version__,
            "format": fmt,
            "parameters": parameters,
            "outputs": entries,
            "wall_time_s": round(wall_time, 3),
            "warnings": warnings,
        }
        _write_file(manifest_path, json.dumps(manifest, indent=2) + "\n")
    except BaseException:
        for path in (manifest_path, *written):
            path.unlink(missing_ok=True)
        raise


def _write_file(path: Path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it into
    place, so path never holds a partial file."""
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("a subcommand is required (see --help)")
        config = load_config(args.config) if args.config else {}
        effective = _resolve(args.command, args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    warnings: list[str] = []
    collector = _WarningCollector(warnings)
    root = logging.getLogger("dotwire")
    root.addHandler(collector)
    started = time.perf_counter()
    try:
        result = _COMMANDS[args.command](effective)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _CONTRACT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        root.removeHandler(collector)
    wall_time = time.perf_counter() - started

    fmt = args.format or result.default_format
    if args.out:
        try:
            _write_outputs(args.out, _render_files(result, fmt),
                           args.command, fmt, effective, wall_time, warnings)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(_render_stdout(result, fmt))
    return result.exit_code
