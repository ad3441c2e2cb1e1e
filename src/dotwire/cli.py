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
setup infeasible). A library error exits with its class's ``exit_code``.

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

from . import __version__
from .config import OPTIONS, Option, load_config
from .entanglement import concurrence_map, phase_scan
from .errors import ConfigError, NotConverged
from .model import ModelParams, solve_single_dot, solve_two_dot
from .spectra import _linspace, peak_position_curve, sweep_detuning

__all__ = ["main"]

PI = math.pi

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
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for option in OPTIONS[command]:
            _add_option(p, option)
    return parser


def _add_option(parser: _Parser, option: Option) -> None:
    if option.switches:
        for value, help_text in option.switches:
            parser.add_argument(f"--{value}", action="store_const",
                                const=value, dest=option.key, help=help_text)
        return
    kwargs = {
        "float": {"type": float},
        "int": {"type": int},
        "floats": {"type": float, "action": "append"},
        "choice": {"choices": option.choices},
        "flag": {"action": "store_const", "const": True},
    }[option.kind]
    parser.add_argument("--" + option.key.replace("_", "-"), dest=option.key,
                        help=option.help, **kwargs)


def _resolve(command: str, args: argparse.Namespace,
             config: dict[str, dict[str, object]]) -> dict[str, object]:
    effective = {option.key: option.default for option in OPTIONS[command]}
    effective.update(config.get(command, {}))
    for key in effective:
        value = getattr(args, key)
        if value is not None:
            effective[key] = value
    return effective


def _num(value: float) -> str:
    return f"{value:.6g}"


def _grid(p: dict, lo: str, hi: str, n: str, minimum: int = 1) -> list[float]:
    """The uniform grid from option lo to option hi with option n points;
    ValueError, naming the option, for a non-finite end or too few
    points."""
    for key in (lo, hi):
        if not math.isfinite(p[key]):
            raise ValueError(f"{key} must be finite, got {p[key]}")
    if p[n] < minimum:
        raise ValueError(f"{n} must be >= {minimum}, got {p[n]}")
    return _linspace(p[lo], p[hi], p[n])


def _cmd_spectrum(p: dict) -> CommandResult:
    deltas = _grid(p, "delta_min", "delta_max", "n_points", minimum=2)
    if not p["delta_min"] < p["delta_max"]:
        raise ValueError(f"need delta_min < delta_max, got "
                         f"{p['delta_min']} >= {p['delta_max']}")

    def single_table() -> Table:
        rows = []
        for delta in deltas:
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
                        for row in sweep_detuning(params, p["delta_min"],
                                                  p["delta_max"],
                                                  p["n_points"])]
                name = (f"spectrum_kd{_num(kd)}_gnr{_num(gnr)}"
                        f"_{'sr' if sr else 'nosr'}")
                tables.append(Table(name, ["delta", "T", "R", "Loss"], rows))
    tables.append(single_table())
    return CommandResult(tables=tables)


def _cmd_peaks(p: dict) -> CommandResult:
    kd_values = _grid(p, "kd_min", "kd_max", "n_kd")
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
        _grid(p, "kd_min", "kd_max", "n_kd"),
        _grid(p, "delta_min", "delta_max", "n_delta"),
        ModelParams(kd=1.0, gamma0=p["gamma0"], gamma_nr=p["gamma_nr"]),
    )
    rows = [[c.kd, c.delta, c.concurrence] for c in cells]
    return CommandResult(tables=[
        Table("concurrence_map", ["kd", "delta", "C"], rows)
    ])


def _cmd_phase(p: dict) -> CommandResult:
    deltas = _grid(p, "delta_min", "delta_max", "n_points")
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
    from . import lattice  # loads numpy; only this command needs it

    packet = lattice.WavepacketSpec(sigma_k=p["sigma_k"])
    tolerance = p["tolerance"]
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")

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
            oracle = lattice.scattering_oracle(params, packet)
        except NotConverged as exc:
            # An unsettled point is reported as a failing row rather than
            # aborting the rest of the matrix.
            entry.update(t_error=math.nan, r_error=math.nan, n_steps=None,
                         t_final=None, dot_population=None,
                         within_tolerance=False, note=str(exc))
            return entry
        entry.update(
            t_error=abs(oracle.t - exact.t),
            r_error=abs(oracle.r - exact.r),
            n_steps=oracle.n_steps,
            t_final=oracle.t_final,
            dot_population=oracle.dot_population,
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
    from . import storage  # loads numpy; only this command needs it

    def run(ratio: float) -> list:
        result = storage.simulate_storage(
            storage.StorageParams(pulse_ratio=ratio, parity=p["parity"],
                                  sigma_t=p["sigma_t"])
        )
        return [ratio, result.efficiency, 1.0 - 1.0 / ratio]

    rows = [run(ratio) for ratio in p["pulse_ratio"]]
    return CommandResult(tables=[
        Table("storage", ["P", "efficiency", "bound"], rows)
    ])


_COMMANDS = {
    "spectrum": (_cmd_spectrum, "T/R/loss detuning sweeps"),
    "peaks": (_cmd_peaks, "reflection-peak position vs spacing"),
    "concurrence-map": (_cmd_concurrence_map,
                        "post-selected concurrence over (kd, delta)"),
    "phase": (_cmd_phase, "relative phase along a high-concurrence branch"),
    "oracle-verify": (_cmd_oracle_verify,
                      "time-domain lattice check of the amplitudes"),
    "storage": (_cmd_storage, "metastable storage efficiency"),
}


def _csv_cell(value: int | float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.17e}"


def _table_csv(table: Table) -> str:
    lines = [",".join(table.columns)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def _table_doc(table: Table) -> dict:
    return {"columns": table.columns, "rows": table.rows}


def _json_text(doc) -> str:
    return json.dumps(_nulls(doc), indent=2) + "\n"


def _nulls(value):
    """value with every NaN in it, at any depth, replaced by None (null)."""
    if isinstance(value, dict):
        return {key: _nulls(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_nulls(item) for item in value]
    return None if isinstance(value, float) and math.isnan(value) else value


def _render_stdout(result: CommandResult, fmt: str) -> str:
    if fmt == "json" and result.report is None and len(result.tables) > 1:
        return _json_text({"tables": [{"name": t.name, **_table_doc(t)}
                                      for t in result.tables]})
    files = _render_files(result, fmt)
    if len(files) == 1:
        return files[0][1]
    return "".join(f"# {name}\n{text}" for name, text in files)


def _render_files(result: CommandResult, fmt: str) -> list[tuple[str, str]]:
    if fmt == "json":
        if result.report is not None:
            return [("report.json", _json_text(result.report))]
        return [(f"{t.name}.json", _json_text(_table_doc(t)))
                for t in result.tables]
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
        _write_file(manifest_path, _json_text(manifest))
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
        result = _COMMANDS[args.command][0](effective)
    except ValueError as exc:  # every DotwireError included
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
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
