"""Seeded workloads of the dotwire benchmark.

Each workload turns a seed into a fixed job list whose size does not depend
on the seed, so ``wall_s`` is always work at the same stated size; the seed
only moves parameter values inside the families the repository validates.
A job is one user-level request, checked by its own correctness gates:

figures  One CLI figure command (``spectrum``, ``peaks``, ``concurrence-map``,
         ``phase``) through ``cli.main`` with ``--out`` and a generated
         ``--config`` INI. Closed-form path only; lattice and storage idle.
oracle   One ``scattering_oracle`` point against ``solve_two_dot`` (the
         worst ``oracle-verify --quick`` point plus one criterion-07 matrix
         point), or one ``no_jump_equivalence`` check. Lattice time
         stepping does nearly all the work.
storage  One ``simulate_storage`` run (the P = 5, sigma_t = 10 corner at
         both parities and a seeded sigma_t = 20 run) or one ``retrieve``
         run. The uniform-grid storage lattice does the work.

Job lists are kept short (about 3 s for ``figures``, 7 s for the others)
so that a run repeats each job several times and can take the median of
its corrected times.

Library functions are always reached through their module attribute
(``lattice.scattering_oracle``, not an imported name) so the tracer can wrap
them; private names are never touched, so refactors of the internals only
show up as missing spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from dotwire import cli, entanglement, lattice, model, spectra, storage
from dotwire.errors import NoPeakInBracket, SingularSystem

from harness import Tracer, layer_of, self_times

PI = math.pi

# Tolerances of the acceptance criteria the gates restate.
FLUX_TOL = 1e-12  # |T + R + Loss - 1| per spectrum row
ORACLE_TOL = 1e-3  # criterion 07 amplitude error
NO_JUMP_TOL = 1e-8  # criterion 08 trace distance
EFF_TOL = 5e-3  # criterion 09 |efficiency - (1 - 1/P)|
PARITY_TOL = 1e-3  # criterion 09 |efficiency(even) - efficiency(odd)|

# `dotwire oracle-verify --quick`; the first point (lossless, delta = -0.5)
# is the worst the oracle handles at the seed commit (error 5e-4), so every
# job list carries it.
QUICK_POINTS = (
    (0.25 * PI, -0.5, 0.0, False),
    (0.25 * PI, 0.0, 0.05, False),
    (0.25 * PI, 0.3, 0.05, True),
)
# Criterion 07 matrix. The step count of a point is set by its detuning
# alone (the grid edge fixes dt): 17 668 steps at -1.3 and 17 334 at 1.2,
# 20 001 to 21 002 at the outer three. A job list draws its matrix point
# at one of the two inner detunings, so its work is the same within 1 %
# for every seed.
MATRIX_KD = (0.5 * PI, 0.65 * PI, PI, 1.35 * PI, 2.0 * PI)
MATRIX_INNER_DELTA = (-1.3, 1.2)
MATRIX_GAMMA = (0.0, 0.05)
PACKET = lattice.WavepacketSpec(sigma_k=0.02)

# Storage: P = 5 at sigma_t = 10 has the largest efficiency gap of the
# criterion-09 range, so it is in every job list.
STORAGE_ANCHOR = (5.0, 10.0)
STORAGE_P_RANGE = (5.0, 50.0)

WARMUP = (
    "import dotwire\n"
    "from dotwire import cli\n"
    "dotwire.solve_two_dot(dotwire.ModelParams(kd=1.0, delta=0.3, "
    "gamma_nr=0.05))"
)
"""Code a fresh interpreter runs to be ready: the import plus one solve."""


@dataclass(frozen=True)
class Job:
    kind: str
    label: str
    params: dict


@dataclass(frozen=True)
class Check:
    """One gate: the job passes it when value <= limit.

    An accuracy figure (``error=True``) also feeds ``max_err_ratio`` as
    value / limit; a pure bound (exit code, checksum, retrieval norm) only
    passes or fails.
    """

    name: str
    value: float
    limit: float
    error: bool = True

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and self.value <= self.limit


@dataclass
class JobResult:
    job: Job
    latency_s: float
    checks: list[Check] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    exception: str | None = None
    started: float = math.nan
    total_s: float = math.nan

    @property
    def ok(self) -> bool:
        return self.exception is None and all(c.passed for c in self.checks)

    @property
    def err_ratio(self) -> float:
        ratios = [c.value / c.limit if math.isfinite(c.value) else math.inf
                  for c in self.checks if c.error]
        return max(ratios, default=0.0)


# ---------------------------------------------------------------- generators


def _ini(section: str, values: dict) -> str:
    lines = [f"[{section}]"]
    for key, value in values.items():
        if isinstance(value, (list, tuple)):
            value = ", ".join(repr(float(v)) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _cli_job(command: str, values: dict, label: str = "") -> Job:
    return Job("cli", label or command, {"command": command,
                                         "ini": _ini(command, values)})


def figures_jobs(rng: random.Random) -> list[Job]:
    """CLI-default figure ranges; sizes (points, tables, grid) are fixed.

    Five jobs, so ``job_p50_s`` is the third-slowest job's latency and
    ``job_p90_s`` lies between ``concurrence-map`` and ``peaks``.

    Spectra keep loss >= 0.025 (gamma0 = 0.025 plus gamma_nr >= 0.025).
    Peak spacings stay inside (pi/2, 3*pi/2) so no kd is skipped as a
    tangent pole and every seed scans the same number of brackets.
    """
    u = rng.uniform
    return [
        _cli_job("spectrum", {
            "kd": sorted(u(0.25 * PI, 2.0 * PI) for _ in range(2)),
            "gamma0": 0.025,
            "gamma_nr": sorted(u(0.025, 0.5) for _ in range(3)),
            "sr": "on",
            "gamma_prime": u(0.025, 0.5),
        }),
        _cli_job("peaks", {
            "kd_min": u(0.52, 0.58) * PI,
            "kd_max": u(1.42, 1.48) * PI,
            "gamma0": 0.025,
            "gamma_nr": u(0.025, 0.125),
        }),
        _cli_job("concurrence-map", {
            "kd_min": u(0.55, 0.65) * PI,
            "kd_max": u(2.35, 2.45) * PI,
            "delta_min": u(-2.2, -1.8),
            "delta_max": u(1.8, 2.2),
            "gamma_nr": u(0.0, 0.125),
        }),
    ] + [
        _cli_job("phase", {
            "gamma_prime": [0.0] + sorted(u(0.01, 0.125) for _ in range(2)),
            "delta_min": u(-2.2, -1.8),
            "delta_max": u(1.8, 2.2),
            "kd_policy": policy,
        }, f"phase {policy}")
        for policy in ("even", "odd")
    ]


def oracle_jobs(rng: random.Random) -> list[Job]:
    """The worst quick point, one matrix point (kd and loss seeded, one of
    the two inner detunings) and one no-jump check inside criterion 08's
    k0d range."""
    points = [
        QUICK_POINTS[0],
        (rng.choice(MATRIX_KD), rng.choice(MATRIX_INNER_DELTA),
         rng.choice(MATRIX_GAMMA), False),
    ]
    jobs = [
        Job("oracle", f"oracle kd={kd / PI:.2f}pi delta={delta} gp={gp}"
            f"{' sr' if sr else ''}",
            {"kd": kd, "delta": delta, "gamma_prime": gp, "with_sr": sr})
        for kd, delta, gp, sr in points
    ]
    k0d = rng.uniform(0.25, 0.5) * PI
    jobs.append(Job("nojump", f"no-jump k0d={k0d / PI:.3f}pi",
                    {"k0d": k0d, "gamma0": 0.05}))
    return jobs


def storage_jobs(rng: random.Random) -> list[Job]:
    """Anchor pair, one seeded sigma_t = 20 run and a seeded retrieval.

    The step count is set by sigma_t alone, so the work does not depend on
    the seed. The parity gate needs both parities at the same point, and
    the anchor pair supplies them.
    """
    lo, hi = STORAGE_P_RANGE

    def log_uniform() -> float:
        return lo * (hi / lo) ** rng.random()

    ratio, sigma_t = STORAGE_ANCHOR
    runs = [(ratio, "even", sigma_t), (ratio, "odd", sigma_t),
            (log_uniform(), rng.choice(("even", "odd")), 20.0)]
    jobs = [Job("storage", f"storage P={p:.3f} {parity} sigma_t={s:g}",
                {"pulse_ratio": p, "parity": parity, "sigma_t": s})
            for p, parity, s in runs]
    p = log_uniform()
    jobs.append(Job("retrieve", f"retrieve P={p:.3f} sigma_t=10",
                    {"pulse_ratio": p, "sigma_t": 10.0}))
    return jobs


GENERATORS = {
    "figures": figures_jobs,
    "oracle": oracle_jobs,
    "storage": storage_jobs,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ------------------------------------------------------------------- runners


def _spectrum_flux(data: bytes) -> float:
    """Worst |T + R + Loss - 1| over the rows of one spectrum CSV, summed in
    floating point as a reader of the file would."""
    lines = data.decode("utf-8").splitlines()
    if lines[0].split(",") != ["delta", "T", "R", "Loss"]:
        raise ValueError(f"unexpected spectrum header {lines[0]!r}")
    worst = 0.0
    for line in lines[1:]:
        _, t, r, loss = (float(v) for v in line.split(","))
        worst = max(worst, abs(t + r + loss - 1.0))
    return worst


def run_cli(job: Job, ctx: dict) -> JobResult:
    command = job.params["command"]
    work: Path = ctx["workdir"]
    config = work / f"{command}.ini"
    config.write_text(job.params["ini"], encoding="utf-8")
    out = work / f"{command}-out"
    if out.exists():
        shutil.rmtree(out)
    argv = ["--config", str(config), "--out", str(out), command]
    started = time.perf_counter()
    code = cli.main(argv)
    latency = time.perf_counter() - started
    result = JobResult(job, latency, [Check("exit_code", code, 0, False)])
    if code != 0:
        return result

    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    listed = {entry["path"] for entry in manifest["outputs"]}
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    mismatches = len(listed ^ on_disk)
    # data files only: the manifest records a wall time, so its size varies
    written = 0
    flux = []
    for entry in manifest["outputs"]:
        path = out / entry["path"]
        if not path.is_file():
            continue
        data = path.read_bytes()
        written += len(data)
        if (len(data) != entry["size_bytes"]
                or hashlib.sha256(data).hexdigest() != entry["sha256"]):
            mismatches += 1
        if command == "spectrum":
            flux.append(_spectrum_flux(data))
    result.checks.append(Check("manifest_mismatches", mismatches, 0, False))
    if command == "spectrum":
        result.checks.append(Check("flux_identity", max(flux), FLUX_TOL))
    result.info["bytes_written"] = written
    shutil.rmtree(out)
    return result


def _model_params(kd, delta, gamma_prime, with_sr) -> model.ModelParams:
    """Parameters exactly as `oracle-verify` builds them."""
    if with_sr:
        return model.ModelParams(kd=kd, delta=delta, gamma0=gamma_prime / 2,
                                 gamma_nr=gamma_prime / 2, k0d=kd,
                                 include_superradiance=True)
    return model.ModelParams(kd=kd, delta=delta, gamma_nr=gamma_prime)


def run_oracle(job: Job, ctx: dict) -> JobResult:
    params = _model_params(**job.params)
    started = time.perf_counter()
    grid = lattice.make_mode_grid(params.delta)
    exact = model.solve_two_dot(params)
    oracle = lattice.scattering_oracle(params, PACKET, grid=grid)
    latency = time.perf_counter() - started
    error = max(abs(oracle.t - exact.t), abs(oracle.r - exact.r))
    return JobResult(
        job, latency, [Check("amplitude_error", error, ORACLE_TOL)],
        {"steps": oracle.n_steps,
         "mode_steps": oracle.n_steps * oracle.n_modes,
         "oracle_error": error,
         "dot_population": oracle.dot_population},
    )


def run_nojump(job: Job, ctx: dict) -> JobResult:
    started = time.perf_counter()
    report = lattice.no_jump_equivalence(job.params["k0d"],
                                         job.params["gamma0"])
    latency = time.perf_counter() - started
    distance = report.max_trace_distance
    return JobResult(job, latency,
                     [Check("trace_distance", distance, NO_JUMP_TOL)],
                     {"trace_distance": distance})


def _matched_control(params):
    """The default impedance-matched design, made by the benchmark so its
    cost is timed apart from the lattice run."""
    t_grid = storage.storage_time_grid(params)
    envelope = storage.gaussian_input(t_grid, params.sigma_t)
    return storage.impedance_matched_pulse(params.pulse_ratio, t_grid,
                                           envelope).omega


def run_storage(job: Job, ctx: dict) -> JobResult:
    p = job.params
    params = storage.StorageParams(pulse_ratio=p["pulse_ratio"],
                                   parity=p["parity"], sigma_t=p["sigma_t"])
    key = (params.pulse_ratio, params.sigma_t)
    if params.parity == "even":
        # stays nan if the run raises, so the odd partner's parity gate fails
        ctx["even_efficiency"][key] = math.nan
    started = time.perf_counter()
    run = storage.simulate_storage(params, omega=_matched_control(params))
    latency = time.perf_counter() - started
    gap = abs(run.efficiency - (1.0 - 1.0 / params.pulse_ratio))
    steps = run.t.size - 1
    result = JobResult(job, latency, [Check("efficiency_gap", gap, EFF_TOL)],
                       {"steps": steps, "mode_steps": steps * run.nu.size,
                        "eff_gap": gap})
    if params.parity == "even":
        ctx["even_efficiency"][key] = run.efficiency
    elif key in ctx["even_efficiency"]:
        # an odd run whose even partner ran earlier in the pass
        parity_gap = abs(run.efficiency - ctx["even_efficiency"][key])
        result.checks.append(Check("parity_gap", parity_gap, PARITY_TOL))
        result.info["parity_gap"] = parity_gap
    return result


def run_retrieve(job: Job, ctx: dict) -> JobResult:
    params = storage.StorageParams(pulse_ratio=job.params["pulse_ratio"],
                                   sigma_t=job.params["sigma_t"])
    stored = math.sqrt(1.0 - 1.0 / params.pulse_ratio)
    started = time.perf_counter()
    control = _matched_control(params)[::-1].copy()
    out = storage.retrieve(params, stored, omega=control)
    latency = time.perf_counter() - started
    # emitting more than was stored is a norm gain: a bound, not an error
    return JobResult(job, latency, [Check("retrieval_norm", out.emitted_norm,
                                          stored * stored, False)],
                     {"emitted_norm": out.emitted_norm})


RUNNERS = {
    "cli": run_cli,
    "oracle": run_oracle,
    "nojump": run_nojump,
    "storage": run_storage,
    "retrieve": run_retrieve,
}


def run_job(job: Job, ctx: dict) -> JobResult:
    """Run one job; an exception fails it and is recorded, never retried.
    ``total_s`` covers the whole job from ``started``, gates included."""
    started = time.perf_counter()
    try:
        result = RUNNERS[job.kind](job, ctx)
    except Exception as exc:  # every failure is a counted result
        result = JobResult(job, time.perf_counter() - started,
                           exception=f"{type(exc).__name__}: {exc}")
    result.started = started
    result.total_s = time.perf_counter() - started
    return result


def run_pass(jobs: list[Job], workdir: Path, tracer: Tracer | None = None,
             before_job=None) -> list[JobResult]:
    """Run the job list once, in order, as one closed-loop caller.

    ``before_job(index)`` is called before each job; the pass ends early
    at the first False it returns, so result i is always job i.
    """
    ctx = {"workdir": workdir, "even_efficiency": {}}
    results = []
    for index, job in enumerate(jobs):
        if before_job is not None and not before_job(index):
            break
        if tracer is None:
            results.append(run_job(job, ctx))
        else:
            with tracer.job(index):
                results.append(run_job(job, ctx))
    return results


# ------------------------------------------------------------------- tracing


def _count_map_cells(counters, cells) -> None:
    counters["map.cells"] += len(cells)
    counters["map.nan"] += sum(1 for c in cells if math.isnan(c.concurrence))


# (module, binding, span name, observer): each binding is wrapped where its
# caller looks it up, under the caller-visible name.
BINDINGS = (
    (cli, "main", "cli.main", None),
    (cli, "solve_two_dot", "model.solve", None),
    (cli, "solve_single_dot", "model.solve_single", None),
    (cli, "sweep_detuning", "spectra.sweep", None),
    (cli, "peak_position_curve", "spectra.curve", None),
    (cli, "concurrence_map", "entanglement.map", _count_map_cells),
    (cli, "phase_scan", "entanglement.phase", None),
    (spectra, "solve_two_dot", "model.solve", None),
    (spectra, "reflection_peak", "spectra.peak", None),
    (entanglement, "solve_two_dot", "model.solve", None),
    (entanglement, "project_state", "entanglement.project", None),
    (model, "solve_two_dot", "model.solve", None),
    (lattice, "make_mode_grid", "lattice.grid", None),
    (lattice, "scattering_oracle", "lattice.oracle", None),
    (lattice, "build_hamiltonian", "lattice.build", None),
    (lattice, "evolve", "lattice.evolve", None),
    (lattice, "no_jump_equivalence", "lattice.nojump", None),
    (storage, "uniform_mode_grid", "lattice.uniform_grid", None),
    (storage, "storage_time_grid", "storage.design", None),
    (storage, "gaussian_input", "storage.design", None),
    (storage, "impedance_matched_pulse", "storage.design", None),
    (storage, "simulate_storage", "storage.simulate", None),
    (storage, "retrieve", "storage.retrieve", None),
)

LAYERS = ("cli", "model", "spectra", "entanglement", "lattice", "storage")


def install_tracer() -> Tracer:
    tracer = Tracer()
    for module, attr, name, observe in BINDINGS:
        tracer.wrap(module, attr, name, observe)
    return tracer


# name -> (unit, better, span the value is read from or None)
PER_LAYER = {
    "cli.self_s": ("s", "lower", "cli.main"),
    "cli.bytes_written": ("B", "lower", "cli.main"),
    "model.self_s": ("s", "lower", "model.solve"),
    "model.solve.calls": ("count", "lower", "model.solve"),
    "model.solve.self_us": ("us", "lower", "model.solve"),
    "model.solve.singular_frac": ("1", "lower", "model.solve"),
    "spectra.self_s": ("s", "lower", "spectra.peak"),
    "spectra.peak.calls": ("count", "lower", "spectra.peak"),
    "spectra.peak.self_s": ("s", "lower", "spectra.peak"),
    "spectra.peak.yield": ("1", "higher", "spectra.peak"),
    "spectra.sweep.self_s": ("s", "lower", "spectra.sweep"),
    "entanglement.self_s": ("s", "lower", "entanglement.map"),
    "entanglement.map.self_s": ("s", "lower", "entanglement.map"),
    "entanglement.map.nan_frac": ("1", "lower", "entanglement.map"),
    "entanglement.phase.self_s": ("s", "lower", "entanglement.phase"),
    "lattice.self_s": ("s", "lower", "lattice.oracle"),
    "lattice.grid_s": ("s", "lower", "lattice.grid"),
    "lattice.oracle.steps": ("count", "lower", None),
    "lattice.oracle.mode_steps": ("count", "lower", None),
    "lattice.oracle.step_us": ("us", "lower", "lattice.oracle"),
    "lattice.oracle.max_err": ("1", "lower", None),
    "lattice.oracle.max_dot_pop": ("1", "lower", None),
    "lattice.nojump.s": ("s", "lower", "lattice.nojump"),
    "lattice.nojump.trace_dist": ("1", "lower", None),
    "storage.self_s": ("s", "lower", "storage.simulate"),
    "storage.design_s": ("s", "lower", "storage.design"),
    "storage.steps": ("count", "lower", None),
    "storage.mode_steps": ("count", "lower", None),
    "storage.step_us": ("us", "lower", "storage.simulate"),
    "storage.retrieve_s": ("s", "lower", "storage.retrieve"),
    "storage.max_eff_gap": ("1", "lower", None),
    "storage.parity_gap": ("1", "lower", None),
    "trace.wall_s": ("s", "lower", None),
    "trace.overhead": ("1", "lower", None),
    "trace.unattributed_s": ("s", "lower", None),
    "trace.spans": ("count", "lower", None),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(results: list[JobResult], tracer: Tracer,
                  traced_wall: float, overhead: float
                  ) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass that took ``traced_wall``
    seconds, and the names marked missing because the binding they are read
    from no longer exists. ``overhead`` is reported as measured by the
    caller."""
    spans = tracer.spans
    selfs = self_times(spans)
    count, total, own, errors = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, self_s in zip(spans, selfs):
        name = span.name
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + span.end - span.start
        own[name] = own.get(name, 0.0) + self_s
        if span.error:
            errors[(name, span.error)] = errors.get((name, span.error), 0) + 1
        if layer_of(name) in layer_self:
            layer_self[layer_of(name)] += self_s

    def info(key, kind=None):
        return [r.info[key] for r in results
                if key in r.info and kind in (None, r.job.kind)]

    solves = count.get("model.solve", 0)
    peaks = count.get("spectra.peak", 0)
    oracle_steps = sum(info("steps", "oracle"))
    storage_steps = sum(info("steps", "storage"))
    values = {
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": sum(info("bytes_written")),
        "model.self_s": layer_self["model"],
        "model.solve.calls": solves,
        "model.solve.self_us": _ratio(own.get("model.solve", 0.0), solves)
        * 1e6,
        "model.solve.singular_frac": _ratio(
            errors.get(("model.solve", SingularSystem.__name__), 0), solves),
        "spectra.self_s": layer_self["spectra"],
        "spectra.peak.calls": peaks,
        "spectra.peak.self_s": own.get("spectra.peak", 0.0),
        "spectra.peak.yield": _ratio(
            peaks - errors.get(("spectra.peak", NoPeakInBracket.__name__), 0),
            peaks),
        "spectra.sweep.self_s": own.get("spectra.sweep", 0.0),
        "entanglement.self_s": layer_self["entanglement"],
        "entanglement.map.self_s": own.get("entanglement.map", 0.0),
        "entanglement.map.nan_frac": _ratio(tracer.counters["map.nan"],
                                            tracer.counters["map.cells"]),
        "entanglement.phase.self_s": own.get("entanglement.phase", 0.0),
        "lattice.self_s": layer_self["lattice"],
        "lattice.grid_s": total.get("lattice.grid", 0.0),
        "lattice.oracle.steps": oracle_steps,
        "lattice.oracle.mode_steps": sum(info("mode_steps", "oracle")),
        "lattice.oracle.step_us": _ratio(total.get("lattice.oracle", 0.0),
                                         oracle_steps) * 1e6,
        "lattice.oracle.max_err": max(info("oracle_error"), default=0.0),
        "lattice.oracle.max_dot_pop": max(info("dot_population"),
                                          default=0.0),
        "lattice.nojump.s": _ratio(total.get("lattice.nojump", 0.0),
                                   count.get("lattice.nojump", 0)),
        "lattice.nojump.trace_dist": max(info("trace_distance"), default=0.0),
        "storage.self_s": layer_self["storage"],
        "storage.design_s": total.get("storage.design", 0.0),
        "storage.steps": storage_steps,
        "storage.mode_steps": sum(info("mode_steps", "storage")),
        "storage.step_us": _ratio(total.get("storage.simulate", 0.0),
                                  storage_steps) * 1e6,
        "storage.retrieve_s": total.get("storage.retrieve", 0.0),
        "storage.max_eff_gap": max(info("eff_gap"), default=0.0),
        "storage.parity_gap": max(info("parity_gap"), default=0.0),
        "trace.wall_s": traced_wall,
        "trace.overhead": overhead,
        "trace.unattributed_s": traced_wall - sum(layer_self.values()),
        "trace.spans": len(spans),
    }
    missing = [name for name, (_, _, span) in PER_LAYER.items()
               if span is not None and span not in tracer.installed]
    return values, missing
