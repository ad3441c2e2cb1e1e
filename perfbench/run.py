"""dotwire benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures|oracle|storage \
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout, never from an
installed copy. With ``--trace 0`` the job list runs again and again, one
job at a time, for about ``--seconds`` seconds of jobs; set-up is timed in
fresh interpreters between the passes, and the end-to-end metrics are
printed. Each time is corrected for other load on the machine by a speed
probe sampled throughout (``harness.SpeedSampler``), and each time metric
is a median over a job's repeats. With ``--trace 1`` untraced and traced
passes alternate for about ``--seconds`` seconds, and the per-layer
metrics of the fastest traced pass are printed.
Every job is checked; a failed job is counted, never retried. The last
line of stdout is the result object; a full record goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "max_err_ratio": "1",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "oracle", "storage"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _timed_pass(workloads, jobs, workdir, tracer=None, before_job=None):
    started = time.perf_counter()
    results = workloads.run_pass(jobs, workdir, tracer, before_job)
    return time.perf_counter() - started, results


def _total(result) -> float:
    return result.total_s


def _latency(result) -> float:
    return result.latency_s


def _setup_sample(harness, workloads, sampler):
    """One fresh-interpreter set-up time and when it started. The probe
    timer stops meanwhile, since the child shares this process's CPU."""
    sampler.stop()
    started = time.perf_counter()
    (seconds,) = harness.measure_setup(SRC, workloads.WARMUP, 1)
    sampler.start()
    return started, seconds


def _run_untraced(harness, workloads, jobs, workdir, seconds):
    """Passes over the job list for about ``seconds`` seconds of jobs.

    The first pass is always whole. After it, a job starts only if its
    median time so far still fits before the deadline. One set-up sample
    is taken before the first pass and after each pass until there are
    SETUP_REPEATS; their time does not count against ``seconds``. The
    speed sampler runs throughout.
    """
    sampler = harness.SpeedSampler()
    sampler.start()
    try:
        setups = [_setup_sample(harness, workloads, sampler)]
        passes = []
        deadline = time.perf_counter() + seconds
        while True:
            typical = (harness.median_per_job(passes, _total)
                       if passes else None)

            def before_job(index):
                return (typical is None
                        or time.perf_counter() + typical[index] <= deadline)

            _, batch = _timed_pass(workloads, jobs, workdir, None,
                                   before_job)
            if batch:
                passes.append(batch)
            if len(batch) < len(jobs):
                break
            if len(setups) < SETUP_REPEATS:
                setups.append(_setup_sample(harness, workloads, sampler))
                deadline += setups[-1][1]
        while len(setups) < SETUP_REPEATS:
            setups.append(_setup_sample(harness, workloads, sampler))
    finally:
        sampler.stop()
    return passes, setups, sampler


def _run_traced(harness, workloads, jobs, workdir, seconds):
    """Untraced and traced passes, in pairs, for about ``seconds`` seconds.

    Returns every pass, the per-layer metrics of the fastest traced pass
    and the names marked missing. The tracing overhead compares the job
    lists' median times, traced against untraced.
    """
    untraced, traced = [], []
    fastest = None
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() + sum(
            harness.median_per_job(untraced, _total)) + sum(
            harness.median_per_job(traced, _total)) <= deadline:
        _, batch = _timed_pass(workloads, jobs, workdir)
        untraced.append(batch)
        tracer = workloads.install_tracer()
        try:
            wall, batch = _timed_pass(workloads, jobs, workdir, tracer)
        finally:
            tracer.close()
        traced.append(batch)
        if fastest is None or wall < fastest[0]:
            fastest = (wall, tracer, batch)
    overhead = (sum(harness.median_per_job(traced, _total))
                / sum(harness.median_per_job(untraced, _total)))
    wall, tracer, batch = fastest
    layer, missing = workloads.layer_metrics(batch, tracer, wall, overhead)
    return untraced + traced, layer, missing + tracer.missing, tracer


def _finite(value: float) -> float:
    # a failed check can make a ratio infinite; JSON has no infinity
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dotwire" / "__init__.py").is_file():
        print(f"error: no dotwire sources under {SRC}", file=sys.stderr)
        return 2
    import harness

    for var in harness.BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import workloads

    import dotwire
    if Path(dotwire.__file__).resolve().parent != SRC / "dotwire":
        print(f"error: imported dotwire from {dotwire.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    exec(workloads.WARMUP, {})
    env = harness.environment()
    jobs = workloads.make_jobs(args.workload, args.seed)
    workdir = HERE / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs "
          f"per pass, env {json.dumps(env, sort_keys=True)}")
    missing, setups, raw = [], [], {}
    if args.trace == 0:
        passes, setups, sampler = _run_untraced(harness, workloads, jobs,
                                                workdir, args.seconds)
    else:
        passes, layer, missing, tracer = _run_traced(
            harness, workloads, jobs, workdir, args.seconds)
        tracer.write_csv(results_dir / f"spans-{args.workload}.csv")
    shutil.rmtree(workdir, ignore_errors=True)

    results = [r for batch in passes for r in batch]
    attempted = len(results)
    failed = sum(not r.ok for r in results)
    if args.trace == 0:
        def slowdown(r):
            return sampler.slowdown(r.started, r.started + r.total_s)

        def corrected(value):
            return lambda r: value(r) / slowdown(r)

        total = harness.median_per_job(passes, corrected(_total))
        latency = harness.median_per_job(passes, corrected(_latency))
        values = {
            "setup_s": statistics.median(
                seconds / sampler.slowdown(started, started)
                for started, seconds in setups),
            "wall_s": sum(total),
            "job_p50_s": harness.percentile(latency, 50),
            "job_p90_s": harness.percentile(latency, 90),
            "max_err_ratio": _finite(max(r.err_ratio for r in results)),
            "ok_frac": 1.0 - harness.failed_frac(failed, attempted),
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
        raw_latency = harness.median_per_job(passes, _latency)
        raw = {
            "setup_s": statistics.median(s for _, s in setups),
            "wall_s": sum(harness.median_per_job(passes, _total)),
            "job_p50_s": harness.percentile(raw_latency, 50),
            "job_p90_s": harness.percentile(raw_latency, 90),
            "mean_slowdown": statistics.fmean(map(slowdown, results)),
            "probe_samples": len(sampler.costs),
            "probe_fast_us": sampler.fast_cost() * 1e6,
        }
    else:
        metrics = {k: {"value": layer[k], "unit": spec[0]}
                   for k, spec in workloads.PER_LAYER.items()}

    for number, batch in enumerate(passes):
        for r in batch:
            state = "ok" if r.ok else f"FAILED {r.exception or ''}"
            figures = " ".join(f"{c.name}={c.value:.3g}/{c.limit:.3g}"
                               for c in r.checks)
            slow = (f" (slowdown {slowdown(r):.2f})" if args.trace == 0
                    else "")
            print(f"  pass {number} {r.latency_s:9.4f} s{slow}  "
                  f"{r.job.label}: {state} {figures}")
    print(f"passes {len(passes)}: "
          f"{', '.join(f'{sum(map(_total, b)):.3f}' for b in passes)} s; "
          f"{attempted} jobs, {failed} failed")
    notes = {"job_p50_s": f" (over {len(jobs)} jobs)",
             "job_p90_s": f" (over {len(jobs)} jobs)"}
    notes.update((name, " (missing)") for name in missing)
    for name, metric in metrics.items():
        note = notes.get(name, "")
        if name in raw:
            note += f" (uncorrected {raw[name]:.6g})"
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    if raw:
        print(f"  mean slowdown {raw['mean_slowdown']:.3f} over "
              f"{raw['probe_samples']} probe samples, fast probe "
              f"{raw['probe_fast_us']:.1f} us")
    if args.trace == 1 and missing:
        print(f"missing bindings or metrics: {', '.join(missing)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_times_s": [seconds for _, seconds in setups],
        "uncorrected": raw,
        "jobs": [{"pass": number, "label": r.job.label,
                  "params": r.job.params, "latency_s": r.latency_s,
                  "total_s": r.total_s,
                  "slowdown": slowdown(r) if args.trace == 0 else None,
                  "ok": r.ok,
                  "exception": r.exception, "info": r.info,
                  "checks": [[c.name, c.value, c.limit] for c in r.checks]}
                 for number, batch in enumerate(passes) for r in batch],
        "metrics": metrics,
        "missing": missing,
    }
    (results_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
