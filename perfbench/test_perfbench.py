"""Tests of the benchmark harness itself: its arithmetic, its tracer and
its correctness gates. The oracle is replaced by fakes here, so nothing in
this file runs a lattice simulation."""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
import numpy as np  # noqa: E402
from dotwire import cli, lattice, model, storage  # noqa: E402
from harness import Span  # noqa: E402


def test_percentile_matches_inclusive_quantiles():
    values = [0.3, 5.0, 1.2, 9.9, 2.2, 7.1, 4.4, 0.8, 6.6, 3.3, 8.0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    assert harness.percentile(values, 90) == pytest.approx(deciles[8])
    assert harness.percentile(values, 50) == statistics.median(values)
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert harness.percentile([7.0], 90) == 7.0


def test_percentile_rejects_empty_sample_and_bad_q():
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 101)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("bench.job", 0.0, 10.0, -1, 0, None),
        Span("cli.main", 1.0, 9.0, 0, 0, None),
        Span("spectra.peak", 2.0, 6.0, 1, 0, None),
        Span("model.solve", 3.0, 4.0, 2, 0, None),
        Span("model.solve", 4.5, 5.0, 2, 0, None),
        Span("model.solve", 7.0, 8.0, 1, 0, None),
    ]
    assert harness.self_times(spans) == pytest.approx(
        [2.0, 3.0, 2.5, 1.0, 0.5, 1.0])
    # self times of a tree add up to its root's duration
    assert sum(harness.self_times(spans)) == pytest.approx(10.0)


def test_failed_frac():
    assert harness.failed_frac(0, 9) == 0.0
    assert harness.failed_frac(2, 8) == 0.25
    with pytest.raises(ValueError):
        harness.failed_frac(0, 0)
    with pytest.raises(ValueError):
        harness.failed_frac(3, 2)


def _fake_module():
    fake = types.ModuleType("fake")

    def outer(x):
        return fake.inner(x) + 1

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    fake.outer, fake.inner = outer, inner
    return fake


def test_tracer_records_nesting_errors_and_missing_bindings():
    fake = _fake_module()
    original_inner = fake.inner
    tracer = harness.Tracer()
    tracer.wrap(fake, "outer", "layer.outer")
    tracer.wrap(fake, "inner", "layer.inner")
    tracer.wrap(fake, "gone", "layer.gone")
    try:
        with tracer.job(3):
            assert fake.outer(2) == 3
            with pytest.raises(ValueError):
                fake.inner(-1)
    finally:
        tracer.close()
    assert fake.inner is original_inner
    assert tracer.missing == ["fake.gone"]
    assert tracer.installed == {"layer.outer", "layer.inner"}
    names = [s.name for s in tracer.spans]
    assert names == ["bench.job", "layer.outer", "layer.inner", "layer.inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert [s.error for s in tracer.spans] == [None, None, None, "ValueError"]
    assert {s.job for s in tracer.spans} == {3}


def test_generator_is_seeded_and_fixed_in_size():
    for workload in workloads.GENERATORS:
        first = workloads.make_jobs(workload, 7)
        assert first == workloads.make_jobs(workload, 7)
        other = workloads.make_jobs(workload, 8)
        assert [j.kind for j in other] == [j.kind for j in first]
        assert other != first


def test_oracle_jobs_keep_the_worst_point_at_fixed_work():
    seen = set()
    for seed in range(20):
        jobs = workloads.make_jobs("oracle", seed)
        points = [(j.params["kd"], j.params["delta"], j.params["gamma_prime"],
                   j.params["with_sr"]) for j in jobs if j.kind == "oracle"]
        assert points[0] == workloads.QUICK_POINTS[0]
        kd, delta, gamma, with_sr = points[1]
        assert kd in workloads.MATRIX_KD and not with_sr
        assert delta in workloads.MATRIX_INNER_DELTA
        assert gamma in workloads.MATRIX_GAMMA
        seen.add(points[1])
    assert len(seen) > 5


def test_storage_jobs_keep_the_anchor_pair():
    for seed in range(20):
        jobs = workloads.make_jobs("storage", seed)
        anchor = [(j.params["pulse_ratio"], j.params["sigma_t"],
                   j.params["parity"]) for j in jobs[:2]]
        assert anchor == [(*workloads.STORAGE_ANCHOR, "even"),
                          (*workloads.STORAGE_ANCHOR, "odd")]
        assert [j.params["sigma_t"] for j in jobs] == [10.0, 10.0, 20.0,
                                                       10.0]


def test_median_per_job_over_passes_cut_short():
    passes = [[3.0, 5.0, 2.0], [2.5, 6.0, 2.2], [2.9]]
    assert harness.median_per_job(passes) == [2.9, 5.5, 2.1]
    assert harness.median_per_job([[1.0, 4.0]], lambda x: -x) == [-1.0,
                                                                  -4.0]
    with pytest.raises(ValueError):
        harness.median_per_job([])


def test_slowdown_is_mean_probe_cost_over_the_reference():
    sampler = harness.SpeedSampler()
    assert sampler.slowdown(0.0, 1.0) == 1.0
    # 40 samples, 0.1 s apart; the machine is slow (cost 2) from t = 2 on
    sampler.reference = 1.0
    sampler.times = [0.1 * (i + 1) for i in range(40)]
    sampler.costs = [1.0 if i < 19 else 2.0 for i in range(40)]
    assert sampler.fast_cost() == 1.0
    assert sampler.slowdown(0.05, 1.85) == pytest.approx(1.0)
    assert sampler.slowdown(2.05, 4.0) == pytest.approx(2.0)
    # a short window is widened to the 8 nearest samples, 4 fast, 4 slow
    assert sampler.slowdown(1.95, 1.95) == pytest.approx(1.5)
    assert sampler.slowdown(-1.0, -1.0) == pytest.approx(1.0)
    sampler.reference = 0.5
    assert sampler.slowdown(0.05, 1.85) == pytest.approx(2.0)


def test_speed_sampler_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = harness.SpeedSampler(interval=0.01)
    sampler.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    sampler.stop()
    assert len(sampler.costs) >= 5
    assert all(c > 0 for c in sampler.costs)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _fake_oracle(shift):
    def fake(params, packet, grid=None):
        exact = model.solve_two_dot(params)
        return lattice.OracleResult(t=exact.t + shift, r=exact.r,
                                    n_modes=10, n_steps=5, t_final=1.0,
                                    dot_population=1e-9, wall_time=0.0)
    return fake


def test_wrong_oracle_result_counts_as_failed_job(monkeypatch, tmp_path):
    job = workloads.make_jobs("oracle", 0)[0]
    monkeypatch.setattr(lattice, "scattering_oracle", _fake_oracle(0.01))
    (bad,) = workloads.run_pass([job], tmp_path)
    assert not bad.ok and bad.total_s >= bad.latency_s
    assert bad.err_ratio == pytest.approx(10.0)
    monkeypatch.setattr(lattice, "scattering_oracle", _fake_oracle(0.0))
    (good,) = workloads.run_pass([job], tmp_path)
    assert good.ok and good.err_ratio == 0.0
    failed = sum(not r.ok for r in (bad, good))
    assert harness.failed_frac(failed, 2) == 0.5


def test_oracle_exception_is_a_failed_job_not_a_crash(monkeypatch, tmp_path):
    def broken(params, packet, grid=None):
        raise lattice.NotConverged("emitter population stays high")

    monkeypatch.setattr(lattice, "scattering_oracle", broken)
    (result,) = workloads.run_pass(workloads.make_jobs("oracle", 0)[:1],
                                   tmp_path)
    assert not result.ok
    assert result.exception.startswith("NotConverged")


def test_parity_gate_needs_the_even_partner(monkeypatch, tmp_path):
    calls = []

    def fake_storage(params, omega=None):
        calls.append(params.parity)
        if params.parity == "even" and len(calls) > 3:
            raise storage.PopulationUnderflow("fake")
        return types.SimpleNamespace(
            efficiency=1.0 - 1.0 / params.pulse_ratio + 1e-4,
            t=np.arange(11.0), nu=np.arange(3.0))

    monkeypatch.setattr(storage, "simulate_storage", fake_storage)
    jobs = workloads.make_jobs("storage", 0)[:3]
    results = workloads.run_pass(jobs, tmp_path)
    assert all(r.ok for r in results)
    assert [[c.name for c in r.checks] for r in results] == [
        ["efficiency_gap"], ["efficiency_gap", "parity_gap"],
        ["efficiency_gap"]]
    assert results[0].info["mode_steps"] == 30
    # the even run fails, so its odd partner's parity gate fails too
    even, odd, _ = workloads.run_pass(jobs, tmp_path)
    assert not even.ok and not odd.ok
    assert {c.name: c.passed for c in odd.checks}["parity_gap"] is False


def _small_phase_job():
    return workloads._cli_job("phase", {"gamma_prime": [0.0, 0.05],
                                        "n_points": 5})


def test_cli_job_passes_and_checks_the_manifest(monkeypatch, tmp_path):
    (result,) = workloads.run_pass([_small_phase_job()], tmp_path)
    assert result.ok, result.checks
    assert result.info["bytes_written"] > 0

    real_main = cli.main

    def tampering_main(argv):
        code = real_main(argv)
        out = Path(argv[argv.index("--out") + 1])
        (out / "phase.csv").write_text("delta,gamma_prime,theta\n")
        return code

    monkeypatch.setattr(cli, "main", tampering_main)
    (tampered,) = workloads.run_pass([_small_phase_job()], tmp_path)
    assert not tampered.ok
    assert {c.name: c.value for c in tampered.checks}[
        "manifest_mismatches"] == 1


def test_pass_stops_at_the_first_job_that_does_not_fit(tmp_path):
    jobs = [_small_phase_job(), _small_phase_job()]
    asked = []

    def before_job(index):
        asked.append(index)
        return index < 1

    results = workloads.run_pass(jobs, tmp_path, before_job=before_job)
    assert asked == [0, 1]
    assert len(results) == 1 and results[0].ok


def test_traced_pass_attributes_time_to_layers(tmp_path):
    tracer = workloads.install_tracer()
    try:
        (result,) = workloads.run_pass([_small_phase_job()], tmp_path, tracer)
    finally:
        tracer.close()
    assert result.ok
    assert cli.main.__module__ == "dotwire.cli"
    root = tracer.spans[0]
    wall = root.end - root.start
    values, missing = workloads.layer_metrics([result], tracer, wall, 1.0)
    assert ({"cli.main", "entanglement.phase", "model.solve"}
            <= tracer.installed)
    assert not {"cli.self_s", "model.solve.calls"} & set(missing)
    # 5 detunings x 2 losses, minus the lossless delta = 0 limit point
    assert values["model.solve.calls"] == 9
    assert values["trace.spans"] == len(tracer.spans)
    layer_sum = sum(values[f"{layer}.self_s"] for layer in workloads.LAYERS)
    assert layer_sum + values["trace.unattributed_s"] == pytest.approx(wall)
    assert set(values) == set(workloads.PER_LAYER)


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "harness.py", "workloads.py"):
        shutil.copy(HERE / name, bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_result_line_schema_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    import run
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    for metric in spec["per_layer"]:
        unit, better, _ = workloads.PER_LAYER[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
