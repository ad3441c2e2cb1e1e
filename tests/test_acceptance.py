"""Acceptance gate: ten end-to-end criteria with stated tolerances.

Each test prints one summary line (visible with ``pytest -s``); the pytest
verdict per test is the pass/fail signal. Budgets are wall-clock and
asserted where the criterion carries one.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from dotwire import (
    ModelParams,
    StorageParams,
    WavepacketSpec,
    gamma_pm,
    gaussian_input,
    high_c_curve,
    no_jump_equivalence,
    phase_scan,
    project_state,
    reflection_minimum,
    relation_residual,
    scattering_oracle,
    simulate_storage,
    solve_single_dot,
    solve_two_dot,
    storage_time_grid,
    verify_population_identity,
)
from dotwire.cli import main
from gates import worst

PI = math.pi


def _report(n: int, label: str, detail: str) -> None:
    print(f"criterion {n:02d} {label}: PASS ({detail})")


def test_worst_keeps_nan():
    # accumulated with max(), (1e-13, nan, 2e-13) reads 2e-13 and passes
    # criterion 02's bound; accumulated with worst(), it fails it
    by_max = by_worst = 0.0
    for value in (1e-13, math.nan, 2e-13):
        by_max = max(by_max, value)
        by_worst = worst(by_worst, value)
    assert by_max == 2e-13
    assert math.isnan(by_worst)
    assert not by_worst <= 1e-12
    assert worst(0.0, 1e-13, 2e-13) == 2e-13


def test_criterion_01_flux_conservation_lossless():
    kd_grid = np.linspace(0.1, 3 * PI - 0.1, 100)
    delta_grid = np.linspace(-3.0, 3.0, 100)
    started = time.perf_counter()
    worst_flux = 0.0
    for kd in kd_grid:
        for delta in delta_grid:
            sol = solve_two_dot(ModelParams(kd=kd, delta=delta))
            worst_flux = worst(worst_flux, abs(sol.T + sol.R - 1.0))
    elapsed = time.perf_counter() - started
    assert worst_flux <= 1e-10
    assert elapsed < 1.0
    _report(1, "flux conservation",
            f"max |T+R-1| = {worst_flux:.2e} on 100x100 grid in "
            f"{elapsed:.2f}s")


def test_criterion_02_solver_residuals():
    cases = [
        ModelParams(kd=kd, delta=delta, gamma0=g0, gamma_nr=gnr,
                    include_superradiance=sr)
        for kd in np.linspace(0.2, 2.9 * PI, 23)
        for delta in (-2.7, -0.4, 0.05, 1.3)
        for g0, gnr, sr in ((0.0, 0.0, False), (0.025, 0.025, False),
                            (0.025, 0.1, True))
    ]
    worst_carried = 0.0
    worst_backward = 0.0
    for params in cases:
        sol = solve_two_dot(params)
        worst_carried = worst(worst_carried, sol.residual)
        worst_backward = worst(
            worst_backward,
            relation_residual(params, sol.t, sol.r, sol.a, sol.b,
                              sol.xi1, sol.xi2),
        )
    assert worst_carried <= 1e-12
    assert worst_backward <= 1e-12
    _report(2, "solver residuals",
            f"max carried {worst_carried:.2e}, max recomputed "
            f"{worst_backward:.2e} over {len(cases)} calls")


def test_criterion_03_single_emitter_reduction():
    worst_gap = 0.0
    for kd in (2 * PI, 4 * PI):
        for g0, gnr in ((0.0, 0.0), (0.02, 0.03)):
            gp = g0 + gnr
            for delta in np.linspace(-3.0, 3.0, 61):
                if gp == 0.0 and delta == 0.0:
                    continue  # perfect mirror point is singular by design
                two = solve_two_dot(
                    ModelParams(kd=kd, delta=delta, gamma0=g0, gamma_nr=gnr)
                )
                one = solve_single_dot(gp / 2.0, delta / 2.0)
                worst_gap = worst(worst_gap, abs(two.t - one.t),
                                  abs(two.r - one.r))
    assert worst_gap <= 1e-10
    _report(3, "single-emitter reduction",
            f"max amplitude gap {worst_gap:.2e}")


def test_criterion_04_reflection_minimum_relation():
    started = time.perf_counter()
    worst_residual = 0.0
    worst_lossless_r = 0.0
    for kd in (PI / 8, PI / 4, 3 * PI / 8):
        for gp in (0.0, 0.05, 0.25):
            params = ModelParams(kd=kd, gamma_nr=gp)
            delta_min, r_min, residual = reflection_minimum(params)
            worst_residual = worst(worst_residual, residual)
            if gp == 0.0:
                worst_lossless_r = worst(worst_lossless_r, r_min)
    elapsed = time.perf_counter() - started
    assert worst_residual <= 1e-6
    assert worst_lossless_r <= 1e-12
    assert elapsed < 5.0
    _report(4, "reflection-minimum relation",
            f"max residual {worst_residual:.2e}, lossless R(delta_min) "
            f"<= {worst_lossless_r:.2e}, {elapsed:.2f}s")


def test_criterion_05_maximal_concurrence():
    worst_vertical = 0.0
    for kd in (PI, 2 * PI):
        for delta in np.linspace(-2.0, 2.0, 40):  # even count skips 0
            sol = solve_two_dot(ModelParams(kd=kd, delta=delta))
            state = project_state(sol)
            worst_vertical = worst(worst_vertical,
                                   abs(state.concurrence - 1.0))
    assert worst_vertical <= 1e-10

    kd_grid = np.linspace(0.6 * PI, 1.4 * PI, 32)  # avoids pi and poles
    curve = high_c_curve(kd_grid, gamma_prime=0.0)
    # np.min keeps a NaN concurrence, which then fails the bound
    lowest = float(np.min([
        project_state(solve_two_dot(ModelParams(kd=kd, delta=delta)))
        .concurrence
        for kd, delta in curve
    ]))
    assert lowest >= 0.99
    _report(5, "maximal concurrence",
            f"vertical gap {worst_vertical:.2e}, curve min C = {lowest:.6f}")


def test_criterion_06_phase_jump_with_loss():
    # Lossless: the zero-detuning limit of the relative phase is pi.
    for delta in (-1e-6, 1e-6):
        (point,) = phase_scan(np.array([delta]), 0.0, kd_policy="even")
        assert abs(point.theta) == pytest.approx(PI, abs=1e-5)
    (exact,) = phase_scan(np.array([0.0]), 0.0, kd_policy="even")
    assert exact.theta == pytest.approx(PI)

    # Any finite loss flips the zero-detuning phase to 0.
    for gp in (0.025, 0.125):
        (point,) = phase_scan(np.array([0.0]), gp, kd_policy="even")
        assert point.theta == pytest.approx(0.0, abs=1e-12)

    # The phase is continuous along each branch.
    deltas = np.linspace(-2.0, 2.0, 4001)
    max_step = 0.0
    for gp in (0.0, 0.025, 0.125):
        theta = np.array([p.theta for p in phase_scan(deltas, gp)])
        steps = np.abs(np.diff(np.unwrap(theta)))
        max_step = worst(max_step, float(steps.max()))
    assert max_step < 0.2
    _report(6, "phase jump with loss",
            f"theta(0) = pi lossless / 0 lossy, max branch step {max_step:.3f}")


def test_criterion_07_time_domain_oracle_matrix():
    packet = WavepacketSpec(sigma_k=0.02)
    started = time.perf_counter()
    worst_error = 0.0
    n_points = 0
    for kd in (0.5 * PI, 0.65 * PI, PI, 1.35 * PI, 2 * PI):
        for delta in (-2.0, -1.3, 1.2, 1.7, 2.3):
            for gp in (0.0, 0.05):
                params = ModelParams(kd=kd, delta=delta, gamma_nr=gp)
                exact = solve_two_dot(params)
                oracle = scattering_oracle(params, packet)
                worst_error = worst(worst_error, abs(oracle.t - exact.t),
                                    abs(oracle.r - exact.r))
                n_points += 1
    elapsed = time.perf_counter() - started
    assert n_points == 50
    assert worst_error <= 1e-3
    assert elapsed < 120.0
    _report(7, "time-domain oracle",
            f"max amplitude error {worst_error:.2e} over 5x5x2 matrix "
            f"in {elapsed:.0f}s")


def _oracle_params(kd, delta, gamma_prime, with_sr):
    if with_sr:
        return ModelParams(kd=kd, delta=delta, gamma0=0.05,
                           gamma_nr=gamma_prime, k0d=kd,
                           include_superradiance=True)
    return ModelParams(kd=kd, delta=delta, gamma_nr=gamma_prime)


def _seeded_oracle_points(seed: int = 1, n: int = 20):
    """n random points with kd/pi in [0.3, 2.2], delta in [-2.3, 2.3] and
    gamma' in {0, 0.05}; every third carries the collective term."""
    rng = np.random.default_rng(seed)
    kd = rng.uniform(0.3, 2.2, n) * PI
    delta = rng.uniform(-2.3, 2.3, n)
    gamma_prime = rng.choice([0.0, 0.05], n)
    return [
        (_oracle_params(float(kd[i]), float(delta[i]), float(gamma_prime[i]),
                        i % 3 == 2), 0.02)
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "cases",
    [
        _seeded_oracle_points(),
        # a reference-packet readout on a grid with line modes mixed into
        # its core erred by about 1 and 0.45 at these two points
        [(_oracle_params(0.5265 * PI, 1.4399, 0.05, False), 0.02),
         (_oracle_params(0.7027 * PI, 0.1807, 0.0, True), 0.02)],
        [(ModelParams(kd=PI / 4, delta=-0.5), sigma_k)
         for sigma_k in (0.02, 0.03, 0.04)],
    ],
    ids=["seeded-draw", "narrow-features", "packet-widths"],
)
def test_oracle_off_the_criterion_07_matrix(cases):
    # criterion 07's points are fixed; the carrier readout must hold
    # anywhere in its ranges and for any resolved packet width
    worst_error = 0.0
    for params, sigma_k in cases:
        exact = solve_two_dot(params)
        oracle = scattering_oracle(params, WavepacketSpec(sigma_k=sigma_k))
        worst_error = worst(worst_error, abs(oracle.t - exact.t),
                            abs(oracle.r - exact.r))
    assert worst_error <= 1e-4


def test_criterion_08_no_jump_equivalence():
    worst_trace = 0.0
    for k0d in (0.5 * PI, 0.25 * PI):
        report = no_jump_equivalence(k0d, gamma0=0.05)
        worst_trace = worst(worst_trace, report.max_trace_distance)
    assert worst_trace <= 1e-8

    for k0d in (1e-9, 0.3, 1.0, 0.5 * PI, 2.0, PI, 5.0):
        plus, minus = gamma_pm(k0d, 0.05)
        assert plus + minus == 2 * 0.05  # exact, not approximate
    dicke = gamma_pm(0.0, 0.05)
    assert dicke == (2 * 0.05, 0.0)
    _report(8, "no-jump equivalence",
            f"max trace distance {worst_trace:.2e}, rate sum exact, "
            f"coincident-emitter limit (2*gamma0, 0)")


def test_criterion_09_storage_efficiency_law():
    started = time.perf_counter()
    sigma_t = 20.0  # spectral width 0.05 in guided-rate units
    worst_gap = 0.0
    worst_parity = 0.0
    worst_identity = 0.0
    for ratio in (5.0, 10.0, 20.0, 50.0):
        even = simulate_storage(
            StorageParams(pulse_ratio=ratio, parity="even", sigma_t=sigma_t)
        )
        odd = simulate_storage(
            StorageParams(pulse_ratio=ratio, parity="odd", sigma_t=sigma_t)
        )
        bound = 1.0 - 1.0 / ratio
        worst_gap = worst(worst_gap, abs(even.efficiency - bound))
        worst_parity = worst(worst_parity,
                             abs(even.efficiency - odd.efficiency))

        params = StorageParams(pulse_ratio=ratio, sigma_t=sigma_t)
        t_grid = storage_time_grid(params)
        envelope = gaussian_input(t_grid, sigma_t)
        worst_identity = worst(
            worst_identity, verify_population_identity(ratio, t_grid, envelope)
        )
    elapsed = time.perf_counter() - started
    assert worst_gap <= 5e-3
    assert worst_parity <= 1e-3
    assert worst_identity <= 1e-4
    assert elapsed < 300.0
    _report(9, "storage efficiency law",
            f"max |eff-(1-1/P)| = {worst_gap:.2e}, parity gap "
            f"{worst_parity:.2e}, trajectory residual {worst_identity:.2e}, "
            f"{elapsed:.0f}s")


def test_storage_finite_band_bias_scales_as_inverse_half_width():
    # the lattice sits above the design efficiency 1 - 1/P by a band
    # truncation bias that halves when the band doubles (measured
    # 3.534e-3 and 3.587e-3 for W = 4 and 8)
    scaled = [
        (simulate_storage(StorageParams(pulse_ratio=5.0, half_width=w))
         .efficiency - 0.8) * w
        for w in (4.0, 8.0)
    ]
    assert scaled[0] > 0.0
    assert abs(scaled[1] - scaled[0]) <= 0.1 * scaled[0]


def test_criterion_10_figure_data_regeneration(tmp_path, capsys):
    spectrum_dir = tmp_path / "spectrum"
    peaks_dir = tmp_path / "peaks"
    assert main(["--out", str(spectrum_dir), "spectrum"]) == 0
    assert main(["--out", str(peaks_dir), "peaks"]) == 0
    capsys.readouterr()

    def load(directory, name):
        return np.loadtxt(directory / name, delimiter=",", skiprows=1)

    manifest = json.loads((spectrum_dir / "manifest.json").read_text())
    names = {entry["path"] for entry in manifest["outputs"]}
    assert len(names) == 2 * 3 + 1

    # Symmetric line shape when the spacing phase is a full turn.
    sym = load(spectrum_dir, "spectrum_kd6.28319_gnr0.025_sr.csv")
    r_sym = sym[:, 2]
    assert np.max(np.abs(r_sym - r_sym[::-1])) <= 1e-10
    assert abs(sym[np.argmax(r_sym), 0]) <= 0.011  # peak pinned to center

    single = load(spectrum_dir, "spectrum_single_gp0.05.csv")
    r_single = single[:, 2]
    assert np.max(np.abs(r_single - r_single[::-1])) <= 1e-10

    # Asymmetric line shape at quarter-turn spacing.
    asym = load(spectrum_dir, "spectrum_kd0.785398_gnr0.025_sr.csv")
    r_asym = asym[:, 2]
    asymmetry = float(np.max(np.abs(r_asym - r_asym[::-1])))
    assert asymmetry > 0.05
    peak_offset = asym[np.argmax(r_asym), 0]
    assert abs(peak_offset) > 0.05  # peak pushed off center

    # Peak height ordering: reflection is suppressed by non-radiative loss.
    heights = [
        float(np.max(load(spectrum_dir,
                          f"spectrum_kd0.785398_gnr{g}_sr.csv")[:, 2]))
        for g in ("0.025", "0.125", "0.5")
    ]
    assert heights[0] > heights[1] > heights[2]

    # Peak-position curves: the collective term shifts the peak except
    # where the spacing phase is a multiple of pi.
    peaks = load(peaks_dir, "peaks.csv")
    with_sr = peaks[peaks[:, 3] == 1]
    without = peaks[peaks[:, 3] == 0]
    common = sorted(set(with_sr[:, 0]) & set(without[:, 0]))
    gaps = {
        kd: abs(
            float(with_sr[with_sr[:, 0] == kd][0, 1])
            - float(without[without[:, 0] == kd][0, 1])
        )
        for kd in common
    }
    assert max(gaps.values()) > 0.02
    near_pi = min(common, key=lambda kd: abs(kd - PI))
    assert gaps[near_pi] < 5e-3
    assert abs(float(with_sr[with_sr[:, 0] == near_pi][0, 1])) < 0.05

    _report(10, "figure-data regeneration",
            f"asymmetry {asymmetry:.3f} at quarter turn, height ordering "
            f"{heights[0]:.3f} > {heights[1]:.3f} > {heights[2]:.3f}, "
            f"collective peak shift up to {max(gaps.values()):.3f}")
