"""Tests for the metastable storage protocol."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from dotwire.errors import (
    BandwidthTooWide,
    NotConverged,
    PopulationUnderflow,
    StepTooLarge,
)
from dotwire.lattice import uniform_mode_grid
from dotwire import storage
from dotwire.model import GAMMA_PL
from dotwire.storage import (
    StorageParams,
    _chirp_sum,
    _kicks,
    _memory_kernel,
    _run_lattice,
    gaussian_input,
    impedance_matched_pulse,
    retrieve,
    simulate_storage,
    storage_time_grid,
    verify_population_identity,
)


class TestStorageParams:
    def test_rejects_pulse_ratio_at_or_below_one(self):
        for bad in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                StorageParams(pulse_ratio=bad)

    def test_rejects_unknown_parity(self):
        with pytest.raises(ValueError):
            StorageParams(pulse_ratio=10.0, parity="mixed")

    @pytest.mark.parametrize("name", ["pulse_ratio", "sigma_t", "half_width",
                                      "dk"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        fields = {"pulse_ratio": 10.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            StorageParams(**fields)

    def test_run_must_end_before_the_modes_recur(self):
        # 11 sigma_t against the recurrence time 2 pi / 0.05 = 125.66
        StorageParams(pulse_ratio=10.0, sigma_t=11.0, dk=0.05)
        with pytest.raises(ValueError, match="recurrence time"):
            StorageParams(pulse_ratio=10.0, sigma_t=11.5, dk=0.05)

    def test_run_must_span_one_control_step(self):
        # 11 sigma_t against the control step 0.09 / 4 = 0.0225
        StorageParams(pulse_ratio=5.0, sigma_t=0.0021)
        with pytest.raises(ValueError, match="shorter than one control step"):
            StorageParams(pulse_ratio=5.0, sigma_t=1e-3)

    def test_grid_of_one_mode_rejected(self):
        # (0.4 + 1.0 + 0.4) / 2.0 rounds up to one mode, and the run reads
        # the grid step nu[1] - nu[0]; at dk = 1.0 the grid holds two
        p = StorageParams(pulse_ratio=5.0, half_width=0.4, dk=1.0,
                          sigma_t=0.25)
        assert uniform_mode_grid(p.half_width, p.dk).nu.size == 2
        with pytest.raises(ValueError, match="half_width = 0.4 and dk = 2 "
                                             "give a uniform mode grid of 1"):
            StorageParams(pulse_ratio=5.0, half_width=0.4, dk=2.0,
                          sigma_t=0.25)

    @pytest.mark.parametrize("name", ["sigma_t", "half_width", "dk"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_scale_rejected(self, name, value):
        with pytest.raises(ValueError, match="must all be > 0"):
            StorageParams(pulse_ratio=10.0, **{name: value})

    def test_derived_rates(self):
        p = StorageParams(pulse_ratio=20.0)
        assert p.gamma_prime == 0.05


class TestInputEnvelope:
    def test_unit_norm(self):
        t = storage_time_grid(StorageParams(pulse_ratio=10.0))
        env = gaussian_input(t, 10.0)
        assert float(np.trapezoid(env**2, t)) == pytest.approx(1.0, abs=1e-6)

    def test_peak_position(self):
        t = storage_time_grid(StorageParams(pulse_ratio=10.0))
        env = gaussian_input(t, 10.0)
        assert t[int(np.argmax(env))] == pytest.approx(50.0, abs=0.1)

    @pytest.mark.parametrize("sigma_t", [0.0, -1.0, math.nan, math.inf])
    def test_bad_width_rejected(self, sigma_t):
        t = storage_time_grid(StorageParams(pulse_ratio=10.0))
        with pytest.raises(ValueError, match="sigma_t must be finite and > 0"):
            gaussian_input(t, sigma_t)


class TestMatchedPulse:
    def test_designed_final_population_meets_the_bound(self):
        p = StorageParams(pulse_ratio=10.0)
        t = storage_time_grid(p)
        pulse = impedance_matched_pulse(10.0, t, gaussian_input(t, 10.0))
        assert pulse.stored_amplitude[-1] ** 2 == pytest.approx(
            0.9, abs=1e-4
        )

    def test_design_is_matched_from_the_first_sample(self):
        # the part of the photon that arrived before the grid is stored by
        # t = 0, so the stored population starts positive, the control on
        p = StorageParams(pulse_ratio=10.0)
        t = storage_time_grid(p)
        env = gaussian_input(t, 10.0)
        pulse = impedance_matched_pulse(10.0, t, env)
        before = 1.0 - float(np.trapezoid(env**2, t))
        cm2 = pulse.stored_amplitude[0] ** 2
        assert cm2 == pytest.approx(0.9 * before - env[0] ** 2, rel=1e-9)
        assert cm2 > 0.0
        assert pulse.omega[0] != 0.0

    def test_control_is_silenced_before_the_pulse(self):
        # at sigma_t = 6 the envelope outruns the transfer on the first
        # samples: the design holds the population at the floor with the
        # control off there, and the run still lands at 1 - 1/P
        p = StorageParams(pulse_ratio=5.0, sigma_t=6.0)
        t = storage_time_grid(p)
        pulse = impedance_matched_pulse(5.0, t, gaussian_input(t, 6.0))
        assert np.all(pulse.omega[:10] == 0.0)
        assert np.all(np.isfinite(pulse.omega))
        assert abs(simulate_storage(p).efficiency - 0.8) < 5e-3

    def test_wideband_envelope_rejected(self):
        p = StorageParams(pulse_ratio=10.0, sigma_t=4.0)
        t = storage_time_grid(p)
        with pytest.raises(BandwidthTooWide):
            impedance_matched_pulse(10.0, t, gaussian_input(t, 4.0))

    @pytest.mark.parametrize("population, raises", [
        (1.1e-12, True), (1.5e-12, False),
    ])
    def test_control_cap_on_a_near_empty_sample(self, population, raises):
        # sample 300 of the envelope is retuned until the designed
        # population there, (1 - 1/P)*cum - env^2 with cum taken as the
        # design takes it, is just above the floor 1e-12; dividing by its
        # root drives |Omega| past 1e3 at 1.1e-12 (905 at 1.5e-12)
        t = np.linspace(0.0, 110.0, 4001)
        env = gaussian_input(t, 10.0)

        def designed_population(value):
            env[300] = value
            norm2 = float(np.trapezoid(env**2, t))
            areas = 0.5 * (env[1:] ** 2 + env[:-1] ** 2) * np.diff(t)
            cum = 1.0 - norm2 + float(np.cumsum(areas)[299])
            return 0.9 * cum - value**2

        lo, hi = float(env[300]), 2.0 * float(env[300])
        assert designed_population(lo) > population > designed_population(hi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if designed_population(mid) > population:
                lo = mid
            else:
                hi = mid
        designed_population(lo)
        if raises:
            with pytest.raises(PopulationUnderflow,
                               match=r"exceeds \|Omega\| = 1000"):
                impedance_matched_pulse(10.0, t, env)
        else:
            omega = impedance_matched_pulse(10.0, t, env).omega
            assert 900.0 < float(np.max(np.abs(omega))) <= 1e3

    def test_pulse_ratio_too_close_to_one_underflows(self):
        t = storage_time_grid(StorageParams(pulse_ratio=1.05))
        with pytest.raises(PopulationUnderflow):
            impedance_matched_pulse(1.05, t, gaussian_input(t, 10.0))

    @pytest.mark.parametrize("pulse_ratio,match", [
        (math.nan, "pulse_ratio must be finite"),
        (math.inf, "pulse_ratio must be finite"),
        (1.0, "pulse_ratio must be > 1"),
        (0.0, "pulse_ratio must be > 1"),
        (-2.0, "pulse_ratio must be > 1"),
    ])
    def test_bad_pulse_ratio_rejected(self, pulse_ratio, match):
        t = storage_time_grid(StorageParams(pulse_ratio=10.0))
        env = gaussian_input(t, 10.0)
        with pytest.raises(ValueError, match=match):
            impedance_matched_pulse(pulse_ratio, t, env)
        with pytest.raises(ValueError, match=match):
            verify_population_identity(pulse_ratio, t, env)

    @pytest.mark.parametrize("name", ["t_grid", "envelope"])
    @pytest.mark.parametrize("bad", ["one", "all"])
    def test_non_finite_samples_rejected(self, name, bad):
        t = storage_time_grid(StorageParams(pulse_ratio=10.0))
        arrays = {"t_grid": t, "envelope": gaussian_input(t, 10.0)}
        samples = arrays[name].copy()
        if bad == "one":
            samples[samples.size // 2] = math.nan
        else:
            samples[:] = math.nan
        arrays[name] = samples
        with pytest.raises(ValueError,
                           match=f"{name} must be finite at every sample"):
            impedance_matched_pulse(10.0, **arrays)


class TestStorageEfficiency:
    def test_efficiency_law_frozen_points(self):
        run5 = simulate_storage(StorageParams(pulse_ratio=5.0))
        run10 = simulate_storage(StorageParams(pulse_ratio=10.0))
        assert run5.efficiency == pytest.approx(0.80088, abs=5e-5)
        assert run10.efficiency == pytest.approx(0.90050, abs=5e-5)
        for run, P in ((run5, 5.0), (run10, 10.0)):
            assert abs(run.efficiency - (1.0 - 1.0 / P)) < 5e-3

    def test_parity_twins_agree(self):
        even = simulate_storage(StorageParams(pulse_ratio=10.0, parity="even"))
        odd = simulate_storage(StorageParams(pulse_ratio=10.0, parity="odd"))
        assert even.efficiency == odd.efficiency

    def test_input_modes_carry_unit_norm(self):
        run = simulate_storage(StorageParams(pulse_ratio=10.0))
        total = 2.0 * float(np.sum(np.abs(run.f_in) ** 2))
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_omega_shape_validated(self):
        with pytest.raises(ValueError):
            simulate_storage(
                StorageParams(pulse_ratio=10.0), omega=np.zeros(7)
            )

    @pytest.mark.parametrize("entry, bad", [
        ("simulate", "nan"), ("retrieve", "nan"), ("retrieve", "shape"),
    ])
    def test_bad_omega_rejected(self, entry, bad):
        p = StorageParams(pulse_ratio=10.0)
        omega = np.zeros_like(storage_time_grid(p))
        if bad == "nan":
            omega[100] = np.nan
        else:
            omega = omega[:7]
        with pytest.raises(ValueError, match="finite" if bad == "nan"
                           else "time grid"):
            if entry == "simulate":
                simulate_storage(p, omega=omega)
            else:
                retrieve(p, 0.9, omega=omega)

    def test_without_control_nothing_is_stored(self):
        p = StorageParams(pulse_ratio=10.0)
        t = storage_time_grid(p)
        run = simulate_storage(p, omega=np.zeros_like(t))
        assert run.efficiency < 1e-10
        # the undriven emitters just filter the packet: the surviving norm
        # matches the single-resonance transmission of the bright mode
        s_even = (run.nu + 0.5j * (0.1 - 1.0)) / (run.nu + 0.5j * (0.1 + 1.0))
        predicted = float(
            np.sum(2.0 * np.abs(run.f_in) ** 2 * np.abs(s_even) ** 2)
        )
        assert abs(run.output_norm - predicted) < 1e-3

    @pytest.mark.parametrize("pulse_ratio, sigma_t", [
        (6.574260304361529, 20.0), (31.94, 20.0), (31.45, 10.0),
    ])
    def test_design_stays_gentle_from_the_start(self, pulse_ratio, sigma_t):
        # designed on the grid's part of the photon alone, these controls
        # switched on with a spike (|Omega| up to 74) that the step limit
        # rejected
        p = StorageParams(pulse_ratio=pulse_ratio, sigma_t=sigma_t)
        t = storage_time_grid(p)
        omega = impedance_matched_pulse(
            pulse_ratio, t, gaussian_input(t, sigma_t)
        ).omega
        assert np.max(np.abs(omega)) <= 0.26
        run = simulate_storage(p)
        assert abs(run.efficiency - (1.0 - 1.0 / pulse_ratio)) < 5e-3
        assert retrieve(p, math.sqrt(run.efficiency)).emitted_norm > 0.0

    def test_strong_control_rejected(self):
        p = StorageParams(pulse_ratio=10.0)
        t = storage_time_grid(p)
        # users cannot set the storage step, so the message blames the control
        with pytest.raises(StepTooLarge, match="control is too strong"):
            simulate_storage(p, omega=np.full(t.shape, 100.0))

    def test_step_bound_is_the_spectral_norm_of_the_kick_generator(self):
        # the bound is ||G||_2 in closed form; find by bisection the constant
        # |om| at which the dense dt * ||G||_2 reaches the 0.25 rad limit
        p = StorageParams(pulse_ratio=5.0)
        t = storage_time_grid(p)
        dt = t[1] - t[0]
        weights = uniform_mode_grid(p.half_width, p.dk).weights
        a = float(np.linalg.norm(
            2.0 * np.sqrt(0.5 * GAMMA_PL * weights / (4.0 * math.pi))
        ))

        def turn(om):
            gen = np.array([[0.0, a, 0.0], [a, -0.5j * p.gamma_prime, om],
                            [0.0, om, 0.0]])
            return dt * np.linalg.norm(gen, 2)

        lo, hi = 0.0, 100.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if turn(mid) < 0.25 else (lo, mid)
        simulate_storage(p, omega=np.full(t.shape, 0.999 * lo))
        with pytest.raises(StepTooLarge, match="control is too strong"):
            simulate_storage(p, omega=np.full(t.shape, 1.001 * lo))

    @pytest.mark.parametrize("entry", ["simulate", "retrieve"])
    def test_design_switching_on_too_hard_underflows(self, entry):
        # the design holds the control off for 136 samples and then needs
        # |Omega| = 24.7, which no lattice at this sampling step can run
        p = StorageParams(pulse_ratio=10.350611616634874, sigma_t=5.1)
        t = storage_time_grid(p)
        omega = impedance_matched_pulse(
            p.pulse_ratio, t, gaussian_input(t, p.sigma_t)
        ).omega
        assert np.all(omega[:136] == 0.0) and abs(omega[136]) > 24.0
        with pytest.raises(PopulationUnderflow,
                           match="holds the control off for 136 samples"):
            if entry == "simulate":
                simulate_storage(p)
            else:
                retrieve(p, 0.9)
        # the same control given by hand still meets the lattice's own guard
        with pytest.raises(StepTooLarge, match="control is too strong"):
            simulate_storage(p, omega=omega)

    def test_run_memory_stays_bounded(self):
        # a sigma_t = 20 run peaks at 2.15 MB of traced allocations; the
        # kicks of the whole run at once read 3.49 MB
        p = StorageParams(pulse_ratio=12.3, sigma_t=20.0)
        t = storage_time_grid(p)
        omega = impedance_matched_pulse(
            p.pulse_ratio, t, gaussian_input(t, p.sigma_t)
        ).omega
        simulate_storage(p, omega=omega)  # first-call set-up is not the run
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            simulate_storage(p, omega=omega)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2.6e6

    def test_norm_growth_raises(self, monkeypatch):
        # gain on the bright level passes the step check; the norm check
        # after the run catches it
        monkeypatch.setattr(StorageParams, "gamma_prime",
                            property(lambda self: -0.05))
        with pytest.raises(NotConverged):
            simulate_storage(StorageParams(pulse_ratio=10.0))


def _unreduced_final_state(params, omega, t_end, f_in):
    """Both branches and [e1, e2, m1, m2] under a constant control, propagated
    with one dense expm: psi_r, psi_l get -i*kap*(e1 + s*e2), the excited
    levels -i*kap*(psi_r + psi_l) (times s for e2), loss gamma'/2 and the
    control (s*omega on e2-m2), s the parity sign."""
    grid = uniform_mode_grid(params.half_width, params.dk)
    n = grid.nu.size
    kap = np.sqrt(0.5 * GAMMA_PL * grid.weights / (4.0 * math.pi))
    s = 1.0 if params.parity == "even" else -1.0
    e1, e2, m1, m2 = range(2 * n, 2 * n + 4)
    h = np.zeros((2 * n + 4, 2 * n + 4), dtype=complex)
    for start in (0, n):
        idx = np.arange(start, start + n)
        h[idx, idx] = grid.nu
        h[idx, e1] = h[e1, idx] = kap
        h[idx, e2] = h[e2, idx] = s * kap
    h[e1, e1] = h[e2, e2] = -0.5j * params.gamma_prime
    h[e1, m1], h[m1, e1] = omega, np.conj(omega)
    h[e2, m2], h[m2, e2] = s * omega, s * np.conj(omega)
    x = np.zeros(2 * n + 4, dtype=complex)
    x[:n] = x[n:2 * n] = f_in
    return expm(-1j * t_end * h) @ x, n, s


class TestReducedLattice:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_matches_dense_unreduced_propagation(self, parity):
        p = StorageParams(pulse_ratio=5.0, parity=parity, half_width=2.0,
                          dk=0.05)
        t = storage_time_grid(p)
        om = 0.1 + 0.2j
        run = simulate_storage(p, omega=np.full(t.shape, om))
        x, n, s = _unreduced_final_state(p, om, t[-1], run.f_in)
        # the second branch copies the first, and the dark pair stays empty
        assert np.max(np.abs(x[:n] - x[n:2 * n])) < 1e-12
        assert abs(x[-4] - s * x[-3]) < 1e-12
        assert abs(x[-2] - x[-1]) < 1e-12
        # within the second-order splitting error (measured 4.8e-6)
        field = (x[:n] + x[n:2 * n]) / math.sqrt(2.0)
        assert np.max(np.abs(run.field - field)) < 2e-5
        assert abs(run.bright_e - (x[-4] + s * x[-3]) / math.sqrt(2.0)) < 2e-5
        assert abs(run.bright_m - (x[-2] + x[-1]) / math.sqrt(2.0)) < 2e-5
        assert run.efficiency == abs(run.bright_m) ** 2


def _stepwise_splitting(params, omega, f_in, metastable0=0.0):
    """The storage splitting run step by step: half phase, a dense expm of
    the 3x3 kick on (q^H psi, e, m), half phase."""
    t = storage_time_grid(params)
    grid = uniform_mode_grid(params.half_width, params.dk)
    g = 2.0 * np.sqrt(0.5 * GAMMA_PL * grid.weights / (4.0 * math.pi))
    a = float(np.linalg.norm(g))
    q = g / a
    dt = t[1] - t[0]
    half = np.exp(-0.5j * dt * grid.nu)
    psi = math.sqrt(2.0) * f_in
    e, m = 0j, complex(metastable0)
    for om in 0.5 * (omega[:-1] + omega[1:]):
        psi = psi * half
        gen = np.array([[0.0, a, 0.0],
                        [a, -0.5j * params.gamma_prime, om],
                        [0.0, np.conj(om), 0.0]])
        c = q @ psi
        kicked, e, m = expm(-1j * dt * gen) @ np.array([c, e, m])
        psi = (psi + (kicked - c) * q) * half
    return psi, e, m


class TestMemoryKernelEngine:
    @pytest.mark.parametrize("case", ["small-constant", "small-matched",
                                      "default-matched", "short-constant"])
    def test_matches_stepwise_splitting(self, case):
        if case == "default-matched":
            p = StorageParams(pulse_ratio=5.0)
        elif case == "short-constant":
            # fewer steps than one block of the memory sum
            p = StorageParams(pulse_ratio=5.0, half_width=2.0, dk=0.05,
                              sigma_t=2.0)
        else:
            p = StorageParams(pulse_ratio=5.0, half_width=2.0, dk=0.05)
        t = storage_time_grid(p)
        if case.endswith("constant"):
            omega = np.full(t.shape, 0.1 + 0.2j)
        else:
            omega = impedance_matched_pulse(
                p.pulse_ratio, t, gaussian_input(t, p.sigma_t)
            ).omega
        run = simulate_storage(p, omega=omega)
        field, e, m = _stepwise_splitting(p, omega, run.f_in)
        assert abs(run.bright_e - e) < 1e-12
        assert abs(run.bright_m - m) < 1e-12
        assert np.max(np.abs(run.field - field)) < 1e-12

    @pytest.fixture(scope="class")
    def partition_runs(self):
        """(omega, f_in, metastable0) and the stepwise splitting's (field,
        e, m) for a stored matched pulse, a stored complex constant control
        and a read-out of 0.9 with the time-reversed matched pulse."""
        p = StorageParams(pulse_ratio=5.0, half_width=2.0, dk=0.05)
        t = storage_time_grid(p)
        nu = uniform_mode_grid(p.half_width, p.dk).nu
        matched = impedance_matched_pulse(
            p.pulse_ratio, t, gaussian_input(t, p.sigma_t)
        ).omega
        f_in = storage._input_modes(p, nu)
        cases = [(matched, f_in, 0.0),
                 (np.full(t.shape, 0.1 + 0.2j), f_in, 0.0),
                 (matched[::-1].copy(), np.zeros(nu.size, complex), 0.9)]
        return p, t, nu, [
            (case, _stepwise_splitting(p, case[0], case[1], case[2]))
            for case in cases
        ]

    @pytest.mark.parametrize("block", [1, 7, 611, 5000])
    def test_memory_partition_edges(self, monkeypatch, partition_runs, block):
        # 2444 steps: one-step blocks, a ragged last block, blocks that
        # divide the run exactly, and one block longer than the run; against
        # each, one-step sub-blocks, a ragged last sub-block, sub-blocks
        # longer than their block and one longer than the run
        monkeypatch.setattr(storage, "_BLOCK", block)
        p, t, nu, runs = partition_runs
        assert t.size - 1 == 2444
        for sub in (1, 3, 8, 700):
            monkeypatch.setattr(storage, "_SUB", sub)
            for (omega, f_in, metastable0), (field, e, m) in runs:
                run = _run_lattice(p, t, omega, nu, f_in, metastable0)
                assert abs(run.bright_e - e) < 1e-12, sub
                assert abs(run.bright_m - m) < 1e-12, sub
                assert np.max(np.abs(run.field - field)) < 1e-12, sub

    def test_retrieval_matches_stepwise_splitting(self):
        p = StorageParams(pulse_ratio=5.0, half_width=2.0, dk=0.05)
        t = storage_time_grid(p)
        omega = impedance_matched_pulse(
            p.pulse_ratio, t, gaussian_input(t, p.sigma_t)
        ).omega[::-1].copy()
        n = uniform_mode_grid(p.half_width, p.dk).nu.size
        field, _, _ = _stepwise_splitting(p, omega, np.zeros(n), 0.9)
        emitted = retrieve(p, 0.9, omega=omega).emitted_norm
        assert abs(emitted - float(np.sum(np.abs(field) ** 2))) < 1e-12

    def test_closed_form_kick_matches_expm(self):
        rng = np.random.default_rng(7)
        dt, a = 0.0225, 1.128
        for gp in (*rng.uniform(0.0, 1.0, 6), 0.0, 1.0, -0.05):
            om = rng.normal(size=8) * 3.0 + 1j * rng.normal(size=8) * 3.0
            kap, w, z, x11, x12 = _kicks(dt, a, gp, om)
            for i, o in enumerate(om):
                kick = np.array([
                    [1 + kap[i] ** 2 * z[i], kap[i] * x12[i],
                     kap[i] * w[i] * z[i]],
                    [kap[i] * x12[i], x11[i], w[i] * x12[i]],
                    [kap[i] * np.conj(w[i]) * z[i], np.conj(w[i]) * x12[i],
                     1 + abs(w[i]) ** 2 * z[i]],
                ])
                gen = np.array([[0.0, a, 0.0], [a, -0.5j * gp, o],
                                [0.0, np.conj(o), 0.0]])
                assert np.max(np.abs(kick - expm(-1j * dt * gen))) <= 1e-14

    # n + m - 1 = 8, 9, 25 and 27 are 5-smooth already; 33 lies just above
    # 32 and pads to 36
    @pytest.mark.parametrize("n, m", [(7, 5), (5, 9), (1, 4), (33, 1),
                                      (5, 4), (7, 3), (13, 13), (14, 14),
                                      (17, 17)])
    def test_chirp_sum_matches_direct_sum(self, n, m):
        rng = np.random.default_rng(n * m)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        theta = 0.37
        direct = np.exp(-1j * theta * np.outer(np.arange(m), np.arange(n))) @ a
        assert np.max(np.abs(_chirp_sum(a, theta, m) - direct)) < 1e-13

    def test_chirp_sum_pads_to_a_fast_length(self, monkeypatch):
        # n + m - 1 = 33 pads to 36, where the next power of two is 64
        sizes = []
        fft = np.fft.fft

        def recorded(x, *args):
            out = fft(x, *args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(np.fft, "fft", recorded)
        _chirp_sum(np.ones(17, complex), 0.37, 17)
        assert sizes == [36, 36]

    def test_fast_length_is_the_least_5_smooth_length(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        least = 1 << 15
        expected = {}
        for k in range(least, 0, -1):
            if smooth(k):
                least = k
            expected[k] = least
        for n in range(1, 20_001):
            assert storage._fast_length(n) == expected[n], n

    def test_runs_make_one_transform_per_nonzero_sum(self, monkeypatch):
        # a storage run transforms the drive and the field; a retrieval, or
        # any run with no input, has no drive and transforms the field only
        calls = []

        def counted(a, theta, m):
            calls.append(m)
            return _chirp_sum(a, theta, m)

        monkeypatch.setattr(storage, "_chirp_sum", counted)
        p = StorageParams(pulse_ratio=5.0, half_width=2.0, dk=0.05)
        t = storage_time_grid(p)
        nu = uniform_mode_grid(p.half_width, p.dk).nu
        simulate_storage(p)
        assert calls == [t.size - 1, nu.size]
        calls.clear()
        retrieve(p, 0.9)
        assert calls == [nu.size]
        calls.clear()
        _run_lattice(p, t, np.zeros(t.shape), nu, np.zeros(nu.size, complex),
                     0.9)
        assert calls == [nu.size]

    @pytest.mark.parametrize("half_width, dk", [(4.0, 2e-3), (2.0, 0.05)])
    def test_mode_grid_is_arithmetic(self, half_width, dk):
        # the closed-form memory kernel rests on nu_k = nu_0 + k*dnu
        nu = uniform_mode_grid(half_width, dk).nu
        k = np.arange(nu.size)
        arithmetic = nu[0] + k * (nu[1] - nu[0])
        assert np.max(np.abs(nu - arithmetic)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("case", ["default", "recurrence", "even count"])
    def test_memory_kernel_matches_direct_mean(self, case):
        half_width, dk = {"default": (4.0, 2e-3), "recurrence": (2.0, 0.05),
                          "even count": (2.0, 0.03)}[case]
        p = StorageParams(pulse_ratio=5.0, half_width=half_width, dk=dk)
        t = storage_time_grid(p)
        dt = float(t[1] - t[0])
        if case == "default":
            lags = [0, 1, 511, 512, t.size - 1, t.size]
        elif case == "recurrence":
            # a block longer than the run reads K up to block + sub - 1,
            # past the grid's recurrence 2 pi/(dnu*dt)
            recurrence = 2.0 * math.pi / (dk * dt)
            lags = [math.floor(recurrence), math.ceil(recurrence)]
        else:
            # 134 modes, so the sign (-1)^((n-1)*j) flips past the half
            # recurrence at lag 2327, which the run's kernel array reaches
            lags = [2000, 2400, 3000]
        nu = uniform_mode_grid(half_width, dk).nu
        kernel = _memory_kernel(nu, dt, max(lags) + 1)
        assert kernel[0] == 1.0
        for lag in lags:
            direct = np.mean(np.exp(-1j * nu * lag * dt))
            assert abs(kernel[lag] - direct) < 1e-13, lag


class TestPopulationIdentity:
    def test_designed_trajectory_residual(self):
        for P in (5.0, 10.0):
            p = StorageParams(pulse_ratio=P)
            t = storage_time_grid(p)
            res = verify_population_identity(P, t, gaussian_input(t, 10.0))
            assert res <= 1e-4


class TestRetrieval:
    def test_time_reversed_readout(self):
        p = StorageParams(pulse_ratio=10.0)
        stored = simulate_storage(p)
        result = retrieve(p, math.sqrt(stored.efficiency))
        assert result.emitted_norm == pytest.approx(0.8186, abs=1e-3)
        assert result.overlap > 0.99
        assert type(result.overlap) is float

    @pytest.mark.parametrize("pulse_ratio, sigma_t", [(10.0, 10.0),
                                                      (5.0, 20.0)])
    def test_overlap_is_with_the_time_reversed_gaussian(self, pulse_ratio,
                                                         sigma_t):
        p = StorageParams(pulse_ratio=pulse_ratio, sigma_t=sigma_t)
        t = storage_time_grid(p)
        omega = impedance_matched_pulse(
            pulse_ratio, t, gaussian_input(t, sigma_t)
        ).omega[::-1]
        nu = uniform_mode_grid(p.half_width, p.dk).nu
        field = _run_lattice(p, t, omega, nu, np.zeros(nu.size, complex),
                             0.9).field
        # the time-reversed envelope written out: a Gaussian spectrum peaking
        # at t_end - t_peak, seen in the frame of the end of the run
        sigma_w = 1.0 / (2.0 * sigma_t)
        t_peak, t_end = 5.0 * sigma_t, t[-1]
        ref = np.exp(-nu**2 / (4.0 * sigma_w**2)) * np.exp(
            1j * nu * (t_end - t_peak)
        ) * np.exp(-1j * nu * t_end)
        ref /= np.linalg.norm(ref)
        expected = abs(np.vdot(ref, field / np.linalg.norm(field)))
        assert abs(retrieve(p, 0.9).overlap - expected) <= 1e-12

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_stored_amplitude_rejected(self, value):
        with pytest.raises(ValueError, match="stored_amplitude must be"):
            retrieve(StorageParams(pulse_ratio=10.0), value)

    @pytest.mark.parametrize("case", ["nothing stored", "no control"])
    def test_nothing_emitted_rejected(self, case):
        p = StorageParams(pulse_ratio=10.0)
        if case == "nothing stored":
            args = (0.0, None)
        else:
            args = (0.9, np.zeros_like(storage_time_grid(p)))
        with pytest.raises(ValueError, match="nothing was emitted"):
            retrieve(p, *args)
