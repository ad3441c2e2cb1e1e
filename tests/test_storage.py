"""Tests for the metastable storage protocol."""

from __future__ import annotations

import math

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
from dotwire.model import GAMMA_PL, ModelParams, solve_two_dot
from dotwire.storage import (
    StorageParams,
    _chirp_sum,
    _kicks,
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


class TestMatchedPulse:
    def test_designed_final_population_meets_the_bound(self):
        p = StorageParams(pulse_ratio=10.0)
        t = storage_time_grid(p)
        pulse = impedance_matched_pulse(10.0, t, gaussian_input(t, 10.0))
        assert pulse.stored_amplitude[-1] ** 2 == pytest.approx(
            0.9, abs=1e-4
        )

    def test_control_is_silenced_before_the_pulse(self):
        p = StorageParams(pulse_ratio=10.0)
        t = storage_time_grid(p)
        pulse = impedance_matched_pulse(10.0, t, gaussian_input(t, 10.0))
        assert pulse.omega[0] == 0.0
        assert np.all(np.isfinite(pulse.omega))

    def test_wideband_envelope_rejected(self):
        p = StorageParams(pulse_ratio=10.0, sigma_t=4.0)
        t = storage_time_grid(p)
        with pytest.raises(BandwidthTooWide):
            impedance_matched_pulse(10.0, t, gaussian_input(t, 4.0))

    def test_pulse_ratio_too_close_to_one_underflows(self):
        t = storage_time_grid(StorageParams(pulse_ratio=1.05))
        with pytest.raises(PopulationUnderflow):
            impedance_matched_pulse(1.05, t, gaussian_input(t, 10.0))


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

    @pytest.mark.parametrize("n, m", [(7, 5), (5, 9), (1, 4), (33, 1)])
    def test_chirp_sum_matches_direct_sum(self, n, m):
        rng = np.random.default_rng(n * m)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        theta = 0.37
        direct = np.exp(-1j * theta * np.outer(np.arange(m), np.arange(n))) @ a
        assert np.max(np.abs(_chirp_sum(a, theta, m) - direct)) < 1e-13


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
