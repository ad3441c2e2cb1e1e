"""Tests for the time-domain lattice oracle and collective-decay checks."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from dotwire import lattice
from dotwire.errors import GridTooCoarse, NotConverged
from dotwire.lattice import (
    LatticeSystem,
    ModeGrid,
    WavepacketSpec,
    build_hamiltonian,
    evolve,
    gamma_pm,
    make_mode_grid,
    no_jump_equivalence,
    scattering_oracle,
    uniform_mode_grid,
)
from dotwire.model import ModelParams, solve_two_dot

PI = math.pi


class TestModeGrids:
    def test_default_grid_is_sorted_with_consistent_weights(self):
        grid = make_mode_grid(0.7)
        assert np.all(np.diff(grid.nu) > 0)
        assert np.all(grid.weights > 0)
        # central-difference weights integrate the window span (the two
        # edge modes carry full- rather than half-gap weights, hence the
        # slack)
        span = grid.nu[-1] - grid.nu[0]
        edge_gaps = float(grid.nu[1] - grid.nu[0] + grid.nu[-1] - grid.nu[-2])
        assert span <= float(np.sum(grid.weights)) <= span + edge_gaps
        # a central carrier: the line patch sets both edges
        assert grid.nu[0] == pytest.approx(-2.5, abs=1e-9)
        assert grid.nu[-1] == pytest.approx(2.5, abs=1e-9)
        # a carrier past the patch edge: the core's last mode ends the grid
        far = make_mode_grid(3.0)
        assert np.all(np.diff(far.nu) > 0)
        assert np.all(far.weights > 0)
        assert far.nu[-1] == pytest.approx(3.25, abs=8e-4)

    def test_core_patch_resolves_the_packet_band(self):
        # wherever the carrier falls against the line patch, the modes
        # within 4 sigma_k of it (and the gaps reaching into that band)
        # recur no earlier than the longest run at sigma_k = 0.02,
        # 11 sigma_x + 39 * 25 = 1 250
        for center in (-0.5, 0.1807, 1.2, 1.4399):
            grid = make_mode_grid(center)
            (inside,) = np.nonzero(np.abs(grid.nu - center) <= 4 * 0.02)
            reach = grid.nu[inside[0] - 1 : inside[-1] + 2]
            assert 2 * PI / float(np.max(np.diff(reach))) >= 1250.0, center

    @pytest.mark.parametrize("center", [-0.5, 0.1807, 1.2, 1.4399])
    def test_core_is_uniform_about_a_mode_on_the_carrier(self, center):
        grid = make_mode_grid(center)
        (c,) = np.flatnonzero(grid.nu == center)
        # the core is the run of equal spacings either side of the carrier
        gaps = np.diff(grid.nu)
        spacing = gaps[c]
        uniform = np.abs(gaps - spacing) <= 1e-12
        left = c - int(np.argmin(uniform[c - 1 :: -1]))
        right = c + int(np.argmin(uniform[c:]))
        assert right - c == c - left
        offsets = grid.nu[left : right + 1] - center
        assert np.allclose(offsets, -offsets[::-1], rtol=0.0, atol=1e-12)
        assert offsets[-1] >= 0.25

    def test_coupling_reproduces_quadrature(self):
        grid = uniform_mode_grid(10.0, 0.01)
        kap = grid.coupling_strengths()
        assert np.allclose(4 * PI * kap**2, grid.weights, atol=1e-18)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            make_mode_grid(center)

    @pytest.mark.parametrize("name,args", [
        ("half_width", (math.nan, 0.1)),
        ("half_width", (math.inf, 0.1)),
        ("half_width", (0.0, 0.1)),
        ("half_width", (-3.0, 0.1)),
        ("dk", (3.0, math.nan)),
        ("dk", (3.0, math.inf)),
        ("dk", (3.0, 0.0)),
        ("dk", (3.0, -0.1)),
    ])
    def test_bad_uniform_grid_rejected(self, name, args):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            uniform_mode_grid(*args)


class TestBuildHamiltonian:
    def test_hermitian_without_loss_or_collective_term(self):
        grid = uniform_mode_grid(3.0, 0.1)
        dense = build_hamiltonian(
            grid, ModelParams(kd=0.8, delta=0.2)
        ).to_dense()
        assert np.allclose(dense, dense.conj().T, atol=1e-15)

    @pytest.mark.parametrize(
        "weights",
        [[0.1, 0.0, 0.1], [0.1, 0.1, -0.1], [math.nan, 0.1, 0.1],
         [0.1, math.inf, 0.1]],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_bad_weight_rejected(self, weights):
        # evolve holds each mode divided by its coupling strength, so a
        # zero weight would decouple its mode and turn the state into NaN
        grid = ModeGrid(nu=np.array([-0.1, 0.0, 0.1]),
                        weights=np.array(weights))
        with pytest.raises(ValueError,
                           match="weights must be finite and > 0, got"):
            build_hamiltonian(grid, ModelParams(kd=0.8))

    def test_loss_only_on_emitter_diagonal(self):
        grid = uniform_mode_grid(3.0, 0.1)
        dense = build_hamiltonian(
            grid, ModelParams(kd=0.8, delta=0.2, gamma_nr=0.05)
        ).to_dense()
        anti = dense - dense.conj().T
        expected = np.zeros_like(dense)
        expected[-2, -2] = expected[-1, -1] = -1j * 0.05
        assert np.allclose(anti, expected, atol=1e-15)

    @pytest.mark.parametrize("params", [
        ModelParams(kd=0.8, delta=0.2),
        ModelParams(kd=2.3, delta=-0.7, gamma_nr=0.05),
        ModelParams(kd=0.8, delta=0.2, gamma0=0.01, gamma_nr=0.02, k0d=1.1,
                    include_superradiance=True),
    ], ids=["lossless", "lossy", "collective"])
    def test_branch_weights_against_the_hand_expansion(self, params):
        # every consumer reads the branch weights W; pin what they expand
        # to, so a W that all of them read wrong alike cannot pass
        grid = uniform_mode_grid(3.0, 0.1)
        system = build_hamiltonian(grid, params)
        kap = grid.coupling_strengths()
        kd, delta = params.kd, params.delta
        mask = np.abs(grid.nu - delta) > 1e-9
        s_pv = float(np.sum(kap[mask] ** 2 / (delta - grid.nu[mask])))
        exchange = math.sin(kd) / 2 - 0.5j * (
            params.gamma0 * math.sin(params.k0d) / params.k0d
            if params.include_superradiance else 0.0
        )
        e_dot = -delta - 0.5j * params.gamma_prime - 2.0 * s_pv
        h12 = exchange - 2.0 * math.cos(kd) * s_pv
        block = np.array([[e_dot, h12], [h12, e_dot]])
        gap = float(np.max(np.abs(system.dot_block - block)))
        assert gap <= 1e-15 * float(np.max(np.abs(block)))

        # emission columns: kappa on both branches from emitter 1, kappa
        # times e^{-ikd} on the right and e^{+ikd} on the left from emitter 2
        n = grid.n_modes
        emission = system.to_dense()[: 2 * n, 2 * n:]
        expected = np.stack([
            np.concatenate([kap, kap]),
            np.concatenate([kap * np.exp(-1j * kd), kap * np.exp(1j * kd)]),
        ], axis=1)
        assert np.allclose(emission, expected, rtol=1e-15, atol=0.0)


class TestSpectralInterval:
    @pytest.mark.parametrize(
        "grid,params",
        [
            (uniform_mode_grid(3.0, 0.1), ModelParams(kd=0.8, delta=0.2)),
            (uniform_mode_grid(3.0, 0.1),
             ModelParams(kd=0.8, delta=0.2, gamma_nr=0.05)),
            (uniform_mode_grid(3.0, 0.1),
             ModelParams(kd=0.8, delta=0.2, gamma0=0.01, gamma_nr=0.02,
                         k0d=0.8, include_superradiance=True),
        ),
            (uniform_mode_grid(2.0, 0.05), ModelParams(kd=PI, delta=-0.3)),
            (uniform_mode_grid(2.0, 0.05),
             ModelParams(kd=2 * PI, delta=1.1, gamma_nr=0.05)),
            (make_mode_grid(-0.5), ModelParams(kd=PI / 4, delta=-0.5)),
        ],
        ids=["lossless", "lossy", "collective", "kd=pi", "kd=2pi lossy",
             "mode grid"],
    )
    def test_encloses_the_hermitian_part_tightly(self, grid, params):
        system = build_hamiltonian(grid, params)
        dense = system.to_dense()
        eigs = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))
        lo, hi = system.spectral_interval
        assert lo <= eigs[0] and eigs[-1] <= hi
        scale = float(np.max(np.abs(eigs)))
        assert eigs[0] - lo <= 1e-6 * scale
        assert hi - eigs[-1] <= 1e-6 * scale
        # computed once per system
        assert system.spectral_interval is system.spectral_interval

    def test_encloses_seeded_small_systems_tightly(self):
        # 20 uniform and 20 sorted random grids of at most 150 modes, with
        # random kd, delta and losses, the collective term on and off
        rng = np.random.default_rng(29)
        for i in range(40):
            if i % 2:
                dk = rng.uniform(0.04, 0.2)
                grid = uniform_mode_grid(rng.uniform(0.5, min(3.0, 74 * dk)),
                                         dk)
            else:
                nu = np.sort(rng.uniform(-3.0, 3.0, rng.integers(2, 151)))
                grid = ModeGrid(nu=nu, weights=np.gradient(nu))
            params = ModelParams(
                kd=rng.uniform(0.05, 4 * PI), delta=rng.uniform(-3.0, 3.0),
                gamma0=rng.uniform(0.0, 0.3), gamma_nr=rng.uniform(0.0, 0.3),
                include_superradiance=i % 4 < 2,
            )
            system = build_hamiltonian(grid, params)
            dense = system.to_dense()
            eigs = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))
            lo, hi = system.spectral_interval
            scale = float(np.max(np.abs(eigs)))
            assert 0.0 <= eigs[0] - lo <= 1e-6 * scale, i
            assert 0.0 <= hi - eigs[-1] <= 1e-6 * scale, i

    def test_one_mode_lattice_at_its_carrier(self):
        # eps and the dot diagonal are all 0, so both diagonal starts and
        # the pad are 0: the edges close to adjacent floats
        system = build_hamiltonian(
            ModeGrid(nu=np.array([0.0]), weights=np.array([0.1])),
            ModelParams(kd=1.0),
        )
        dense = system.to_dense()
        eigs = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))
        assert eigs[[0, -1]] == pytest.approx([-0.43746, 0.47261], abs=1e-5)
        lo, hi = system.spectral_interval
        assert lo <= eigs[0] and eigs[-1] <= hi
        assert hi - lo <= (eigs[-1] - eigs[0]) * (1.0 + 1e-12)

    def test_non_finite_dot_block_raises_instead_of_an_edge(self):
        system = dataclasses.replace(
            build_hamiltonian(make_mode_grid(0.3),
                              ModelParams(kd=1.0, delta=0.3)),
            dot_block=np.full((2, 2), complex("nan")),
        )
        with pytest.raises(NotConverged,
                           match="spectral edge bound is nan; H is not"):
            system.spectral_interval


def _seeded_grid():
    # 120 seeded sorted modes: each has its own coupling strength, so a
    # wrong per-mode scaling of the series shows (on a uniform grid it
    # would not)
    nu = np.sort(np.random.default_rng(34).uniform(-3.0, 3.0, 120))
    return ModeGrid(nu=nu, weights=np.gradient(nu))


def _grid_with_core_spacing(monkeypatch, center, dk):
    # make_mode_grid's layout around another core spacing
    with monkeypatch.context() as patch:
        patch.setattr(lattice, "_DK_CORE", dk)
        return make_mode_grid(center)


class TestEvolve:
    def system(self, grid=None):
        return build_hamiltonian(
            uniform_mode_grid(3.0, 0.1) if grid is None else grid,
            ModelParams(kd=0.8, delta=0.2, gamma0=0.01, gamma_nr=0.02,
                        k0d=0.8, include_superradiance=True),
        )

    def random_state(self, system, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=system.size) + 1j * rng.normal(size=system.size)
        return psi / np.linalg.norm(psi)

    def test_zero_steps_return_the_state_unchanged(self):
        grid = uniform_mode_grid(3.0, 0.1)
        system = build_hamiltonian(grid, ModelParams(kd=0.8, delta=0.2))
        rng = np.random.default_rng(5)
        psi = rng.normal(size=system.size) + 1j * rng.normal(size=system.size)
        # t = 0 skips the series: the state comes back exactly, as a copy
        out = evolve(system, psi, 0.0)
        assert np.array_equal(out, psi)
        assert out is not psi

    @pytest.mark.parametrize("t", [-0.5, math.nan, math.inf, -math.inf])
    def test_bad_time_rejected(self, t):
        system = self.system()
        psi = self.random_state(system, 5)
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            evolve(system, psi, t)

    def test_lossless_evolution_conserves_norm(self):
        for grid in (uniform_mode_grid(3.0, 0.05), _seeded_grid()):
            system = build_hamiltonian(grid, ModelParams(kd=PI / 2))
            psi = np.zeros(system.size, dtype=complex)
            psi[-2] = 1.0
            out = evolve(system, psi, 10.0)
            # exp(-iHt) is unitary on a Hermitian generator and the series
            # reaches it to rounding, so the norm holds to rounding
            norm = float(np.sum(np.abs(out) ** 2))
            assert abs(norm - 1.0) <= 1e-12, grid.n_modes

    @pytest.mark.parametrize("t", [2.0, 60.0])
    def test_matches_dense_propagator(self, t):
        # lossy and collective: the spectral bound must hold off the real
        # axis too
        system = self.system()
        psi = self.random_state(system, 3)
        exact = expm(-1j * t * system.to_dense()) @ psi
        assert float(np.max(np.abs(evolve(system, psi, t) - exact))) <= 1e-12

    def test_matches_dense_propagator_on_a_seeded_grid(self):
        # every mode has its own coupling strength here. Only t = 2: a mode
        # 1.4e-3 from the carrier makes the principal-value counterterm
        # push the lossy emitter pair to the top edge of the spectral
        # interval, where the series terms grow about 2.6e8-fold by t = 60
        # and the result errs by 3.4e-6 (see evolve)
        system = self.system(_seeded_grid())
        psi = self.random_state(system, 3)
        exact = expm(-2j * system.to_dense()) @ psi
        assert float(np.max(np.abs(evolve(system, psi, 2.0) - exact))) <= 1e-12

    def test_two_calls_compose(self):
        for system in (self.system(), self.system(_seeded_grid())):
            psi = self.random_state(system, 7)
            twice = evolve(system, evolve(system, psi, 7.3), 11.1)
            once = evolve(system, psi, 7.3 + 11.1)
            assert float(np.max(np.abs(twice - once))) <= 1e-12, \
                system.grid.n_modes

    def test_norm_growth_raises(self):
        # gain on the emitter diagonal leaves the spectral interval of the
        # series in place; the a-posteriori norm check catches the growth
        grid = uniform_mode_grid(3.0, 0.1)
        honest = build_hamiltonian(grid, ModelParams(kd=PI / 2))
        gaining = LatticeSystem(
            grid=honest.grid, eps=honest.eps,
            branch_weights=honest.branch_weights,
            dot_block=honest.dot_block + 0.05j * np.eye(2),
        )
        psi = np.zeros(gaining.size, dtype=complex)
        psi[-2] = 1.0
        with pytest.raises(NotConverged):
            evolve(gaining, psi, 4.0)


class TestCollectiveDecayOnLattice:
    def setup_bright_dark(self):
        grid = uniform_mode_grid(50.0, 0.05)
        system = build_hamiltonian(grid, ModelParams(kd=2 * PI))
        n = grid.n_modes
        psi = np.zeros(system.size, dtype=complex)
        return system, psi, n

    def test_bright_state_decays_at_doubled_rate(self):
        system, psi, n = self.setup_bright_dark()
        psi[2 * n] = psi[2 * n + 1] = 1.0 / math.sqrt(2)
        times, pops = [], []
        t = 0.0
        for _ in range(60):
            psi = evolve(system, psi, 0.05)
            t += 0.05
            if t >= 0.1:
                times.append(t)
                pops.append(float(np.sum(np.abs(psi[2 * n:]) ** 2)))
            if t > 1.2:
                break
        slope = np.polyfit(times, np.log(pops), 1)[0]
        assert -slope == pytest.approx(2.0, rel=0.015)

    def test_dark_state_is_exactly_decoupled(self):
        system, psi, n = self.setup_bright_dark()
        psi[2 * n] = 1.0 / math.sqrt(2)
        psi[2 * n + 1] = -1.0 / math.sqrt(2)
        out = evolve(system, psi, 1.6)
        pop = float(np.sum(np.abs(out[2 * n:]) ** 2))
        assert pop == pytest.approx(1.0, abs=1e-10)


class TestScatteringOracle:
    @pytest.mark.parametrize(
        "kd,delta,gamma0,gamma_nr,with_sr",
        [
            (PI / 4, -0.5, 0.0, 0.0, False),   # reflection zero
            (PI / 4, 0.0, 0.025, 0.025, False),  # lossy resonance
            (PI / 4, 0.3, 0.025, 0.025, True),   # collective term active
        ],
    )
    def test_matches_algebraic_solution(self, kd, delta, gamma0, gamma_nr,
                                         with_sr):
        params = ModelParams(
            kd=kd, delta=delta, gamma0=gamma0, gamma_nr=gamma_nr,
            k0d=kd if with_sr else None, include_superradiance=with_sr,
        )
        exact = solve_two_dot(params)
        result = scattering_oracle(params)
        assert abs(result.t - exact.t) < 1e-3
        assert abs(result.r - exact.r) < 1e-3
        assert result.dot_population < 1e-6

    def test_series_sized_by_the_hermitian_spectrum(self):
        # 978 applications of H measured at the quick point with the exact
        # Hermitian-part interval, plus 10%
        result = scattering_oracle(ModelParams(kd=PI / 4, delta=-0.5))
        assert result.n_steps <= 1076

    def test_emitter_stop_leaves_no_residual_error(self):
        # the emitters here still hold 9.99e-9 at t = 275; an emitter
        # amplitude of 1e-4 moves t and r by about 5e-5, so the run must
        # go on until far less is left
        params = ModelParams(kd=0.65 * PI, delta=2.3, gamma_nr=0.05)
        result = scattering_oracle(params)
        exact = solve_two_dot(params)
        assert abs(result.t - exact.t) <= 2e-5
        assert abs(result.r - exact.r) <= 2e-5

    def test_unresolved_packet_raises(self):
        with pytest.raises(GridTooCoarse):
            scattering_oracle(
                ModelParams(kd=PI / 4), WavepacketSpec(sigma_k=0.001)
            )

    def test_grid_whose_core_recurs_within_the_run_raises(self,
                                                          monkeypatch):
        # a core of spacing 6.4e-3 recurs at 982, before the longest run of
        # the default packet ends (1 250): at the late-settling point its
        # emitters still held 8.8e-4 at t = 1 250 without this check
        grid = _grid_with_core_spacing(monkeypatch, 0.01, 6.4e-3)
        with pytest.raises(GridTooCoarse, match="unresolved: its modes "
                                                "0.0064 apart recur at"):
            scattering_oracle(ModelParams(kd=2 * PI - 0.15, delta=0.01),
                              grid=grid)

    @pytest.mark.parametrize("kd,delta,gamma_nr", [
        (PI / 4, -0.5, 0.0),          # the quick point
        (0.65 * PI, 1.2, 0.05),       # a lossy criterion-07 point
        (2 * PI - 0.15, 0.01, 0.0),   # the late-settling point
    ])
    def test_coarse_core_gives_the_fine_core_answers(self, monkeypatch, kd,
                                                     delta, gamma_nr):
        # the core spacing is set by the run's recurrence time: a core 3.3
        # times finer takes the same series and moves t and r by far less
        # than the band bias of about 1e-5
        params = ModelParams(kd=kd, delta=delta, gamma_nr=gamma_nr)
        fine = scattering_oracle(
            params, grid=_grid_with_core_spacing(monkeypatch, delta, 7.9e-4)
        )
        coarse = scattering_oracle(params)
        assert coarse.n_modes < fine.n_modes
        assert coarse.n_steps == fine.n_steps
        assert abs(coarse.t - fine.t) <= 1e-7
        assert abs(coarse.r - fine.r) <= 1e-7

    def test_band_edge_on_a_mirrored_pair_passes_the_mirror_check(self):
        # 4 sigma_k is 29 core spacings: the band edge falls on the two
        # modes 29 steps either side of the carrier, and rounding put only
        # one of them within |nu - delta| <= 4 sigma_k, so a band selected
        # by that test alone was refused as not mirror-symmetric
        params = ModelParams(kd=PI / 4, delta=-0.5)
        packet = WavepacketSpec(sigma_k=29 * lattice._DK_CORE / 4)
        result = scattering_oracle(params, packet)
        exact = solve_two_dot(params)
        assert abs(result.t - exact.t) <= 1e-4
        assert abs(result.r - exact.r) <= 1e-4

    def test_grid_without_a_carrier_mode_raises(self):
        # the packet band is resolved, but no mode sits on the carrier,
        # where t and r are read
        grid = make_mode_grid(-0.5)
        with pytest.raises(GridTooCoarse, match="carrier nu = -0.4996"):
            scattering_oracle(ModelParams(kd=PI / 4, delta=-0.4996),
                              grid=grid)

    def test_grid_not_mirrored_about_the_carrier_raises(self):
        # a core of spacing 8e-4 that misses the carrier by 1e-4, plus one
        # mode on it: the principal-value counterterm is then wrong, and
        # without this check t and r came out off by more than 0.3
        delta = 1.4399
        nu = np.sort(np.concatenate([
            1.44 + 8e-4 * np.arange(-300, 301), [delta],
            np.linspace(-3.5, 1.19, 120), np.linspace(1.69, 3.5, 60),
        ]))
        grid = ModeGrid(nu=nu, weights=np.gradient(nu))
        params = ModelParams(kd=0.5265 * PI, delta=delta, gamma_nr=0.05)
        with pytest.raises(GridTooCoarse, match="not mirror-symmetric"):
            scattering_oracle(params, grid=grid)

    @pytest.mark.parametrize(
        "delta", [-3.0, -2.3, -0.5, 0.1807, 1.2, 1.4399, 2.3, 3.0]
    )
    def test_default_grid_passes_the_mirror_check(self, delta):
        params = ModelParams(kd=PI / 4, delta=delta, gamma_nr=0.05)
        result = scattering_oracle(params)
        exact = solve_two_dot(params)
        assert abs(result.t - exact.t) < 1e-3
        assert abs(result.r - exact.r) < 1e-3

    @pytest.mark.parametrize("name", ["sigma_k"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.02])
    def test_non_finite_packet_rejected(self, name, value):
        message = "must be > 0" if math.isfinite(value) else "must be finite"
        with pytest.raises(ValueError, match=f"{name} {message}"):
            WavepacketSpec(**{name: value})

    def test_long_lived_subradiant_state_raises(self):
        # just off the kd = 2*pi decoupling point the antisymmetric state is
        # excitable but decays far too slowly for the chunk budget
        with pytest.raises(NotConverged):
            scattering_oracle(ModelParams(kd=2 * PI - 0.02, delta=0.01))

    def test_late_settling_point_is_kept(self):
        # further from kd = 2*pi the antisymmetric state decays within the
        # 40 chunks to below the failure threshold 1e-6 but not the stop
        # threshold 1e-10, and t and r are already right: merging the two
        # thresholds would reject this point
        params = ModelParams(kd=2 * PI - 0.15, delta=0.01)
        result = scattering_oracle(params)
        exact = solve_two_dot(params)
        assert result.t_final == 1250.0
        assert 1e-10 < result.dot_population < 1e-6
        assert abs(result.t - exact.t) <= 1e-4
        assert abs(result.r - exact.r) <= 1e-4


class TestCollectiveRates:
    def test_sum_is_exact_for_any_separation(self):
        for k0d in (1e-12, 0.7, PI / 2, 2.0, PI, 17.3):
            g_plus, g_minus = gamma_pm(k0d, 0.025)
            assert g_plus + g_minus == 2 * 0.025

    def test_dicke_limit(self):
        assert gamma_pm(0.0, 0.025) == (0.05, 0.0)

    def test_decoupling_at_pi(self):
        g_plus, g_minus = gamma_pm(PI, 0.025)
        assert g_plus == pytest.approx(0.025, abs=1e-17)
        assert g_minus == pytest.approx(0.025, abs=1e-17)


class TestNoJumpEquivalence:
    def test_conditional_evolution_matches_nonhermitian(self):
        report = no_jump_equivalence(PI / 2, 0.025)
        assert report.max_trace_distance <= 1e-8
        assert report.max_trace_error <= 1e-12
        assert report.gamma_plus + report.gamma_minus == 0.05

    def test_dicke_point(self):
        report = no_jump_equivalence(1e-12, 0.025)
        assert report.max_trace_distance <= 1e-8
        assert report.max_trace_error <= 1e-12
        assert report.gamma_minus == pytest.approx(0.0, abs=1e-24)

    def test_equal_rates_at_pi(self):
        # gamma_+ = gamma_- here, so the Liouvillian's rates coincide
        report = no_jump_equivalence(PI, 0.05)
        assert report.max_trace_distance <= 1e-8
        assert report.max_trace_error <= 1e-12

    def test_wrong_collective_rates_fail_the_gate(self, monkeypatch):
        # route (i) builds its rates from Gamma alone, so rates that are not
        # its eigen-rates must fail criterion 08's 1e-8 gate
        right = gamma_pm(PI / 4, 0.05)
        monkeypatch.setattr(lattice, "gamma_pm",
                            lambda k0d, gamma0: right[::-1])
        assert no_jump_equivalence(PI / 4, 0.05).max_trace_distance > 1e-3
        monkeypatch.setattr(lattice, "gamma_pm",
                            lambda k0d, gamma0: (right[0] * (1 + 1e-6),
                                                 right[1]))
        assert no_jump_equivalence(PI / 4, 0.05).max_trace_distance > 1e-8

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("k0d", {"k0d": math.nan}),
            ("k0d", {"k0d": math.inf}),
            ("gamma0", {"gamma0": math.nan}),
        ],
    )
    def test_non_finite_input_rejected(self, name, kwargs):
        args = {"k0d": PI / 2, "gamma0": 0.05, **kwargs}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            no_jump_equivalence(**args)
