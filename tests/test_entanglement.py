"""Tests for post-selected state projection, concurrence, and phase scans."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dotwire.entanglement import (
    concurrence_map,
    high_c_curve,
    phase_scan,
    project_state,
)
from dotwire.errors import EmptyProjection, SingularSystem, TangentPole
from dotwire.model import ModelParams, ScatteringSolution, solve_two_dot

PI = math.pi


def solve(kd, delta, gamma_prime=0.0):
    return solve_two_dot(
        ModelParams(kd=kd, delta=delta, gamma_nr=gamma_prime)
    )


class TestProjectState:
    def test_normalization_and_concurrence_formula(self):
        state = project_state(solve(PI / 3, 0.7, 0.05))
        assert abs(state.amp_eg) ** 2 + abs(state.amp_ge) ** 2 == pytest.approx(
            1.0, abs=1e-14
        )
        expected = 2 * abs(state.amp_eg) * abs(state.amp_ge)
        assert state.concurrence == pytest.approx(expected, abs=1e-15)
        assert 0.0 <= state.concurrence <= 1.0

    def test_theta_is_relative_phase_in_half_open_interval(self):
        state = project_state(solve(PI / 3, 0.7, 0.05))
        ratio = state.amp_ge / state.amp_eg
        assert state.theta == pytest.approx(math.atan2(ratio.imag, ratio.real))
        assert -PI < state.theta <= PI

    def test_antisymmetric_pair_maps_to_exactly_pi(self):
        sol = ScatteringSolution(
            t=0.0, r=0.0, a=0.0, b=0.0, xi1=1.0, xi2=-1.0, residual=0.0
        )
        state = project_state(sol)
        assert state.theta == PI
        assert state.concurrence == pytest.approx(1.0, abs=1e-15)

    def test_vanishing_amplitudes_raise(self):
        sol = ScatteringSolution(
            t=1.0, r=0.0, a=0.0, b=0.0, xi1=0.0, xi2=0.0, residual=0.0
        )
        with pytest.raises(EmptyProjection):
            project_state(sol)


class TestHighCCurve:
    def test_curve_keeps_unit_concurrence_under_loss(self):
        # the locus is exact: concurrence stays 1 on it, loss or not; 40-point
        # grids keep clear of kd = n*pi, where the lossless curve touches the
        # decoupled (singular) point
        for gp in (0.0, 0.025, 0.125):
            kd_values = np.concatenate(
                [np.linspace(0.6 * PI, 1.4 * PI, 40),
                 np.linspace(1.6 * PI, 2.4 * PI, 40)]
            )
            for kd, delta in high_c_curve(kd_values, gp):
                state = project_state(solve(kd, delta, gp))
                assert state.concurrence > 0.99
                assert state.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_matches_branch_inversion(self):
        gp = 0.05
        (kd, delta), = high_c_curve([2 * PI + 0.4], gp)
        assert math.atan(-2 * delta / (1 + gp)) == pytest.approx(0.4, abs=1e-12)

    def test_pole_raises(self):
        for kd in (PI / 2, 3 * PI / 2, PI / 2 + 1e-7):
            with pytest.raises(TangentPole):
                high_c_curve([kd], 0.0)
        high_c_curve([PI / 2 + 1e-3], 0.0)  # outside the exclusion: fine

    def test_rejects_negative_loss(self):
        with pytest.raises(ValueError):
            high_c_curve([1.0], -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_spacing_rejected(self, value):
        with pytest.raises(ValueError, match="kd must be finite"):
            high_c_curve([1.0, value], 0.05)


class TestConcurrenceMap:
    def test_unit_concurrence_on_npi_verticals(self):
        deltas = np.linspace(-2.0, 2.0, 81)
        for kd in (PI, 2 * PI, 3 * PI):
            # lossy: the whole vertical, including delta = 0
            cells = concurrence_map(
                [kd], deltas, ModelParams(kd=1.0, gamma_nr=0.05)
            )
            for cell in cells:
                assert abs(cell.concurrence - 1.0) < 1e-10
            # lossless: every regular point of the vertical
            cells = concurrence_map([kd], deltas, ModelParams(kd=1.0))
            for cell in cells:
                if cell.delta != 0.0:
                    assert abs(cell.concurrence - 1.0) < 1e-10

    def test_singular_points_become_nan_cells(self):
        cells = concurrence_map(
            [2 * PI], [-1.0, 0.0, 1.0], ModelParams(kd=1.0)
        )
        flags = [math.isnan(c.concurrence) for c in cells]
        assert flags == [False, True, False]
        assert math.isnan(cells[1].theta)

    @pytest.mark.parametrize("base, n_singular", [
        (ModelParams(kd=1.0), 2),
        (ModelParams(kd=1.0, gamma0=0.025, gamma_nr=0.025), 0),
        (ModelParams(kd=1.0, gamma0=0.05, gamma_nr=0.025,
                     include_superradiance=True), 0),
    ], ids=["lossless", "lossy", "collective"])
    def test_every_cell_equals_the_public_solve(self, base, n_singular):
        # kd = pi and 2*pi, and delta = 0, are on the grid: lossless, those
        # two points are singular
        kds = np.linspace(PI, 2 * PI, 7)
        deltas = np.linspace(-2.0, 2.0, 41)
        singular = 0
        for cell in concurrence_map(kds, deltas, base):
            params = dataclasses.replace(base, kd=cell.kd, delta=cell.delta)
            try:
                state = project_state(solve_two_dot(params))
            except SingularSystem:
                singular += 1
                assert math.isnan(cell.concurrence) and math.isnan(cell.theta)
                continue
            assert (cell.concurrence, cell.theta) == (
                state.concurrence, state.theta)
        assert singular == n_singular

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_rejected(self, value):
        with pytest.raises(ValueError, match="delta must be finite"):
            concurrence_map([1.0], [0.5, value],
                            ModelParams(kd=1.0, gamma_nr=0.05))

    def test_row_major_layout_and_generic_cells(self):
        kds = [0.9, 1.7]
        deltas = [-0.5, 0.5, 1.5]
        cells = concurrence_map(kds, deltas, ModelParams(kd=1.0, gamma_nr=0.05))
        assert [(c.kd, c.delta) for c in cells] == [
            (kd, d) for kd in kds for d in deltas
        ]
        generic = project_state(solve(0.9, -0.5, 0.05))
        assert cells[0].concurrence == pytest.approx(generic.concurrence)
        assert cells[0].theta == pytest.approx(generic.theta)
        assert 0.0 < cells[0].concurrence < 1.0


class TestPhaseScan:
    def test_lossless_even_branch_has_pi_at_zero(self):
        pts = phase_scan([0.0], 0.0, kd_policy="even")
        assert pts[0].theta == PI
        assert pts[0].concurrence == 1.0
        # the limit from both sides agrees with the assigned value mod 2*pi
        # (|delta| ~ 1e-6 is the closest regular approach: the lossless
        # branch meets the singular point quadratically in the determinant)
        for d in (1e-6, -1e-6):
            th = phase_scan([d], 0.0)[0].theta
            assert min(abs(th - PI), abs(th + PI)) < 1e-5

    def test_lossy_even_branch_has_zero_at_zero(self):
        for gp in (0.025, 0.125):
            pts = phase_scan([0.0], gp, kd_policy="even")
            assert abs(pts[0].theta) < 1e-12

    def test_odd_branch_swaps_the_two_values(self):
        assert phase_scan([0.0], 0.0, kd_policy="odd")[0].theta == 0.0
        for gp in (0.025, 0.125):
            th = phase_scan([0.0], gp, kd_policy="odd")[0].theta
            assert abs(th - PI) < 1e-12

    def test_scan_is_continuous_modulo_wrapping(self):
        deltas = np.linspace(-2.0, 2.0, 4001)
        for gp in (0.0, 0.025, 0.125):
            th = np.array([p.theta for p in phase_scan(deltas, gp)])
            steps = np.abs(np.diff(np.unwrap(th)))
            assert np.max(steps) < 0.2

    def test_concurrence_stays_high_along_scan(self):
        deltas = np.linspace(-2.0, 2.0, 101)
        for gp in (0.0, 0.025, 0.125):
            for pol in ("even", "odd"):
                pts = phase_scan(deltas, gp, kd_policy=pol)
                assert min(p.concurrence for p in pts) > 0.99

    def test_kd_tracks_selected_branch(self):
        even = phase_scan([0.3], 0.0, kd_policy="even")[0]
        odd = phase_scan([0.3], 0.0, kd_policy="odd")[0]
        assert even.kd == pytest.approx(2 * PI + math.atan(-0.6))
        assert odd.kd == pytest.approx(PI + math.atan(-0.6))

    @pytest.mark.parametrize("gamma_prime", [0.0, 0.05])
    @pytest.mark.parametrize("policy", ["even", "odd"])
    def test_every_point_equals_the_public_solve(self, gamma_prime, policy):
        deltas = np.linspace(-2.0, 2.0, 41)
        for point in phase_scan(deltas, gamma_prime, kd_policy=policy):
            if gamma_prime == 0.0 and point.delta == 0.0:
                continue  # the assigned limit at the decoupled point
            state = project_state(solve(point.kd, point.delta, gamma_prime))
            assert (point.theta, point.concurrence) == (
                state.theta, state.concurrence)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_rejected(self, value):
        with pytest.raises(ValueError, match="delta must be finite"):
            phase_scan([0.5, value], 0.05)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            phase_scan([0.0], 0.0, kd_policy="sideways")
        with pytest.raises(ValueError):
            phase_scan([0.0], -0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_loss_rejected(self, value):
        with pytest.raises(ValueError, match="gamma_prime must be finite"):
            phase_scan([0.0], value)
        with pytest.raises(ValueError, match="gamma_prime must be finite"):
            high_c_curve([1.0], value)
