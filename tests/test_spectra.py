"""Tests for spectral sweeps, peak location, and the tunneling minimum."""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest

from dotwire import spectra
from dotwire.cli import _linspace
from dotwire.config import OPTIONS
from dotwire.errors import (
    NoMinimumInBracket,
    NoPeakInBracket,
    NotConverged,
    SingularSystem,
)
from dotwire.model import ModelParams, _pair, _reflection_poles, solve_two_dot
from dotwire.spectra import (
    _poly_roots,
    peak_position_curve,
    reflection_minimum,
    reflection_peak,
    sweep_detuning,
)

PI = math.pi


def lossy_params(kd: float, with_sr: bool = False) -> ModelParams:
    return ModelParams(
        kd=kd,
        gamma0=0.025,
        gamma_nr=0.025,
        k0d=kd if with_sr else None,
        include_superradiance=with_sr,
    )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _numpy_peak_position(params: ModelParams, bracket) -> float:
    """delta of the reflection peak by the numpy search the closed form
    replaced: np.roots on the slope polynomial, three Newton steps, and R
    of each candidate from solve_two_dot."""
    lo, hi = bracket
    poles = _reflection_poles(_pair(params))
    num, den = np.zeros(1, complex), np.ones(1, complex)
    for c, z in poles:
        factor = [1.0, -z]
        num = np.convolve(num, factor) + c * np.concatenate(([0.0], den))
        den = np.convolve(den, factor)
    power_num = np.convolve(num, np.conj(num)).real
    power_den = np.convolve(den, np.conj(den)).real
    slope = (np.convolve(np.polyder(power_num), power_den)
             - np.convolve(power_num, np.polyder(power_den)))
    roots, d_slope = np.roots(slope), np.polyder(slope)
    for _ in range(3):
        d = np.polyval(d_slope, roots)
        roots = roots - np.divide(np.polyval(slope, roots), d,
                                  out=np.zeros_like(roots), where=d != 0)

    def reflection(delta):
        try:
            return solve_two_dot(params.at_delta(delta)).R
        except SingularSystem:
            return abs(sum(c / (delta - z) for c, z in poles)) ** 2

    return max((reflection(x), x) for x in map(float, roots.real)
               if lo < x < hi)[1]


def _assert_roots_match(found, reference, tolerance):
    """Each reference root has its own found root within tolerance times
    max(1, |root|)."""
    found = list(found)
    assert len(found) == len(reference)
    for z in reference:
        nearest = min(found, key=lambda x: abs(x - z))
        assert abs(nearest - z) <= tolerance * max(1.0, abs(z)), (z, found)
        found.remove(nearest)


class TestPolyRoots:
    def test_random_polynomials_match_numpy(self):
        rng = random.Random(2026)
        for degree in range(1, 6):
            for trial in range(40):
                coeffs = [rng.gauss(0.0, 1.0) for _ in range(degree + 1)]
                # exact zeros at the ends: leading ones are dropped, and
                # trailing ones are roots at 0
                coeffs = [0.0] * (trial % 3) + coeffs + [0.0] * (trial % 2)
                roots = _poly_roots(coeffs)
                _assert_roots_match(roots, np.roots(coeffs), 1e-9)
                assert roots.count(0j) >= trial % 2
                # the stop rule, the one accuracy guarantee: each iterate
                # is a root of a polynomial within Horner's rounding level
                trimmed = coeffs[trial % 3:len(coeffs) - trial % 2]
                for z in roots[:degree]:
                    value = scale = 0.0
                    for c in trimmed:
                        value = value * z + c
                        scale = scale * abs(z) + abs(c)
                    assert abs(value) <= 2 * degree * 2.0**-52 * scale, z

    @pytest.mark.parametrize("coeffs, roots", [
        ([2.0, 0.0, 0.0], [0j, 0j]),
        ([0.0, 3.0], []),
    ], ids=["monomial", "constant"])
    def test_monomial_and_constant(self, coeffs, roots):
        # nothing left to iterate on once the zeros at the ends are gone
        assert _poly_roots(coeffs) == roots
        assert np.roots(coeffs).tolist() == roots

    def test_triple_root(self):
        # the slope at a lossless peak: a triple root, where the iterates
        # stop on the backward error, not on their step size
        coeffs = np.poly([0.3, 0.3, 0.3, -2.0, 1.5]).tolist()
        roots = _poly_roots(coeffs)
        _assert_roots_match(roots, [0.3, 0.3, 0.3, -2.0, 1.5], 1e-4)
        _assert_roots_match(roots, np.roots(coeffs), 1e-4)
        _assert_roots_match([z for z in roots if abs(z - 0.3) > 0.1],
                            [-2.0, 1.5], 1e-12)

    def test_near_double_root(self):
        coeffs = np.poly([0.5, 0.5 + 1e-7, -2.0, 1 + 1j, 1 - 1j]).real
        roots = _poly_roots(coeffs.tolist())
        _assert_roots_match(roots, np.roots(coeffs), 5e-8)
        near = sorted(z.real for z in roots if abs(z - 0.5) < 1e-3)
        assert near[0] < 0.5 + 5e-8 < near[1]

    def test_cap_raises_instead_of_returning_an_iterate(self, monkeypatch):
        monkeypatch.setattr(spectra, "_ABERTH_STEPS", 1)
        with pytest.raises(NotConverged, match="after 1 sweeps"):
            _poly_roots([1.0, -3.5, 3.0])
        with pytest.raises(NotConverged):
            reflection_peak(lossy_params(PI / 4))


class TestLinspace:
    @pytest.mark.parametrize("start, stop, num", [
        (-3.0, 3.0, 601),
        (2.0, -3.0, 2),
        (-1.0, 1.0, 1),
        (-0.0, 0.0, 1),
        (1.0, 1.0, 5),
        (0.0, 1.0, 0),
        # subnormal spans whose step underflows to zero: numpy divides the
        # index first, which keeps the interior points apart
        (0.0, 5e-324, 3),
        (0.0, 1.5e-323, 10),
        (-1e-322, 1e-322, 401),
        (0.6 * PI, 2.4 * PI, 91),
    ])
    def test_edge_cases_equal_numpy(self, start, stop, num):
        assert _bits(_linspace(start, stop, num)) == _bits(
            np.linspace(start, stop, num))

    def test_random_grids_equal_numpy_bit_for_bit(self):
        rng = random.Random(15)
        for _ in range(5000):
            start, stop = (rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)
                           for _ in range(2))
            num = rng.choice((1, 2, 3, rng.randint(0, 400)))
            points = _linspace(start, stop, num)
            assert all(type(x) is float for x in points)
            assert _bits(points) == _bits(np.linspace(start, stop, num)), (
                start, stop, num)


class TestSweepDetuning:
    def test_matches_pointwise_solve(self):
        params = lossy_params(PI / 4)
        rows = sweep_detuning(_linspace(-2.0, 2.0, 41), params)
        assert len(rows) == 41
        assert rows[0].delta == -2.0 and rows[-1].delta == 2.0
        mid = rows[20]
        sol = solve_two_dot(params.at_delta(mid.delta))
        assert mid.R == sol.R and mid.T == sol.T and mid.Loss == sol.Loss

    def test_lossless_rows_conserve_flux(self):
        rows = sweep_detuning(_linspace(-3.0, 3.0, 101),
                              ModelParams(kd=PI / 3))
        for row in rows:
            assert abs(row.T + row.R - 1.0) < 1e-12
            assert abs(row.Loss) < 1e-12

    @pytest.mark.parametrize("params", [
        ModelParams(kd=PI / 3),
        lossy_params(0.7 * PI),
        lossy_params(1.3 * PI, with_sr=True),
    ], ids=["lossless", "lossy", "collective"])
    def test_every_row_equals_the_public_solve(self, params):
        for row in sweep_detuning(_linspace(-3.0, 3.0, 241), params):
            sol = solve_two_dot(params.at_delta(row.delta))
            assert (row.T, row.R, row.Loss) == (sol.T, sol.R, sol.Loss)

    def test_propagates_singular_point(self):
        # the message names the point: kd, the detuning and the loss
        where = f"kd={2 * PI}, delta=0.0, gamma_prime=0.0"
        with pytest.raises(SingularSystem, match=re.escape(where)):
            sweep_detuning(_linspace(-1.0, 1.0, 21), ModelParams(kd=2 * PI))

    @pytest.mark.parametrize("ends", [(-math.inf, 1.0), (-1.0, math.inf)])
    def test_rejects_an_infinite_end(self, ends):
        with pytest.raises(ValueError, match="delta must be finite"):
            sweep_detuning(ends, lossy_params(PI / 4))


class TestReflectionPeak:
    def test_frozen_anchor_without_collective_term(self):
        rec = reflection_peak(lossy_params(PI / 4, with_sr=False))
        assert rec.delta_peak == pytest.approx(0.160262, abs=5e-6)
        assert rec.R_peak == pytest.approx(0.919388, abs=5e-6)
        assert rec.with_sr is False

    def test_frozen_anchor_with_collective_term(self):
        rec = reflection_peak(lossy_params(PI / 4, with_sr=True))
        assert rec.delta_peak == pytest.approx(0.105358, abs=5e-6)
        assert rec.R_peak == pytest.approx(0.909009, abs=5e-6)
        assert rec.with_sr is True

    def test_peak_sign_follows_tangent(self):
        # with loss the peak detuning sits on the sign of tan(kd)
        for kd in (PI / 2 - 0.3, PI / 2 + 0.3):
            rec = reflection_peak(lossy_params(kd))
            assert rec.delta_peak * math.tan(kd) > 0
        rec = reflection_peak(lossy_params(PI / 2 + 0.3))
        assert rec.delta_peak == pytest.approx(-0.109, abs=2e-3)

    def test_lossless_peak_is_unit_reflection_at_resonance(self):
        # lossless maxima are quartically flat: position is only defined to
        # the machine-precision plateau, but the value is 1 to rounding,
        # on either side of it
        rng = random.Random(27)
        for kd in [PI / 4, PI / 3, PI / 2, 1.2 * PI, 3 * PI / 2,
                   *(rng.uniform(0.05, 4 * PI) for _ in range(200))]:
            rec = reflection_peak(ModelParams(kd=kd))
            assert abs(rec.delta_peak) < 5e-4, kd
            assert abs(rec.R_peak - 1.0) <= 8 * 2.0**-52, kd

    def test_survives_singular_grid_point(self):
        # lossless kd = n*pi: r has a removable singularity at delta = 0,
        # where solve_two_dot raises SingularSystem, and the peak is there
        for kd in (PI, 2 * PI, 3 * PI):
            rec = reflection_peak(ModelParams(kd=kd))
            assert abs(rec.delta_peak) < 1e-6
            assert rec.R_peak > 1.0 - 1e-6

    @pytest.mark.parametrize("with_sr", [False, True],
                             ids=["anchor", "anchor-sr"])
    def test_agrees_with_dense_scan(self, with_sr):
        params = lossy_params(PI / 4, with_sr=with_sr)
        rec = reflection_peak(params)
        grid = np.linspace(-3.0, 3.0, 6001)
        values = [solve_two_dot(params.at_delta(float(d))).R for d in grid]
        idx = int(np.argmax(values))
        assert abs(rec.delta_peak - grid[idx]) <= grid[1] - grid[0]
        assert values[idx] <= rec.R_peak
        assert rec.R_peak == solve_two_dot(params.at_delta(rec.delta_peak)).R

    def test_monotone_flank_raises(self):
        with pytest.raises(NoPeakInBracket):
            reflection_peak(lossy_params(PI / 4), bracket=(1.0, 3.0))

    def test_loss_monotonically_suppresses_peak(self):
        peaks = []
        for gamma in np.linspace(0.0, 0.25, 20):
            rec = reflection_peak(
                ModelParams(kd=PI / 4, gamma0=gamma, gamma_nr=gamma)
            )
            peaks.append(rec.R_peak)
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            reflection_peak(lossy_params(PI / 4), bracket=(2.0, -2.0))

    @pytest.mark.parametrize("bracket", [(-math.inf, 3.0), (-3.0, math.inf),
                                         (-math.inf, math.inf),
                                         (-3.0, -math.inf), (math.nan, 3.0)])
    def test_rejects_an_infinite_bracket_end(self, bracket):
        message = re.escape(f"bracket ends must be finite, got {bracket}")
        with pytest.raises(ValueError, match=message):
            reflection_peak(lossy_params(PI / 4), bracket=bracket)
        with pytest.raises(ValueError, match=message):
            peak_position_curve([PI / 4], ModelParams(kd=1.0),
                                bracket=bracket)


class TestPeakPositionCurve:
    def test_solves_through_pi_half_and_separates_branches(self, caplog):
        kd_values = np.linspace(0.3 * PI, 0.7 * PI, 9)  # includes pi/2
        base = ModelParams(kd=1.0, gamma0=0.025, gamma_nr=0.025)
        without, with_sr = peak_position_curve(kd_values, base)
        assert [r.kd for r in without] == [r.kd for r in with_sr] == [
            float(kd) for kd in kd_values]
        assert caplog.records == []
        assert all(not r.with_sr for r in without)
        assert all(r.with_sr for r in with_sr)
        # the collective term visibly shifts at least one peak
        shifts = [
            abs(a.delta_peak - b.delta_peak)
            for a, b in zip(without, with_sr)
            if a.kd == b.kd
        ]
        assert max(shifts) > 1e-3

    def test_default_peaks_grid_yields_every_record(self):
        p = {option.key: option.default for option in OPTIONS["peaks"]}
        kd_values = np.linspace(p["kd_min"], p["kd_max"], p["n_kd"])
        base = ModelParams(kd=1.0, gamma0=p["gamma0"],
                           gamma_nr=p["gamma_nr"])
        without, with_sr = peak_position_curve(
            kd_values, base, bracket=(p["bracket_lo"], p["bracket_hi"])
        )
        assert len(without) == len(with_sr) == p["n_kd"] == 46

    def test_default_peaks_grid_matches_a_numpy_search(self):
        # positions within 1e-9 of the numpy search; each R_peak is the
        # public solve's R at that detuning, bit for bit
        p = {option.key: option.default for option in OPTIONS["peaks"]}
        base = ModelParams(kd=1.0, gamma0=p["gamma0"],
                           gamma_nr=p["gamma_nr"])
        bracket = (p["bracket_lo"], p["bracket_hi"])
        without, with_sr = peak_position_curve(
            _linspace(p["kd_min"], p["kd_max"], p["n_kd"]), base,
            bracket=bracket,
        )
        assert len(without) + len(with_sr) == 92
        for rec in without + with_sr:
            params = ModelParams(kd=rec.kd, gamma0=p["gamma0"],
                                 gamma_nr=p["gamma_nr"],
                                 include_superradiance=rec.with_sr)
            reference = _numpy_peak_position(params, bracket)
            assert abs(rec.delta_peak - reference) <= 1e-9
            assert rec.R_peak == solve_two_dot(
                params.at_delta(rec.delta_peak)).R

    def test_rejects_bad_bracket_when_every_kd_is_skipped(self):
        # (1, 3) holds no peak at kd = pi/4, so every kd would be skipped
        base = ModelParams(kd=1.0, gamma0=0.025, gamma_nr=0.025)
        with pytest.raises(ValueError, match=r"invalid bracket \(3.0, 1.0\)"):
            peak_position_curve([PI / 4], base, bracket=(3.0, 1.0))

    @pytest.mark.parametrize("gamma_prime", [0.05, 0.0],
                             ids=["lossy", "lossless"])
    def test_solves_every_kd_across_the_tangent_poles(self, gamma_prime):
        # tan(kd) diverges at odd multiples of pi/2, but R(delta) keeps an
        # interior maximum there: no dense-grid R above the returned one
        kd_values = [(n + 0.5) * PI + offset for n in (0, 1)
                     for offset in np.linspace(-0.01, 0.01, 11)]
        base = ModelParams(kd=1.0, gamma0=gamma_prime / 2,
                           gamma_nr=gamma_prime / 2)
        grid = np.linspace(-3.0, 3.0, 3001)
        for records in peak_position_curve(kd_values, base):
            assert [r.kd for r in records] == [float(kd) for kd in kd_values]
            for rec in records:
                params = ModelParams(kd=rec.kd, gamma0=base.gamma0,
                                     gamma_nr=base.gamma_nr,
                                     include_superradiance=rec.with_sr)
                dense = max(row.R for row in sweep_detuning(grid, params))
                assert dense <= rec.R_peak, rec

    @pytest.mark.parametrize("kd", [math.inf, -math.inf, math.nan])
    def test_non_finite_kd_rejected(self, kd):
        # ModelParams refuses it, by name, when the kd is reached
        with pytest.raises(ValueError, match=f"kd must be finite, got {kd}"):
            peak_position_curve([kd], ModelParams(kd=1.0))


class TestReflectionMinimum:
    def test_condition_matrix(self):
        # the returned point satisfies the stationarity condition across the
        # kd x gamma_prime matrix, and is an exact zero only when lossless
        for kd in (PI / 8, PI / 4, 3 * PI / 8):
            for gp in (0.0, 0.05, 0.25):
                params = ModelParams(kd=kd, gamma0=gp / 2, gamma_nr=gp / 2)
                delta_min, r_min, residual = reflection_minimum(params)
                assert residual <= 1e-6
                expected = -math.sqrt(math.tan(kd) ** 2 - gp * gp) / 2
                assert delta_min == pytest.approx(expected, abs=1e-10)
                if gp == 0.0:
                    assert r_min <= 1e-12
                else:
                    assert r_min > 1e-12

    def test_default_bracket_tracks_tangent_sign(self):
        delta_min, r_min, _ = reflection_minimum(ModelParams(kd=3 * PI / 4))
        assert delta_min == pytest.approx(0.5, abs=1e-10)
        assert r_min <= 1e-12

    def test_overdamped_condition_raises(self):
        params = ModelParams(kd=PI / 4, gamma0=0.55, gamma_nr=0.55)
        with pytest.raises(NoMinimumInBracket):
            reflection_minimum(params)  # tan^2 = 1 <= gamma_prime^2

    def test_root_outside_bracket_raises(self):
        with pytest.raises(NoMinimumInBracket):
            reflection_minimum(
                ModelParams(kd=PI / 4), bracket=(-0.01, -1e-12)
            )

    def test_near_pole_pushes_root_out_of_bracket(self):
        with pytest.raises(NoMinimumInBracket):
            reflection_minimum(ModelParams(kd=PI / 2))

    def test_sign_comes_from_the_tangent_not_the_bracket(self):
        # the zero at kd = pi/4 is at delta = -1/2; a bracket holding both
        # sides finds it, and one holding only the other side has none
        delta_min, r_min, _ = reflection_minimum(
            ModelParams(kd=PI / 4), bracket=(-3.0, 3.0)
        )
        assert delta_min == pytest.approx(-0.5, abs=1e-12)
        assert r_min <= 1e-12
        with pytest.raises(NoMinimumInBracket):
            reflection_minimum(ModelParams(kd=PI / 4), bracket=(0.0, 3.0))

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            reflection_minimum(ModelParams(kd=PI / 4), bracket=(0.0, -3.0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lossless_kd_n_pi_has_no_minimum(self, n):
        # the root sits on the removable singularity, where R = 1
        with pytest.raises(NoMinimumInBracket, match="degenerates"):
            reflection_minimum(ModelParams(kd=n * PI))
