"""Core solver: exact amplitudes, invariants, and limiting cases."""

from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

from dotwire import entanglement, model, spectra
from dotwire.cli import _linspace
from dotwire.config import OPTIONS
from dotwire.entanglement import concurrence_map, phase_scan, project_state
from dotwire.errors import SingularSystem
from dotwire.lattice import gamma_pm
from dotwire.model import (
    GAMMA_PL,
    ModelParams,
    _pair,
    _reflection_poles,
    relation_residual,
    solve_single_dot,
    solve_two_dot,
    superradiant_rate,
)
from dotwire.spectra import (
    peak_position_curve,
    reflection_minimum,
    sweep_detuning,
)
from gates import worst


class TestSuperradiantRate:
    def test_vanishes_at_pi(self):
        assert abs(superradiant_rate(math.pi, 0.025)) < 1e-18

    def test_fully_collective_limit(self):
        assert superradiant_rate(0.0, 0.05) == 0.05
        assert abs(superradiant_rate(1e-12, 0.05) - 0.05) < 1e-20

    def test_quarter_wave(self):
        assert superradiant_rate(math.pi / 2, 0.025) == pytest.approx(
            0.05 / math.pi
        )

    def test_series_matches_direct_at_cutoff(self):
        lo, hi = 0.999e-8, 1.001e-8
        assert superradiant_rate(lo, 1.0) == pytest.approx(
            superradiant_rate(hi, 1.0), abs=1e-18
        )

    def test_negative_gamma0_rejected(self):
        with pytest.raises(ValueError):
            superradiant_rate(1.0, -0.1)

    @pytest.mark.parametrize("name,args", [
        ("k0d", (math.nan, 0.025)),
        ("k0d", (math.inf, 0.025)),
        ("k0d", (-math.inf, 0.025)),
        ("gamma0", (1.0, math.nan)),
        ("gamma0", (1.0, math.inf)),
    ])
    def test_non_finite_input_rejected(self, name, args):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            superradiant_rate(*args)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            gamma_pm(*args)


class TestModelParams:
    def test_gamma_prime_is_sum(self):
        p = ModelParams(kd=1.0, gamma0=0.025, gamma_nr=0.1)
        assert p.gamma_prime == 0.125

    def test_k0d_defaults_to_kd(self):
        assert ModelParams(kd=0.7).resonant_phase == 0.7
        assert ModelParams(kd=0.7, k0d=0.9).resonant_phase == 0.9

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(kd=1.0, gamma0=-1e-3)
        with pytest.raises(ValueError):
            ModelParams(kd=1.0, gamma_nr=-1e-3)

    def test_superradiance_requires_positive_k0d(self):
        with pytest.raises(ValueError):
            ModelParams(kd=0.0, gamma0=0.025, include_superradiance=True)

    @pytest.mark.parametrize("name", ["kd", "delta", "gamma0", "gamma_nr",
                                      "k0d"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        fields = {"kd": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelParams(**fields)

    def test_at_delta_copies(self):
        p = ModelParams(kd=1.0, delta=0.0, gamma0=0.025)
        q = p.at_delta(2.0)
        assert q.delta == 2.0 and q.kd == 1.0 and q.gamma0 == 0.025
        assert p.delta == 0.0


class TestTwoDotSolver:
    def test_lossless_flux_conservation(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            kd = rng.uniform(0.05, 6.0)
            delta = rng.uniform(-4.0, 4.0)
            sol = solve_two_dot(ModelParams(kd=kd, delta=delta))
            assert abs(sol.T + sol.R - 1.0) < 1e-10
            assert abs(sol.Loss) < 1e-10

    def test_relation_residual_tiny_everywhere(self):
        rng = np.random.default_rng(11)
        worst_residual = 0.0
        for _ in range(300):
            p = ModelParams(
                kd=rng.uniform(0.05, 9.0),
                delta=rng.uniform(-5.0, 5.0),
                gamma0=rng.uniform(0.0, 0.3),
                gamma_nr=rng.uniform(0.0, 0.3),
                include_superradiance=bool(rng.integers(0, 2)),
                k0d=rng.uniform(0.3, 9.0),
            )
            worst_residual = worst(worst_residual, solve_two_dot(p).residual)
        assert worst_residual <= 1e-12

    def test_residual_is_nan_when_a_term_is_nan(self):
        # max() would drop a NaN relation and report a clean residual
        p = ModelParams(kd=1.0, delta=0.3, gamma_nr=0.05)
        sol = solve_two_dot(p)
        amps = [sol.t, sol.r, sol.a, sol.b, sol.xi1, sol.xi2]
        for i in range(len(amps)):
            bad = list(amps)
            bad[i] = complex(math.nan, 0.0)
            assert math.isnan(relation_residual(p, *bad))

    def test_zero_reflection_point(self):
        # at kd=pi/4 the lossless reflection zero sits at delta = -tan(kd)/2
        sol = solve_two_dot(ModelParams(kd=math.pi / 4, delta=-0.5))
        assert abs(sol.r) < 1e-12
        assert sol.T == pytest.approx(1.0, abs=1e-12)

    def test_collapsed_pair_equals_single_lorentzian(self):
        # at kd=2*pi the pair responds as one emitter with doubled guided
        # width: two-dot(delta) == single-dot(delta/2, gamma_prime/2)
        for delta in np.linspace(-3, 3, 41):
            two = solve_two_dot(
                ModelParams(kd=2 * math.pi, delta=float(delta),
                            gamma0=0.03, gamma_nr=0.02)
            )
            one = solve_single_dot(0.025, float(delta) / 2)
            assert abs(two.t - one.t) < 1e-10
            assert abs(two.r - one.r) < 1e-10

    def test_xi_symmetric_at_even_multiples(self):
        for delta in (-1.3, 0.4, 2.2):
            sol = solve_two_dot(
                ModelParams(kd=4 * math.pi, delta=delta, gamma_nr=0.05)
            )
            assert abs(sol.xi1 - sol.xi2) < 1e-10

    def test_xi_antisymmetric_at_odd_multiples(self):
        for delta in (-1.3, 0.4, 2.2):
            sol = solve_two_dot(
                ModelParams(kd=3 * math.pi, delta=delta, gamma_nr=0.05)
            )
            assert abs(sol.xi1 + sol.xi2) < 1e-10

    def test_reflection_symmetric_at_multiples_of_pi(self):
        for kd in (math.pi, 2 * math.pi):
            for delta in (0.3, 1.1, 2.5):
                plus = solve_two_dot(ModelParams(kd=kd, delta=delta,
                                                 gamma_nr=0.05))
                minus = solve_two_dot(ModelParams(kd=kd, delta=-delta,
                                                  gamma_nr=0.05))
                assert abs(plus.R - minus.R) < 1e-10

    def test_singular_at_dark_resonance(self):
        # lossless pair exactly on resonance at kd = 2*pi: dark + resonant
        with pytest.raises(SingularSystem):
            solve_two_dot(ModelParams(kd=2 * math.pi, delta=0.0))

    def test_superradiance_changes_solution(self):
        base = ModelParams(kd=math.pi / 4, delta=0.1, gamma0=0.025)
        off = solve_two_dot(base)
        on = solve_two_dot(
            ModelParams(kd=math.pi / 4, delta=0.1, gamma0=0.025,
                        include_superradiance=True)
        )
        assert abs(off.t - on.t) > 1e-6

    def test_superradiance_irrelevant_when_gamma0_zero(self):
        off = solve_two_dot(ModelParams(kd=1.0, delta=0.5, gamma_nr=0.1))
        on = solve_two_dot(
            ModelParams(kd=1.0, delta=0.5, gamma_nr=0.1,
                        include_superradiance=True)
        )
        assert on.t == off.t and on.r == off.r


class TestSingleDot:
    def test_resonant_lossless_mirror(self):
        sol = solve_single_dot(0.0, 0.0)
        assert sol.R == pytest.approx(1.0, abs=1e-14)
        assert sol.T == pytest.approx(0.0, abs=1e-14)

    def test_far_detuned_transparency(self):
        sol = solve_single_dot(0.0, 1e6)
        assert sol.T == pytest.approx(1.0, abs=1e-10)

    def test_lossy_resonant_reflection_closed_form(self):
        sol = solve_single_dot(0.05, 0.0)
        assert sol.R == pytest.approx((1 / (1 + 0.05)) ** 2, abs=1e-14)

    def test_t_equals_one_plus_r(self):
        sol = solve_single_dot(0.07, 0.4)
        assert abs(sol.t - (1 + sol.r)) < 1e-15

    def test_negative_gamma_prime_rejected(self):
        with pytest.raises(ValueError):
            solve_single_dot(-0.01, 0.0)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            solve_single_dot(math.nan, 0.0)
        with pytest.raises(ValueError, match="finite"):
            solve_single_dot(0.05, math.inf)


class TestReflectionPoles:
    """The partial fractions of r against the scalar solve."""

    @pytest.mark.parametrize("with_sr", [False, True])
    def test_matches_scalar_solve(self, with_sr):
        for kd in (math.pi / 4, 2.0, math.pi + 1e-3):
            params = ModelParams(kd=kd, gamma0=0.025, gamma_nr=0.025,
                                 include_superradiance=with_sr)
            poles = _reflection_poles(_pair(params))
            assert len(poles) == 2
            for delta in np.linspace(-2.0, 2.0, 41):
                r = sum(c / (delta - z) for c, z in poles)
                sol = solve_two_dot(params.at_delta(float(delta)))
                assert abs(r - sol.r) <= 1e-14

    def test_removable_singularity_is_cancelled(self):
        # lossless kd = 2*pi: the solve is singular at delta = 0, where the
        # one pole left gives perfect reflection
        params = ModelParams(kd=2 * math.pi)
        with pytest.raises(SingularSystem):
            solve_two_dot(params)
        (c, z), = _reflection_poles(_pair(params))
        assert abs(c / (0.0 - z)) ** 2 == pytest.approx(1.0, abs=1e-15)


class TestProbabilities:
    def test_perfect_transmission(self):
        sol = solve_single_dot(0.0, 1e9)
        assert sol.T == pytest.approx(1.0, abs=1e-12)

    def test_perfect_reflection(self):
        sol = solve_single_dot(0.0, 0.0)
        assert sol.R == pytest.approx(1.0, abs=1e-14)
        assert sol.Loss == pytest.approx(0.0, abs=1e-14)

    def test_lossless_two_dot_loss_zero(self):
        sol = solve_two_dot(ModelParams(kd=math.pi / 4, delta=0.3))
        assert sol.Loss == pytest.approx(0.0, abs=1e-10)


def test_scale_invariance_of_unit_frame():
    # GAMMA_PL is the unit of rates; the solver is written against it
    assert GAMMA_PL == 1.0


def test_amplitudes_continuous_near_singularity():
    # just off the singular point the solver still returns finite, consistent
    # amplitudes with tiny residuals
    sol = solve_two_dot(ModelParams(kd=2 * math.pi, delta=1e-7))
    assert sol.residual <= 1e-12
    assert abs(sol.r) <= 1.0 + 1e-9


def test_grid_functions_skip_the_relation_residual(monkeypatch):
    # the residual is the public solve's check; the detuning sweep, the
    # concurrence map, the peak search and the minimum solve every point
    # through the same kernel without it, and form the pair record once per
    # parameter set: per kd row of the map, per sweep and per search
    calls, pairs = [], []
    real, real_pair = model._relation_residual, model._pair

    def counted(*args):
        calls.append(args)
        return real(*args)

    def counted_pair(params):
        pairs.append(params)
        return real_pair(params)

    monkeypatch.setattr(model, "_relation_residual", counted)
    for module in (model, spectra, entanglement):
        monkeypatch.setattr(module, "_pair", counted_pair)
    solve_two_dot(ModelParams(kd=1.0))
    assert len(calls) == len(pairs) == 1  # the counters see the public solve
    lossy = ModelParams(kd=1.0, gamma0=0.025, gamma_nr=0.025)
    kd_rows = _linspace(0.6 * math.pi, 2.4 * math.pi, 20)
    del pairs[:]
    concurrence_map(kd_rows, _linspace(-2.0, 2.0, 20), lossy)
    assert [params.kd for params in pairs] == kd_rows
    del pairs[:]
    sweep_detuning(_linspace(-3.0, 3.0, 201), lossy)
    assert pairs == [lossy]
    del pairs[:]
    without, with_sr = peak_position_curve(
        _linspace(0.55 * math.pi, 1.45 * math.pi, 10), lossy)
    assert len(without) == len(with_sr) == 10
    assert len(pairs) == 20  # one per peak search, with and without SR
    del pairs[:]
    reflection_minimum(lossy)
    assert pairs == [lossy]
    assert len(calls) == 1


def test_solve_forms_the_phase_once(monkeypatch):
    # the amplitudes and the residual share one pair record, so one
    # e = exp(i*kd) and s_sr, and the residual reads as the public
    # relation_residual, bit for bit
    calls = []
    real = model._pair

    def counted(params):
        calls.append(params)
        return real(params)

    cases = [ModelParams(kd=kd, delta=delta, gamma0=0.025, gamma_nr=0.025,
                         include_superradiance=sr)
             for kd in (0.3, 1.0, 2.5) for delta in (-1.7, 0.0, 0.4)
             for sr in (False, True)]
    monkeypatch.setattr(model, "_pair", counted)
    solutions = [solve_two_dot(params) for params in cases]
    assert len(calls) == len(cases)
    monkeypatch.undo()
    for params, sol in zip(cases, solutions):
        assert repr(sol.residual) == repr(relation_residual(
            params, sol.t, sol.r, sol.a, sol.b, sol.xi1, sol.xi2))


def test_concurrence_map_builds_no_projected_state(monkeypatch):
    # each cell goes straight from the amplitudes to (C, theta)
    def refuse(*args, **kwargs):
        raise AssertionError("concurrence_map built a ProjectedState")

    monkeypatch.setattr(entanglement, "ProjectedState", refuse)
    with pytest.raises(AssertionError):
        entanglement.project_state(solve_two_dot(ModelParams(kd=1.0)))
    lossy = ModelParams(kd=1.0, gamma0=0.025, gamma_nr=0.025)
    cells = concurrence_map(_linspace(0.6 * math.pi, 2.4 * math.pi, 20),
                            _linspace(-2.0, 2.0, 20), lossy)
    assert len(cells) == 400
    assert not any(math.isnan(c.concurrence) for c in cells)


def test_phase_scan_builds_no_projected_state(monkeypatch):
    # each point takes (C, theta) from the amplitudes of its one public
    # solve, equal to project_state of that solve bit for bit
    defaults = {option.key: option.default for option in OPTIONS["phase"]}
    deltas = _linspace(defaults["delta_min"], defaults["delta_max"],
                       defaults["n_points"])
    cases = [(gp, policy) for gp in (0.0, 0.05) for policy in ("even", "odd")]
    expected = {}
    for gp, policy in cases:
        for delta in deltas:
            if gp == 0.0 and delta == 0.0:
                continue  # the assigned limit point, which is not solved
            kd = entanglement._branch_kd(delta, gp, policy)
            state = project_state(solve_two_dot(
                ModelParams(kd=kd, delta=delta, gamma_nr=gp)))
            expected[gp, policy, delta] = (repr(state.theta),
                                           repr(state.concurrence))

    def refuse(*args, **kwargs):
        raise AssertionError("phase_scan built a ProjectedState")

    solves, residuals = [], []

    def counted(calls, real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    monkeypatch.setattr(entanglement, "ProjectedState", refuse)
    monkeypatch.setattr(entanglement, "solve_two_dot",
                        counted(solves, entanglement.solve_two_dot))
    monkeypatch.setattr(model, "_relation_residual",
                        counted(residuals, model._relation_residual))
    for gp, policy in cases:
        del solves[:], residuals[:]
        points = phase_scan(deltas, gp, kd_policy=policy)
        assert len(points) == len(deltas)
        solved = [pt for pt in points if (gp, policy, pt.delta) in expected]
        assert len(solves) == len(residuals) == len(solved)
        assert len(solved) == len(deltas) - (gp == 0.0)
        for pt in solved:
            assert (repr(pt.theta), repr(pt.concurrence)) == \
                expected[gp, policy, pt.delta]


def test_probabilities_are_their_expressions():
    solutions = [
        solve_two_dot(ModelParams(kd=kd, delta=delta, gamma0=gp / 2,
                                  gamma_nr=gp / 2, include_superradiance=sr))
        for kd in (0.3, 1.0, 0.5 * math.pi, 2.5)
        for delta in (-1.7, -0.2, 0.0, 0.4, 3.0)
        for gp in (0.0, 0.05)
        for sr in (False, True)
    ] + [
        solve_single_dot(gp, delta)
        for delta in (-1.7, -0.2, 0.0, 0.4, 3.0, 1e9)
        for gp in (0.0, 0.05, 2.0)
    ]
    for sol in solutions:
        T, R = abs(sol.t) ** 2, abs(sol.r) ** 2
        assert repr((sol.T, sol.R, sol.Loss)) == repr((T, R, 1.0 - T - R))


def _list_residual(params, t, r, a, b, xi1, xi2):
    """relation_residual as first written, a list of errors reduced by sum
    and max, kept as the reference for the single-loop form."""
    g = model.G_COUPLING
    gp = params.gamma_prime
    _, e, s_sr, _, _ = model._pair(params)
    d_loss = params.delta + 0.5j * gp
    g_over_iv = g / (1j * model.V_G)
    pairs = (
        (g * (2 * a * e + 2 * b / e) - s_sr * xi1, d_loss * xi2),
        (g * (1 + a + r + b) - s_sr * xi2, d_loss * xi1),
        (a, 1.0 + g_over_iv * xi1),
        (b, g_over_iv * xi2 * e),
        (t, 1.0 + g_over_iv * (xi1 + xi2 / e)),
        (r, g_over_iv * (xi1 + xi2 * e)),
    )
    amp_scale = max(1.0, abs(xi1), abs(xi2))
    errors = [
        abs(lhs - rhs) / max(amp_scale, abs(lhs), abs(rhs))
        for lhs, rhs in pairs
    ]
    return math.nan if math.isnan(sum(errors)) else max(errors)


def test_relation_residual_matches_the_list_form():
    rng = random.Random(20261020)
    specials = (math.nan, math.inf, -math.inf, 1e300, -1e300)
    outcomes = []
    while len(outcomes) < 5000:
        gp = rng.choice((0.0, rng.uniform(0.0, 0.5)))
        params = ModelParams(
            kd=rng.uniform(0.01, 7.0), delta=rng.uniform(-4.0, 4.0),
            gamma0=gp / 2, gamma_nr=gp / 2,
            include_superradiance=rng.random() < 0.3 and gp > 0,
            k0d=rng.choice((None, rng.uniform(0.1, 7.0))))
        try:
            amplitudes = list(model._amplitudes(model._pair(params),
                                                params.delta))
        except SingularSystem:
            continue
        for k in range(6):
            if rng.random() < 0.3:
                amplitudes[k] *= 1.0 + complex(rng.gauss(0.0, 1e-3),
                                               rng.gauss(0.0, 1e-3))
            if rng.random() < 0.05:
                part = rng.choice(specials)
                amplitudes[k] = (complex(part, amplitudes[k].imag)
                                 if rng.random() < 0.5
                                 else complex(amplitudes[k].real, part))
        residual = relation_residual(params, *amplitudes)
        assert repr(residual) == repr(_list_residual(params, *amplitudes)), \
            (params, amplitudes)
        outcomes.append(residual)
    # the draw reaches clean, large and NaN figures alike
    assert any(residual < 1e-12 for residual in outcomes)
    assert any(1e-6 < residual < 1.0 for residual in outcomes)
    assert any(math.isnan(residual) for residual in outcomes)

