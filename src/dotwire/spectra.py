"""Spectral sweeps and feature location for the two-emitter response.

Both features are found in closed form. The reflection amplitude is a sum
of two simple poles in the detuning (model._reflection_poles), so
R = |r|^2 is a ratio of real polynomials and its stationary points are the
real roots of a polynomial of degree at most 5; the reflection peak is the
one of them with the largest R. The resonant-tunneling reflection minimum
satisfies, in modulus form,

    tan^2(kd) = 4*delta_min^2 + gamma_prime^2      (rates in GAMMA_PL units)

on the side delta_min * tan(kd) < 0. With loss the condition marks the
tunneling stationarity point rather than an exact zero of R; exact zeros
exist only at gamma_prime = 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from .errors import NoMinimumInBracket, NoPeakInBracket, SingularSystem
from .model import (
    ModelParams,
    _amplitudes,
    _phase_and_coupling,
    _reflection_poles,
    solve_two_dot,
)

__all__ = [
    "SpectrumRow",
    "PeakRecord",
    "sweep_detuning",
    "reflection_peak",
    "peak_position_curve",
    "reflection_minimum",
]

log = logging.getLogger(__name__)

_POLE_EXCLUSION = 1e-3  # kd closer than this to an odd pi/2 is skipped
_NEWTON_STEPS = 3


@dataclass(frozen=True)
class SpectrumRow:
    """One point of a detuning sweep."""

    delta: float
    T: float
    R: float
    Loss: float


@dataclass(frozen=True)
class PeakRecord:
    """A located reflection maximum."""

    kd: float
    delta_peak: float
    R_peak: float
    with_sr: bool


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) as a list of Python floats, equal to
    it bit for bit, without importing numpy: point i is i*step + start, the
    last point is stop, and a step that underflows to zero is applied as
    (i/(num - 1))*(stop - start) instead, as numpy does."""
    start, stop = float(start), float(stop)
    div, span = num - 1, stop - start
    if div <= 0:
        return [0.0 * span + start for _ in range(num)]
    step = span / div
    if step == 0:
        points = [i / div * span + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def sweep_detuning(
    params: ModelParams,
    delta_min: float,
    delta_max: float,
    n_points: int,
) -> list[SpectrumRow]:
    """Solve on a uniform detuning grid; params.delta is overridden per row.

    Each row equals solve_two_dot at its detuning bit for bit, without the
    relation residual. SingularSystem propagates with the offending
    detuning in its message; a non-finite detuning raises ValueError.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    if not delta_min < delta_max:
        raise ValueError(
            f"need delta_min < delta_max, got {delta_min} >= {delta_max}"
        )
    e, w = _phase_and_coupling(params)
    kd, gamma_prime = params.kd, params.gamma_prime
    rows = []
    for delta in _linspace(delta_min, delta_max, n_points):
        t, r = _amplitudes(kd, e, w, delta, gamma_prime)[:2]
        T, R = abs(t) ** 2, abs(r) ** 2
        rows.append(SpectrumRow(delta, T, R, 1.0 - T - R))
    return rows


def _reflection(
    params: ModelParams, poles: list[tuple[complex, complex]], delta: float
) -> float:
    """R(delta) from solve_two_dot; at a removable singularity of r, where
    the solve raises SingularSystem, from the partial fractions, which have
    that factor cancelled."""
    try:
        return solve_two_dot(params.at_delta(delta)).R
    except SingularSystem:
        return abs(sum(c / (delta - z) for c, z in poles)) ** 2


def _bracket(bracket: tuple[float, float]) -> tuple[float, float]:
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"invalid bracket {bracket}")
    return lo, hi


def reflection_peak(
    params: ModelParams,
    bracket: tuple[float, float] = (-3.0, 3.0),
) -> PeakRecord:
    """Locate the maximum of R(delta) inside the bracket, in closed form.

    r is summed from its poles into one fraction num/den, so that
    R = |num|^2 / |den|^2 and the stationary points of R are the roots of
    the real polynomial |num|^2' |den|^2 - |num|^2 |den|^2' (degree <= 5).
    Its roots are polished by Newton steps, and the real part of each root
    inside the bracket is a candidate; the interior maximum is among them.
    The candidate with the largest R (from solve_two_dot) is the peak.
    R(delta) can be multi-modal (a reflection zero next to a narrow
    subradiant peak); every stationary point is a candidate, so the highest
    maximum is found. Quadratic maxima are located to about 1e-10. Lossless
    maxima are quartically flat (1 - R ~ 0.1 * delta^4), so their returned
    position is anywhere on the machine-precision plateau (|delta| < ~5e-4)
    — the peak value is still exact. When no candidate has a larger R than
    both bracket edges, R has no interior maximum above its edge values
    there: NoPeakInBracket.
    """
    import numpy as np  # only the peak search needs polynomial algebra

    lo, hi = _bracket(bracket)
    poles = _reflection_poles(params)
    # num/den + c/(delta - z); num keeps a zero leading coefficient, so
    # the two stay of equal length and no derivative below is empty
    num, den = np.zeros(1, complex), np.ones(1, complex)
    for c, z in poles:
        factor = [1.0, -z]
        num = np.convolve(num, factor) + c * np.concatenate(([0.0], den))
        den = np.convolve(den, factor)
    # |p(x)|^2 for real x, as a real polynomial (highest power first)
    power_num = np.convolve(num, np.conj(num)).real
    power_den = np.convolve(den, np.conj(den)).real
    slope = (np.convolve(np.polyder(power_num), power_den)
             - np.convolve(power_num, np.polyder(power_den)))
    roots, d_slope = np.roots(slope), np.polyder(slope)
    for _ in range(_NEWTON_STEPS):
        # d_slope vanishes exactly only at an exact multiple root: stay put
        d = np.polyval(d_slope, roots)
        roots = roots - np.divide(np.polyval(slope, roots), d,
                                  out=np.zeros_like(roots), where=d != 0)
    candidates = [
        (_reflection(params, poles, x), x)
        for x in map(float, roots.real) if lo < x < hi
    ]
    R_peak, delta_peak = max(candidates, default=(-math.inf, None))
    if R_peak <= max(_reflection(params, poles, lo),
                     _reflection(params, poles, hi)):
        raise NoPeakInBracket(
            f"R(delta) has no interior maximum above its edge values on "
            f"[{lo}, {hi}] for kd={params.kd}"
        )
    return PeakRecord(
        kd=params.kd,
        delta_peak=delta_peak,
        R_peak=R_peak,
        with_sr=params.include_superradiance,
    )


def peak_position_curve(
    kd_values,
    params_base: ModelParams,
    bracket: tuple[float, float] = (-3.0, 3.0),
) -> tuple[list[PeakRecord], list[PeakRecord]]:
    """Reflection-peak position vs kd, with and without the collective term.

    kd values within 1e-3 of an odd multiple of pi/2 are excluded (tangent
    poles push the peak out of any fixed bracket), and kd points where the
    bracket holds no interior maximum are skipped with a warning — never
    interpolated. If params_base.k0d is None, k0d tracks kd. An empty
    bracket raises ValueError before any kd is tried, and a non-finite kd
    when it is reached.

    Returns (records without collective term, records with it).
    """
    _bracket(bracket)
    without: list[PeakRecord] = []
    with_sr: list[PeakRecord] = []
    for kd in kd_values:
        kd = float(kd)
        if not math.isfinite(kd):
            raise ValueError(f"kd must be finite, got {kd}")
        folded = abs(math.remainder(kd, math.pi))
        if abs(folded - math.pi / 2) < _POLE_EXCLUSION:
            log.warning("skipping kd=%.6f: tangent pole", kd)
            continue
        for flag, out in ((False, without), (True, with_sr)):
            p = replace(params_base, kd=kd, delta=0.0,
                        include_superradiance=flag)
            try:
                out.append(reflection_peak(p, bracket=bracket))
            except NoPeakInBracket:
                log.warning(
                    "skipping kd=%.6f (with_sr=%s): no peak in %s",
                    kd, flag, bracket,
                )
    return without, with_sr


def reflection_minimum(
    params: ModelParams,
    bracket: tuple[float, float] = (-3.0, 3.0),
) -> tuple[float, float, float]:
    """Locate the resonant-tunneling minimum of R(delta) (modulus form).

    Takes the root of h(delta) = 4*delta^2 + gamma_prime^2 - tan^2(kd) on
    the side opposite to the sign of tan(kd),

        delta_min = -sign(tan(kd)) * sqrt(tan^2(kd) - gamma_prime^2) / 2,

    and returns

        (delta_min, R(delta_min), |h(delta_min)|)

    At gamma_prime = 0 the point is an exact reflection zero (R <= 1e-12);
    with loss R stays positive there. NoMinimumInBracket is raised when the
    condition has no root (tan^2(kd) < gamma_prime^2), when the root lies
    outside the bracket, or when it degenerates: lossless at kd = n*pi the
    root delta_min ~ 1e-16 falls on the removable singularity of r, where
    R = 1.
    """
    lo, hi = _bracket(bracket)
    gp = params.gamma_prime
    tan = math.tan(params.kd)
    disc = tan * tan - gp * gp
    delta_min = -math.copysign(0.5 * math.sqrt(max(disc, 0.0)), tan)
    if disc < 0 or not lo <= delta_min <= hi:
        raise NoMinimumInBracket(
            f"no tunneling minimum in [{lo}, {hi}] for kd={params.kd}, "
            f"gamma_prime={gp} (tan^2={tan * tan:.3e}, gp^2={gp * gp:.3e})"
        )
    try:
        sol = solve_two_dot(params.at_delta(delta_min))
    except SingularSystem as exc:
        raise NoMinimumInBracket(
            f"tunneling condition degenerates at kd={params.kd}, "
            f"gamma_prime={gp}: its root {delta_min:.3e} is the removable "
            f"singularity of r, a reflection peak"
        ) from exc
    return delta_min, sol.R, abs(4.0 * delta_min**2 + gp * gp - tan * tan)
