"""Spectral sweeps and feature location for the two-emitter response.

Locates reflection peaks (coarse scan + bounded refinement, robust to the
Fano-like zeros sitting next to narrow subradiant peaks) and the
resonant-tunneling reflection minimum, whose stationarity condition in
modulus form reads

    tan^2(kd) = 4*delta_min^2 + gamma_prime^2      (rates in GAMMA_PL units)

With loss the condition marks the tunneling stationarity point rather than
an exact zero of R; exact zeros exist only at gamma_prime = 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoMinimumInBracket, NoPeakInBracket, SingularSystem
from .model import ModelParams, _reflection_scan, solve_two_dot

__all__ = [
    "SpectrumRow",
    "PeakRecord",
    "REFINE_TOL",
    "sweep_detuning",
    "reflection_peak",
    "peak_position_curve",
    "reflection_minimum",
]

log = logging.getLogger(__name__)

REFINE_TOL = 1e-8
_POLE_EXCLUSION = 1e-3  # kd closer than this to an odd pi/2 is skipped
_FD_STEP = 1e-6  # central-difference step for the stationarity polish


# scipy.optimize takes a few tenths of a second to import and only peak
# refinement and the tunneling minimum need it, so these two names import
# it on first call; they stay module attributes so tests can patch them.
def brentq(*args, **kwargs):
    """scipy.optimize.brentq, imported on first call."""
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    """scipy.optimize.minimize_scalar, imported on first call."""
    from scipy.optimize import minimize_scalar

    return minimize_scalar(*args, **kwargs)


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


def sweep_detuning(
    params: ModelParams,
    delta_min: float,
    delta_max: float,
    n_points: int,
) -> list[SpectrumRow]:
    """Solve on a uniform detuning grid; params.delta is overridden per row.

    SingularSystem propagates with the offending detuning in its message.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    if not delta_min < delta_max:
        raise ValueError(
            f"need delta_min < delta_max, got {delta_min} >= {delta_max}"
        )
    rows = []
    for delta in np.linspace(delta_min, delta_max, n_points):
        sol = solve_two_dot(params.at_delta(float(delta)))
        rows.append(SpectrumRow(float(delta), sol.T, sol.R, sol.Loss))
    return rows


def _reflection(params: ModelParams, delta: float) -> float:
    """R(delta), with the measure-zero singular set mapped to -inf so that
    scans and maximizers simply step around it."""
    try:
        return solve_two_dot(params.at_delta(delta)).R
    except SingularSystem:
        return -math.inf


def _polish_peak(params: ModelParams, x: float) -> float:
    """Sharpen a bounded-search maximum by root-finding the central-difference
    slope of R. Value-only search stalls at ~sqrt(eps) from a quadratic
    maximum; the slope root is reproducible to ~1e-10. Falls back to x when
    no slope sign change brackets it (flat-top maxima, singular neighbors).
    """
    h = _FD_STEP

    def slope(d: float) -> float:
        return _reflection(params, d + h) - _reflection(params, d - h)

    g_lo, g_hi = slope(x - h), slope(x + h)
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)) or g_lo * g_hi > 0:
        return x
    return float(brentq(slope, x - h, x + h, xtol=1e-12))


def reflection_peak(
    params: ModelParams,
    bracket: tuple[float, float] = (-3.0, 3.0),
    n_scan: int = 2001,
) -> PeakRecord:
    """Locate the maximum of R(delta) inside the bracket.

    R(delta) can be multi-modal (a reflection zero adjacent to a narrow
    subradiant peak), so the argmax is first bracketed by a uniform coarse
    scan (the closed form evaluated on the whole grid in one numpy pass),
    refined by bounded search, then polished via the stationarity slope,
    both on the scalar solver; quadratic maxima are localized well inside
    1e-8. Lossless maxima are quartically flat (1 - R ~ 0.1 * delta^4), so
    their returned position is anywhere on the machine-precision plateau
    (|delta| < ~5e-4) — the peak value is still exact. A coarse argmax on
    the bracket edge means R is monotone there: NoPeakInBracket.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"invalid bracket {bracket}")
    grid = np.linspace(lo, hi, n_scan)
    r, singular = _reflection_scan(params, grid)
    values = np.where(singular, -math.inf, np.abs(r) ** 2)
    idx = int(np.argmax(values))
    if idx == 0 or idx == n_scan - 1:
        raise NoPeakInBracket(
            f"R(delta) is monotone on [{lo}, {hi}] for kd={params.kd} "
            f"(coarse argmax on the bracket edge)"
        )
    res = minimize_scalar(
        lambda d: -_reflection(params, float(d)),
        bounds=(float(grid[idx - 1]), float(grid[idx + 1])),
        method="bounded",
        options={"xatol": 1e-9},
    )
    delta_peak = _polish_peak(params, float(res.x))
    return PeakRecord(
        kd=params.kd,
        delta_peak=delta_peak,
        R_peak=_reflection(params, delta_peak),
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
    interpolated. If params_base.k0d is None, k0d tracks kd.

    Returns (records without collective term, records with it).
    """
    without: list[PeakRecord] = []
    with_sr: list[PeakRecord] = []
    for kd in kd_values:
        kd = float(kd)
        folded = abs(math.remainder(kd, math.pi))
        if abs(folded - math.pi / 2) < _POLE_EXCLUSION:
            log.warning("skipping kd=%.6f: tangent pole", kd)
            continue
        for flag, out in ((False, without), (True, with_sr)):
            p = ModelParams(
                kd=kd,
                delta=0.0,
                gamma0=params_base.gamma0,
                gamma_nr=params_base.gamma_nr,
                k0d=params_base.k0d,
                include_superradiance=flag,
            )
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
    bracket: tuple[float, float] | None = None,
) -> tuple[float, float, float]:
    """Locate the resonant-tunneling minimum of R(delta) (modulus form).

    Finds the root of h(delta) = 4*delta^2 + gamma_prime^2 - tan^2(kd)
    inside the bracket (default: the side where the tunneling minimum lies,
    (-3, 0) for tan(kd) > 0, (0, 3) otherwise) and returns

        (delta_min, R(delta_min), |h(delta_min)|)

    At gamma_prime = 0 the point is an exact reflection zero (R <= 1e-12);
    with loss R stays positive there. NoMinimumInBracket is raised when the
    condition has no root in the bracket (tan^2(kd) <= gamma_prime^2, or the
    root lies outside).
    """
    gp = params.gamma_prime
    tan = math.tan(params.kd)
    if bracket is None:
        bracket = (-3.0, 0.0) if tan > 0 else (0.0, 3.0)
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"invalid bracket {bracket}")

    def h(delta: float) -> float:
        return 4.0 * delta * delta + gp * gp - tan * tan

    h_lo, h_hi = h(lo), h(hi)
    if h_lo == 0.0:
        delta_min = lo
    elif h_hi == 0.0:
        delta_min = hi
    elif h_lo * h_hi > 0:
        raise NoMinimumInBracket(
            f"no tunneling minimum in [{lo}, {hi}] for kd={params.kd}, "
            f"gamma_prime={gp} (tan^2={tan * tan:.3e}, gp^2={gp * gp:.3e})"
        )
    else:
        delta_min = float(brentq(h, lo, hi, xtol=1e-13, rtol=1e-15))
    sol = solve_two_dot(params.at_delta(delta_min))
    return delta_min, sol.R, abs(h(delta_min))
