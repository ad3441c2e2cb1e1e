"""Spectral sweeps and feature location for the two-emitter response.

Both features are found in closed form. The reflection amplitude is a sum
of two simple poles in the detuning (model._reflection_poles), so
R = |r|^2 is a ratio of real polynomials and its stationary points are the
real roots of a polynomial of degree at most 5; the reflection peak is the
one of them with the largest R. The polynomial algebra and its roots
(Aberth-Ehrlich iteration) are plain Python, and every R goes through the
scalar kernel of solve_two_dot, so the module loads no numpy. The root
iteration stops each root only once it is an exact root of a polynomial
within the rounding level of Horner's rule of the computed one; that
backward error, times the root's condition, is the accuracy of the peak
position. The resonant-tunneling reflection minimum satisfies, in
modulus form,

    tan^2(kd) = 4*delta_min^2 + gamma_prime^2      (rates in GAMMA_PL units)

on the side delta_min * tan(kd) < 0. With loss the condition marks the
tunneling stationarity point rather than an exact zero of R; exact zeros
exist only at gamma_prime = 0.
"""

from __future__ import annotations

import cmath
import logging
import math
from collections import namedtuple
from dataclasses import replace

from .errors import (
    NoMinimumInBracket,
    NoPeakInBracket,
    NotConverged,
    SingularSystem,
)
from .model import (
    ModelParams,
    _amplitudes,
    _pair,
    _reflection_poles,
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

_ABERTH_STEPS = 100  # sweeps before the root iteration gives up
_ABERTH_TURN = 0.4  # start angle off the real axis, radians


class SpectrumRow(namedtuple("SpectrumRow", "delta T R Loss")):
    """One point of a detuning sweep."""

    __slots__ = ()


class PeakRecord(namedtuple("PeakRecord", "kd delta_peak R_peak with_sr")):
    """A located reflection maximum."""

    __slots__ = ()


def sweep_detuning(delta_values, params: ModelParams) -> list[SpectrumRow]:
    """Solve at each detuning of delta_values; params.delta is overridden
    per row.

    Each row equals solve_two_dot at its detuning bit for bit, without the
    relation residual. SingularSystem propagates with the offending
    detuning in its message; a non-finite detuning raises ValueError.
    """
    pair = _pair(params)
    rows = []
    for delta in delta_values:
        delta = float(delta)
        t, r = _amplitudes(pair, delta)[:2]
        T, R = abs(t) ** 2, abs(r) ** 2
        rows.append(SpectrumRow(delta, T, R, 1.0 - T - R))
    return rows


def _bracket(bracket: tuple[float, float]) -> tuple[float, float]:
    lo, hi = bracket
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket ends must be finite, got {bracket}")
    if not lo < hi:
        raise ValueError(f"invalid bracket {bracket}")
    return lo, hi


def _poly_mul(p, q) -> list:
    """Product of two polynomials (coefficient sequences, highest power
    first)."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_der(p) -> list:
    """Derivative of a polynomial of degree >= 1, highest power first."""
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _poly_roots(p) -> list[complex]:
    """All roots of a real polynomial (highest power first), with
    multiplicity, by Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 339
    (1973)).

    Exact leading zeros are dropped and exact trailing zeros give roots at
    0, as numpy.roots does. The iterates start on the circles of the
    Newton polygon (_aberth_start) and are updated in place, one at a
    time. An iterate stops once it is a root of a nearby polynomial:
    |p(z)| <= 2*n*eps * sum |c_i| |z|^i, the rounding level of Horner's
    rule at degree n. A step-size test would not do: a lossless peak makes
    a triple root, where the steps shrink only linearly. NotConverged,
    never a stale iterate, if one still moves after _ABERTH_STEPS sweeps.
    """
    lead = next((i for i, c in enumerate(p) if c != 0), len(p))
    coeffs = list(p[lead:])
    zeros = []
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zeros.append(0j)
    degree = len(coeffs) - 1
    if degree < 1:
        return zeros
    sizes = [abs(c) for c in coeffs]
    tolerance = 2 * degree * math.ulp(1.0)
    roots = _aberth_start(sizes)
    moving = list(range(degree))
    for _ in range(_ABERTH_STEPS):
        still = []
        for k in moving:
            z = roots[k]
            value = slope = 0.0
            scale, size_z = 0.0, abs(z)
            for c, size in zip(coeffs, sizes):
                slope = slope * z + value
                value = value * z + c
                scale = scale * size_z + size
            if abs(value) <= tolerance * scale:
                continue
            still.append(k)
            repulsion = 0.0
            for j, x in enumerate(roots):
                if j != k:
                    repulsion += 1.0 / (z - x)
            roots[k] = z - value / (slope - value * repulsion)
        moving = still
        if not moving:
            return roots + zeros
    raise NotConverged(
        f"root iteration still moving after {_ABERTH_STEPS} sweeps on a "
        f"degree-{degree} polynomial"
    )


def _aberth_start(sizes: list[float]) -> list[complex]:
    """Starting points for the roots of a polynomial whose coefficients
    (highest power first, both ends nonzero) have these moduli.

    Each edge of the upper convex hull of the points (i, log|a_i|), a_i
    the coefficient of z^i, spans as many roots as its width, of modulus
    about exp(-slope); they are spread evenly on that circle, turned by
    _ABERTH_TURN plus the edge's start off the real axis (Bini, Numer.
    Algorithms 13, 179 (1996)).
    """
    degree = len(sizes) - 1
    points = [(i, math.log(s)) for i, s in enumerate(reversed(sizes)) if s]
    hull: list[tuple[int, float]] = []
    for i, y in points:
        while len(hull) >= 2 and (
            (hull[-1][1] - hull[-2][1]) * (i - hull[-2][0])
            <= (y - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()
        hull.append((i, y))
    roots = []
    for (i0, y0), (i1, y1) in zip(hull, hull[1:]):
        width, radius = i1 - i0, math.exp((y0 - y1) / (i1 - i0))
        for j in range(width):
            angle = 2 * math.pi * (j / width + i0 / degree) + _ABERTH_TURN
            roots.append(radius * cmath.exp(1j * angle))
    return roots


def reflection_peak(
    params: ModelParams,
    bracket: tuple[float, float] = (-3.0, 3.0),
) -> PeakRecord:
    """Locate the maximum of R(delta) inside the bracket, in closed form.

    r is summed from its poles into one fraction num/den, so that
    R = |num|^2 / |den|^2 and the stationary points of R are the roots of
    the real polynomial |num|^2' |den|^2 - |num|^2 |den|^2' (degree <= 5).
    Its roots are found by Aberth-Ehrlich iteration (_poly_roots), which
    stops each of them on its backward error, and the real part of each
    root inside the bracket is a candidate; the interior maximum is among
    them. The candidate with the largest R is the peak; R is evaluated
    through the scalar kernel of solve_two_dot, so R_peak equals
    solve_two_dot(params.at_delta(delta_peak)).R bit for bit.
    R(delta) can be multi-modal (a reflection zero next to a narrow
    subradiant peak); every stationary point is a candidate, so the highest
    maximum is found. Quadratic maxima are located to about 1e-10. Lossless
    maxima are quartically flat (1 - R ~ 0.1 * delta^4), so their returned
    position is anywhere on the machine-precision plateau (|delta| < ~5e-4).
    Their value is exact to rounding: R_peak is |r|^2 from the kernel and
    lies within a few ulps of 1 on either side, so it can read above 1.
    For the same reason a bracket that lies inside the plateau returns a
    peak or raises NoPeakInBracket depending on the last bit of R at the
    candidates against the edges. When no candidate has a larger R than
    both bracket edges, R has no interior maximum above its edge values
    there: NoPeakInBracket. NotConverged (never a stale root) if the root
    iteration reaches its cap.
    """
    lo, hi = _bracket(bracket)
    pair = _pair(params)
    poles = _reflection_poles(pair)
    # num/den + c/(delta - z); num keeps a zero leading coefficient, so
    # the two stay of equal length and no derivative below is empty
    num, den = [0j], [1 + 0j]
    for c, z in poles:
        factor = (1.0, -z)
        num = [a + c * b for a, b in zip(_poly_mul(num, factor), (0.0, *den))]
        den = _poly_mul(den, factor)
    # |p(x)|^2 for real x, as a real polynomial (highest power first)
    power_num = [v.real for v in _poly_mul(num, [a.conjugate() for a in num])]
    power_den = [v.real for v in _poly_mul(den, [a.conjugate() for a in den])]
    slope = [a - b for a, b in zip(
        _poly_mul(_poly_der(power_num), power_den),
        _poly_mul(power_num, _poly_der(power_den)),
    )]
    roots = _poly_roots(slope)

    def reflection(delta: float) -> float:
        # at a removable singularity of r, where the kernel raises
        # SingularSystem, R comes from the partial fractions, which have
        # that factor cancelled
        try:
            return abs(_amplitudes(pair, delta)[1]) ** 2
        except SingularSystem:
            return abs(sum(c / (delta - z) for c, z in poles)) ** 2

    candidates = [(reflection(x), x)
                  for x in (root.real for root in roots) if lo < x < hi]
    R_peak, delta_peak = max(candidates, default=(-math.inf, None))
    if R_peak <= max(reflection(lo), reflection(hi)):
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

    Every kd is solved; the one skip is a kd where the bracket holds no
    interior maximum (NoPeakInBracket), logged as a warning and never
    interpolated. If params_base.k0d is None, k0d tracks kd. An empty
    bracket, or one with a non-finite end, raises ValueError before any kd
    is tried, and a non-finite kd when it is reached.

    Returns (records without collective term, records with it).
    """
    _bracket(bracket)
    without: list[PeakRecord] = []
    with_sr: list[PeakRecord] = []
    for kd in kd_values:
        kd = float(kd)
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
        R = abs(_amplitudes(_pair(params), delta_min)[1]) ** 2
    except SingularSystem as exc:
        raise NoMinimumInBracket(
            f"tunneling condition degenerates at kd={params.kd}, "
            f"gamma_prime={gp}: its root {delta_min:.3e} is the removable "
            f"singularity of r, a reflection peak"
        ) from exc
    return delta_min, R, abs(4.0 * delta_min**2 + gp * gp - tan * tan)
