"""Post-selected two-emitter entanglement derived from scattering amplitudes.

Conditioned on the photon having been absorbed, the emitter pair is left in
(xi1*|eg> + xi2*|ge>)/norm. Its concurrence and relative phase follow from
the amplitude ratio alone:

    C     = 2*|xi1|*|xi2| / (|xi1|^2 + |xi2|^2)
    theta = arg(xi2 / xi1),  theta in (-pi, pi]

C = 1 exactly on the kd = n*pi verticals (the ratio has unit modulus there)
and stays high along the curve

    delta(kd) = -(1 + gamma_prime) * tan(kd) / 2

which inverts, per branch, to kd(delta) = n*pi + arctan(-2*delta /
(1 + gamma_prime)) with n even ("even" policy, around kd = 2*pi) or odd
("odd" policy, around kd = pi). The lossless curve passes through the
decoupled-dark-state point (kd = n*pi, delta = 0), where theta is assigned
its limit along the curve: pi on the even branch, 0 on the odd one. Any
loss resolves the point and swaps the two values — the phase jump the scan
is designed to expose.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

from .errors import EmptyProjection, SingularSystem, TangentPole
from .model import (
    ModelParams,
    ScatteringSolution,
    _amplitudes,
    _pair,
    solve_two_dot,
)

__all__ = [
    "ProjectedState",
    "ConcurrenceCell",
    "PhasePoint",
    "project_state",
    "high_c_curve",
    "concurrence_map",
    "phase_scan",
]

_PROJECTION_FLOOR = 1e-30
_POLE_TOL = 1e-6


@dataclass(frozen=True)
class ProjectedState:
    """Normalized post-selected emitter-pair state."""

    amp_eg: complex
    amp_ge: complex
    norm: float  # pre-normalization weight |xi1|^2 + |xi2|^2
    concurrence: float
    theta: float


class ConcurrenceCell(namedtuple("ConcurrenceCell",
                                 "kd delta concurrence theta")):
    """One cell of a (kd, delta) concurrence map; NaN marks a point where
    the scattering system is singular."""

    __slots__ = ()


class PhasePoint(namedtuple("PhasePoint", "delta kd theta concurrence")):
    """One point of a relative-phase scan along a constant-concurrence
    branch."""

    __slots__ = ()


def project_state(sol: ScatteringSolution) -> ProjectedState:
    """Project a scattering solution onto the single-excitation emitter pair.

    Raises EmptyProjection when both emitter amplitudes vanish (nothing was
    absorbed, so there is no post-selected state to normalize).
    """
    xi1, xi2 = sol.xi1, sol.xi2
    root, concurrence, theta = _post_select(xi1, xi2)
    return ProjectedState(
        amp_eg=xi1 / root,
        amp_ge=xi2 / root,
        norm=abs(xi1) ** 2 + abs(xi2) ** 2,
        concurrence=concurrence,
        theta=theta,
    )


def _post_select(xi1: complex, xi2: complex) -> tuple[float, float, float]:
    """(sqrt(weight), C, theta) of the pair post-selected from the emitter
    amplitudes, weight = |xi1|^2 + |xi2|^2 and theta = arg(xi2 / xi1) in
    (-pi, pi]; EmptyProjection when the weight is at or below the floor
    (nothing was absorbed)."""
    norm = abs(xi1) ** 2 + abs(xi2) ** 2
    if norm <= _PROJECTION_FLOOR:
        raise EmptyProjection(
            f"emitter amplitudes vanish (weight {norm:.3e}); no "
            f"post-selected state exists"
        )
    root = math.sqrt(norm)
    z = xi2 * xi1.conjugate()
    theta = math.atan2(z.imag, z.real)
    return (root, 2.0 * abs(xi1 / root) * abs(xi2 / root),
            math.pi if theta == -math.pi else theta)


def _check_gamma_prime(gamma_prime: float) -> None:
    if not math.isfinite(gamma_prime):
        raise ValueError(f"gamma_prime must be finite, got {gamma_prime}")
    if gamma_prime < 0:
        raise ValueError(f"gamma_prime must be >= 0, got {gamma_prime}")


def high_c_curve(kd_values, gamma_prime: float) -> list[tuple[float, float]]:
    """The detuning that keeps the post-selected concurrence high at each kd:

        delta(kd) = -(1 + gamma_prime) * tan(kd) / 2

    Raises ValueError for a non-finite kd, and TangentPole if any kd sits
    within 1e-6 of an odd multiple of pi/2, where the curve runs off to
    infinite detuning.
    """
    _check_gamma_prime(gamma_prime)
    out = []
    for kd in kd_values:
        kd = float(kd)
        if not math.isfinite(kd):
            raise ValueError(f"kd must be finite, got {kd}")
        folded = abs(math.remainder(kd, math.pi))
        if abs(folded - math.pi / 2) < _POLE_TOL:
            raise TangentPole(
                f"kd={kd!r} is within {_POLE_TOL} of an odd multiple of "
                f"pi/2; the constant-concurrence curve diverges there"
            )
        out.append((kd, -(1.0 + gamma_prime) * math.tan(kd) / 2.0))
    return out


def concurrence_map(
    kd_values,
    delta_values,
    params_base: ModelParams,
) -> list[ConcurrenceCell]:
    """Concurrence and relative phase over a (kd, delta) grid, row-major in
    kd, each cell equal to project_state(solve_two_dot(...)) bit for bit.
    Singular grid points become NaN cells rather than holes; a non-finite
    detuning raises ValueError."""
    cells = []
    for kd in kd_values:
        kd = float(kd)
        pair = _pair(replace(params_base, kd=kd))
        for delta in delta_values:
            delta = float(delta)
            try:
                _, concurrence, theta = _post_select(
                    *_amplitudes(pair, delta)[4:])
            except (SingularSystem, EmptyProjection):
                concurrence = theta = math.nan
            cells.append(ConcurrenceCell(kd, delta, concurrence, theta))
    return cells


def _branch_kd(delta: float, gamma_prime: float, kd_policy: str) -> float:
    base = 2.0 * math.pi if kd_policy == "even" else math.pi
    return base + math.atan(-2.0 * delta / (1.0 + gamma_prime))


def phase_scan(
    delta_values,
    gamma_prime: float,
    kd_policy: str = "even",
) -> list[PhasePoint]:
    """Relative phase theta(delta) along one constant-concurrence branch.

    kd_policy selects the branch: "even" follows the curve around kd = 2*pi,
    "odd" around kd = pi. At gamma_prime = 0 the branch passes through the
    decoupled point at delta = 0, where theta is assigned its limit along
    the curve (pi on the even branch, 0 on the odd one) with C = 1. Other
    points equal project_state(solve_two_dot(...)) bit for bit.
    """
    if kd_policy not in ("even", "odd"):
        raise ValueError(f"kd_policy must be 'even' or 'odd', got {kd_policy!r}")
    _check_gamma_prime(gamma_prime)
    points = []
    for delta in delta_values:
        delta = float(delta)
        if not math.isfinite(delta):  # before kd, which is derived from it
            raise ValueError(f"delta must be finite, got {delta}")
        kd = _branch_kd(delta, gamma_prime, kd_policy)
        if gamma_prime == 0.0 and delta == 0.0:
            limit = math.pi if kd_policy == "even" else 0.0
            points.append(PhasePoint(delta, kd, limit, 1.0))
            continue
        sol = solve_two_dot(ModelParams(kd, delta, gamma_nr=gamma_prime))
        _, concurrence, theta = _post_select(sol.xi1, sol.xi2)
        points.append(PhasePoint(delta, kd, theta, concurrence))
    return points
