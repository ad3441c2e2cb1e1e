"""Exact single-excitation scattering by two emitters on a 1D waveguide.

Unit frame: hbar = 1, group velocity v_g = 1, and the guided decay rate
GAMMA_PL = 1 sets the rate unit, which fixes the emitter-waveguide coupling
g = sqrt(GAMMA_PL * v_g) / 2 = 1/2. All detunings and rates are therefore
dimensionless (units of the guided decay rate); kd and k0d are phases in
radians.

The scatterer is a pair of two-level emitters separated by distance d. An
incident right-moving excitation of detuning ``delta`` produces transmitted
(t) and reflected (r) amplitudes, inter-emitter right/left movers (a, b) and
emitter excitation amplitudes (xi1, xi2). The five coefficient relations
close into a 2x2 complex linear system in (xi1, xi2), solved exactly here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

from .errors import SingularSystem

__all__ = [
    "GAMMA_PL",
    "V_G",
    "G_COUPLING",
    "ModelParams",
    "ScatteringSolution",
    "superradiant_rate",
    "solve_two_dot",
    "solve_single_dot",
    "relation_residual",
]

GAMMA_PL = 1.0
V_G = 1.0
G_COUPLING = 0.5  # g = sqrt(GAMMA_PL * V_G) / 2

_DET_FLOOR = 1e-14
_SINC_SERIES_CUTOFF = 1e-8
_RESIDUE_FLOOR = math.ulp(1.0)  # relative to GAMMA_PL, the residue sum


@dataclass(frozen=True)
class ModelParams:
    """Physical dials of one scattering configuration.

    kd:    phase k*d accumulated by the incident excitation between emitters
    delta: detuning of the incident excitation from the emitter resonance
    gamma0:   free-space radiative rate of each emitter
    gamma_nr: non-radiative (Ohmic) loss rate of each emitter
    k0d:   phase k0*d at the emitter resonance (drives the collective
           radiative coupling); defaults to kd when omitted
    include_superradiance: whether the collective free-space term enters
    """

    kd: float
    delta: float = 0.0
    gamma0: float = 0.0
    gamma_nr: float = 0.0
    k0d: float | None = None
    include_superradiance: bool = False

    def __post_init__(self) -> None:
        for name in ("kd", "delta", "gamma0", "gamma_nr", "k0d"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma0 < 0:
            raise ValueError(f"gamma0 must be >= 0, got {self.gamma0}")
        if self.gamma_nr < 0:
            raise ValueError(f"gamma_nr must be >= 0, got {self.gamma_nr}")
        if self.include_superradiance and self.resonant_phase <= 0:
            raise ValueError(
                "include_superradiance requires k0d > 0 "
                f"(got k0d={self.resonant_phase})"
            )

    @property
    def gamma_prime(self) -> float:
        """Total parasitic dissipation per emitter."""
        return self.gamma0 + self.gamma_nr

    @property
    def resonant_phase(self) -> float:
        """k0d, defaulting to kd."""
        return self.kd if self.k0d is None else self.k0d

    def at_delta(self, delta: float) -> "ModelParams":
        """Copy of these parameters at a different detuning."""
        return replace(self, delta=delta)


@dataclass(frozen=True)
class ScatteringSolution:
    """All amplitudes of one scattering solution plus derived probabilities.

    t, r:       transmission / reflection amplitudes
    a, b:       right-/left-moving amplitudes between the emitters
    xi1, xi2:   excitation amplitudes of emitter 1 (at x=0) and 2 (at x=d)
    T, R, Loss: |t|^2, |r|^2, 1 - T - R
    residual:   worst relative residual of the coefficient relations; the
                solve functions compute it, and the grids of sweep_detuning
                and concurrence_map, which build no solution, skip it
    """

    t: complex
    r: complex
    a: complex
    b: complex
    xi1: complex
    xi2: complex
    T: float = field(init=False)
    R: float = field(init=False)
    Loss: float = field(init=False)
    residual: float = 0.0

    def __post_init__(self) -> None:
        T = abs(self.t) ** 2
        R = abs(self.r) ** 2
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Loss", 1.0 - T - R)


def superradiant_rate(k0d: float, gamma0: float) -> float:
    """Collective radiative rate Gamma_SR = gamma0 * sin(k0d) / (k0d).

    This is the separation-dependent part of the cooperative decay: the
    symmetric/antisymmetric pair states decay at gamma0 +- Gamma_SR, and it
    enters effective Hamiltonians as i*Gamma_SR/2, exactly parallel to the
    guided i*GAMMA_PL/2. The removable singularity at k0d -> 0 is evaluated
    by series below 1e-8, giving the fully collective limit gamma0.
    """
    if gamma0 < 0:
        raise ValueError(f"gamma0 must be >= 0, got {gamma0}")
    if abs(k0d) < _SINC_SERIES_CUTOFF:
        sinc = 1.0 - k0d * k0d / 6.0
    else:
        sinc = math.sin(k0d) / k0d
    return gamma0 * sinc


def solve_two_dot(params: ModelParams) -> ScatteringSolution:
    """Exact solution of the two-emitter scattering relations.

    Substituting the a, b, t, r relations into the two excitation-amplitude
    equations closes them into the 2x2 system

        w*xi1 + Delta*xi2 = 2*g*e
        Delta*xi1 + w*xi2 = 2*g

    with e = exp(i*kd), Delta = delta + i*(gamma_prime + GAMMA_PL)/2, and
    w = i*(GAMMA_PL*e + Gamma_SR)/2. Back-substitution fills every amplitude.

    Raises SingularSystem when |det| = |(w-Delta)(w+Delta)| < 1e-14. Only
    this function computes the relation residual: sweep_detuning and
    concurrence_map call the same solve, _amplitudes, and skip it.
    """
    e, w = _phase_and_coupling(params)
    t, r, a, b, xi1, xi2 = _amplitudes(params.kd, e, w, params.delta,
                                       params.gamma_prime)
    residual = relation_residual(params, t, r, a, b, xi1, xi2)
    return ScatteringSolution(t=t, r=r, a=a, b=b, xi1=xi1, xi2=xi2,
                              residual=residual)


def _amplitudes(kd, e, w, delta, gamma_prime):
    """(t, r, a, b, xi1, xi2) of the 2x2 system at detuning delta, with
    e, w = _phase_and_coupling at kd. ValueError for a non-finite delta,
    SingularSystem when |det| < 1e-14."""
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    big_delta = delta + 0.5j * (gamma_prime + GAMMA_PL)
    # the factored form avoids cancellation near the singular set
    det = (w - big_delta) * (w + big_delta)
    if abs(det) < _DET_FLOOR:
        raise SingularSystem(
            f"2x2 amplitude system is singular (|det|={abs(det):.3e}) at "
            f"kd={kd}, delta={delta}, gamma_prime={gamma_prime}"
        )
    g = G_COUPLING
    xi1 = 2 * g * (e * w - big_delta) / det
    xi2 = 2 * g * (w - e * big_delta) / det

    g_over_iv = g / (1j * V_G)
    a = 1.0 + g_over_iv * xi1
    b = g_over_iv * xi2 * e
    t = 1.0 + g_over_iv * (xi1 + xi2 / e)
    r = g_over_iv * (xi1 + xi2 * e)
    return t, r, a, b, xi1, xi2


def _reflection_poles(params: ModelParams) -> list[tuple[complex, complex]]:
    """r as a sum of simple poles in the detuning: the (c, z) pairs of

        r(delta) = sum of c / (delta - z),

    the closed form of solve_two_dot rewritten as
    r = g^2 * [(1+e)^2 / (w+Delta) - (1-e)^2 / (w-Delta)] / (i*V_G).
    The two residues sum to GAMMA_PL in modulus. At kd = n*pi one of them
    vanishes, and its pole, on the real axis when lossless, is a removable
    singularity of r that solve_two_dot reports as SingularSystem; a term
    whose residue is below rounding is left out, which cancels that factor.
    """
    e, w = _phase_and_coupling(params)
    half_width = 0.5j * (params.gamma_prime + GAMMA_PL)
    scale = G_COUPLING**2 / (1j * V_G)
    terms = (
        (scale * (1 + e) ** 2, -w - half_width),
        (scale * (1 - e) ** 2, w - half_width),
    )
    return [(c, z) for c, z in terms if abs(c) > _RESIDUE_FLOOR * GAMMA_PL]


def _phase_and_collective(params: ModelParams) -> tuple[complex, complex]:
    """e = exp(i*kd) and the collective term s_sr = i*Gamma_SR/2."""
    e = cmath.exp(1j * params.kd)
    s_sr = (
        0.5j * superradiant_rate(params.resonant_phase, params.gamma0)
        if params.include_superradiance
        else 0.0j
    )
    return e, s_sr


def _phase_and_coupling(params: ModelParams) -> tuple[complex, complex]:
    """e = exp(i*kd) and w = i*(GAMMA_PL*e + Gamma_SR)/2."""
    e, s_sr = _phase_and_collective(params)
    return e, 0.5j * GAMMA_PL * e + s_sr


def relation_residual(
    params: ModelParams,
    t: complex,
    r: complex,
    a: complex,
    b: complex,
    xi1: complex,
    xi2: complex,
) -> float:
    """Worst relative residual of the coefficient relations.

    Each relation is evaluated as written; its residual |lhs - rhs| is
    normalized backward-error style by the magnitude of the quantities the
    relation is built from, max(1, |lhs|, |rhs|, |xi1|, |xi2|), so the
    figure stays meaningful next to near-singular points where the emitter
    amplitudes are large and the relation terms cancel. The maximum over
    the relations is returned; it is NaN when any relation term is NaN or
    infinite, never a clean figure.
    """
    g = G_COUPLING
    gp = params.gamma_prime
    e, s_sr = _phase_and_collective(params)
    d_loss = params.delta + 0.5j * gp
    g_over_iv = g / (1j * V_G)

    pairs = (
        # emitter-2 equation: field drive at x=d minus collective term
        (g * (2 * a * e + 2 * b / e) - s_sr * xi1, d_loss * xi2),
        # emitter-1 equation: field drive at x=0 minus collective term
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
    # max() drops a NaN; the errors are >= 0, so their sum is NaN exactly
    # when one of them is
    return math.nan if math.isnan(sum(errors)) else max(errors)


def solve_single_dot(gamma_prime: float, delta: float) -> ScatteringSolution:
    """Closed-form single-emitter amplitudes (one emitter at the origin).

    t = (delta + i*gamma_prime/2) / (delta + i*(gamma_prime + GAMMA_PL)/2),
    r = t - 1. On resonance with gamma_prime = 0 the emitter is a perfect
    mirror; far detuned it is transparent.
    """
    if not (math.isfinite(gamma_prime) and math.isfinite(delta)):
        raise ValueError(
            f"gamma_prime and delta must be finite, got {gamma_prime}, {delta}"
        )
    if gamma_prime < 0:
        raise ValueError(f"gamma_prime must be >= 0, got {gamma_prime}")
    denom = delta + 0.5j * (gamma_prime + GAMMA_PL)
    xi = 2 * G_COUPLING / denom
    g_over_iv = G_COUPLING / (1j * V_G)
    r = g_over_iv * xi
    t = 1.0 + r
    # Right of the emitter only the transmitted wave exists; no left mover.
    eq_residual = abs((denom * xi) - 2 * G_COUPLING) / max(1.0, abs(denom * xi))
    return ScatteringSolution(t=t, r=r, a=t, b=0.0j, xi1=xi, xi2=0.0j,
                              residual=eq_residual)

