"""Single-photon storage into a metastable emitter level pair.

A narrowband photon drives the bright collective excited state of the two
emitters (per-emitter guided rate GAMMA_PL/2, so the bright state decays
into the guide at GAMMA_PL = 1) while a classical control Omega(t)
transfers the excitation into metastable levels, which do not decay. The
loss sits on the bright excited state: it also decays outside the guide at
gamma' = GAMMA_PL / P. For the impedance-matched control the stored
population obeys

    d|c_m|^2/dt = -2 * ( d|E_T|^2/dt - (1 - 1/P) * |E_T|^2 )

with |E_T|^2 = envelope^2 / 2, integrating to the design efficiency
1 - 1/P. That is the value the control is designed for, not a bound: the
lattice run reaches slightly more (0.80088 at P = 5, sigma_t = 10).
Solving that identity for the control gives

    |c_m(t)|^2 = (1 - 1/P) * int_0^t envelope^2 - envelope^2
    Omega(t)   = (d envelope/dt - (1 - 1/P) * envelope / 2) / |c_m(t)|

The simulation works at a parity point of the emitter spacing
(e^{i k0 d} = +1 "even" or -1 "odd"); the two differ only in which excited
combination is bright and in the relative control sign. On both parities
the storage lands in the symmetric metastable combination (m1 + m2)/sqrt(2),
and the dark excited and antisymmetric metastable pair is never driven.
The mode lattice therefore evolves only the symmetric branch combination,
the bright excited amplitude and the symmetric metastable amplitude, in
which the parity sign does not appear: both parities give the same result,
bit for bit. It steps with a second-order splitting of exact pieces, the
mode phases and the emitter-control kick (McLachlan & Quispel, Acta
Numerica 11, 341 (2002)), one step per interval of the control grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# scipy.linalg is imported inside the functions that step, so that the
# closed-form commands, which import this module, load numpy alone.

from .errors import (
    BandwidthTooWide,
    NotConverged,
    PopulationUnderflow,
    StepTooLarge,
)
from .lattice import uniform_mode_grid
from .model import GAMMA_PL

__all__ = [
    "StorageParams",
    "MatchedPulse",
    "StorageRun",
    "RetrievalResult",
    "storage_time_grid",
    "gaussian_input",
    "impedance_matched_pulse",
    "simulate_storage",
    "verify_population_identity",
    "retrieve",
]

_BANDWIDTH_LIMIT = 0.1
_OMEGA_CAP = 1e3
_CM_FLOOR = 1e-12
# the control is sampled at 0.09 / half_width, which fixes the matched
# design and so the frozen efficiency anchors
_CONTROL_DT = 0.09
# kick propagators are formed this many steps at a time: a stack for the
# whole run would raise the peak memory of a long run
_KICK_BLOCK = 512
_PEAK_SIGMAS = 5.0
_SPAN_SIGMAS = 11.0
# a step may turn the emitter-control kick block by at most this many
# radians, since that angle bounds the splitting error of the step
_COUPLING_STEP_LIMIT = 0.25


@dataclass(frozen=True)
class StorageParams:
    """Protocol operating point.

    pulse_ratio is P = GAMMA_PL / gamma': the guided decay rate of the
    bright excited state over its decay rate outside the guide. The
    metastable levels do not decay; the design efficiency is 1 - 1/P.
    """

    pulse_ratio: float
    parity: str = "even"
    sigma_t: float = 10.0
    half_width: float = 4.0
    dk: float = 2e-3

    def __post_init__(self) -> None:
        for name in ("pulse_ratio", "sigma_t", "half_width", "dk"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.pulse_ratio > 1.0:
            raise ValueError(
                f"pulse_ratio must be > 1, got {self.pulse_ratio} (the "
                f"bright state must decay faster into the guide than out)"
            )
        if self.parity not in ("even", "odd"):
            raise ValueError(
                f"parity must be 'even' or 'odd', got {self.parity!r}"
            )
        if self.sigma_t <= 0 or self.dk <= 0 or self.half_width <= 0:
            raise ValueError("sigma_t, half_width, dk must all be > 0")

    @property
    def gamma_prime(self) -> float:
        return GAMMA_PL / self.pulse_ratio


@dataclass(frozen=True)
class MatchedPulse:
    """Impedance-matched control and the metastable amplitude it is designed
    to produce."""

    omega: np.ndarray
    stored_amplitude: np.ndarray


@dataclass(frozen=True)
class StorageRun:
    """Outcome of one storage simulation.

    bright_e and bright_m are the final bright excited and symmetric
    metastable amplitudes (efficiency is |bright_m|^2). field is the
    symmetric branch combination (psi_right + psi_left)/sqrt(2) at the end
    of the run, and output_norm its norm, which is the norm left in both
    branches; f_in holds the input modes of one branch.
    """

    t: np.ndarray
    bright_e: complex
    bright_m: complex
    efficiency: float
    output_norm: float
    field: np.ndarray
    nu: np.ndarray
    f_in: np.ndarray


@dataclass(frozen=True)
class RetrievalResult:
    """Outcome of reading the stored excitation back out."""

    emitted_norm: float
    overlap: float


def storage_time_grid(params: StorageParams) -> np.ndarray:
    """Uniform time grid covering the pulse: 11 sigma_t at the control
    sampling step 0.09 / half_width, one lattice step per interval."""
    span = _SPAN_SIGMAS * params.sigma_t
    dt = _CONTROL_DT / params.half_width
    n_steps = int(span / dt)
    return np.linspace(0.0, n_steps * dt, n_steps + 1)


def gaussian_input(
    t_grid: np.ndarray, sigma_t: float, t_peak: float | None = None
) -> np.ndarray:
    """Unit-norm Gaussian envelope (integral of envelope^2 is 1)."""
    if t_peak is None:
        t_peak = _PEAK_SIGMAS * sigma_t
    return (2.0 * math.pi * sigma_t**2) ** (-0.25) * np.exp(
        -((t_grid - t_peak) ** 2) / (4.0 * sigma_t**2)
    )


def impedance_matched_pulse(
    pulse_ratio: float,
    t_grid: np.ndarray,
    envelope: np.ndarray,
) -> MatchedPulse:
    """Control pulse that absorbs the envelope without re-emission.

    Raises BandwidthTooWide when the envelope bandwidth
    sqrt(int denv^2 / int env^2) exceeds 0.1 * GAMMA_PL (the adiabatic
    design assumes a narrowband photon), and PopulationUnderflow when the
    designed metastable population would have to go negative while the
    envelope is still active (pulse_ratio too close to 1 for this envelope)
    or the control would diverge.
    """
    gp = 1.0 / pulse_ratio
    d_env = np.gradient(envelope, t_grid)
    norm2 = float(np.trapezoid(envelope**2, t_grid))
    bandwidth = math.sqrt(float(np.trapezoid(d_env**2, t_grid)) / norm2)
    if bandwidth > _BANDWIDTH_LIMIT * GAMMA_PL:
        raise BandwidthTooWide(
            f"envelope bandwidth {bandwidth:.3f} exceeds "
            f"{_BANDWIDTH_LIMIT * GAMMA_PL} (narrowband design assumption)"
        )

    cum = np.concatenate(
        [[0.0],
         np.cumsum(0.5 * (envelope[1:] ** 2 + envelope[:-1] ** 2)
                   * np.diff(t_grid))]
    )
    cm2 = (1.0 - gp) * cum - envelope**2
    peak2 = float(np.max(envelope**2))
    active = envelope**2 > 1e-6 * peak2
    # tolerate the grid-truncated leading tail (cm^2 = -envelope^2 at t=0),
    # but not a genuine dip: that means the envelope outruns the transfer
    if np.any(cm2[active] < -1e-4 * peak2):
        raise PopulationUnderflow(
            f"matched design needs negative stored population "
            f"(min {float(np.min(cm2[active])):.2e}) while the envelope is "
            f"active; increase pulse_ratio or reshape the envelope"
        )
    cm = np.sqrt(np.maximum(cm2, _CM_FLOOR))
    omega = np.where(
        cm2 > _CM_FLOOR, (d_env - 0.5 * (1.0 - gp) * envelope) / cm, 0.0
    )
    if np.any(np.abs(omega[active]) > _OMEGA_CAP):
        raise PopulationUnderflow(
            f"matched control exceeds |Omega| = {_OMEGA_CAP:g} while the "
            f"envelope is active; the design is not realizable here"
        )
    return MatchedPulse(omega=omega, stored_amplitude=cm)


def _input_modes(
    params: StorageParams, nu: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Per-branch mode amplitudes whose emitted-frame field reproduces the
    Gaussian envelope with total norm 1 (both branches together)."""
    sigma_w = 1.0 / (2.0 * params.sigma_t)
    t_peak = _PEAK_SIGMAS * params.sigma_t
    eh = (
        (2.0 * math.pi * params.sigma_t**2) ** (-0.25)
        * math.sqrt(4.0 * math.pi * params.sigma_t**2)
        * np.exp(-(nu**2) / (4.0 * sigma_w**2))
        * np.exp(1j * nu * t_peak)
    )
    return np.sqrt(weights) * eh / math.sqrt(math.pi) / 2.0


def _check_step(dt: float, generators: np.ndarray, what: str) -> None:
    """StepTooLarge when dt * max ||G||_2 over the stack of kick generators
    exceeds _COUPLING_STEP_LIMIT; what ends the message with the remedy."""
    rate = float(np.max(np.linalg.norm(generators, 2, axis=(-2, -1))))
    if dt * rate > _COUPLING_STEP_LIMIT:
        raise StepTooLarge(
            f"dt={dt:.3e} turns the coupling block by {dt * rate:.3f} "
            f"rad/step (limit {_COUPLING_STEP_LIMIT}); {what}"
        )


def _split(
    modes: np.ndarray,
    amps: np.ndarray,
    q: np.ndarray,
    steps,
    phase_first: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact-phase splitting of the storage lattice.

    The modes are first multiplied by phase_first; then each (kick, phase)
    pair from steps applies the kick to the coefficients of the modes on the
    k orthonormal columns of q followed by the amplitudes, and multiplies
    the modes by phase. A kick is expm(-i*h*G) minus the identity on the k
    span rows, so those rows give the change of the span coefficients,
    which is added back one column of q at a time (one zaxpy per column is
    cheaper than a matrix-vector product with so few columns).
    NotConverged if the norm of modes and amplitudes grows by more than
    1e-9 relative, which the lossy storage lattice cannot do.
    """
    from scipy.linalg.blas import zaxpy

    norm0 = float(np.sum(np.abs(modes) ** 2) + np.sum(np.abs(amps) ** 2))
    cols_adj = np.ascontiguousarray(q.T.conj(), dtype=complex)
    cols = list(cols_adj.conj())
    k = len(cols)
    # coefficients of the modes on the columns of q, then the amplitudes
    block = np.empty(k + amps.size, dtype=complex)
    block[k:] = amps
    modes = modes * phase_first
    for kick, phase in steps:
        block[:k] = cols_adj.dot(modes)
        change = kick.dot(block)
        for col, c in zip(cols, change):
            modes = zaxpy(col, modes, a=c)
        block[k:] = change[k:]
        modes *= phase
    amps = block[k:]
    norm1 = float(np.sum(np.abs(modes) ** 2) + np.sum(np.abs(amps) ** 2))
    if not math.isfinite(norm1) or norm1 > norm0 * (1.0 + 1e-9):
        raise NotConverged(
            f"norm went from {norm0:.12f} to {norm1:.12f}; the generator "
            f"gains norm, which a lossless or lossy lattice cannot"
        )
    return modes, amps


def _run_lattice(
    params: StorageParams,
    t_grid: np.ndarray,
    omega: np.ndarray,
    f_in: np.ndarray | None,
    metastable0: float,
) -> StorageRun:
    """Shared engine: one Strang step per interval of t_grid on n + 2 states.

    Both branches obey the same equation from the same start, and the
    antisymmetric emitter and metastable pair is a closed subsystem that
    starts at zero, so the state is the symmetric branch combination
    sqrt(2)*psi (coupled to the bright state through g = 2*kap), the bright
    excited amplitude and the symmetric metastable amplitude. The parity
    sign drops out. A step is the mode phase exp(-i*nu*dt/2), an exact kick
    and the second half phase, run by _split. The kick acts on
    span(g/|g|) and the two amplitudes, where it is the 3x3 generator
    G = [[0, |g|, 0], [|g|, -i*gp/2, om], [0, conj(om), 0]] with om the
    midpoint average of omega over the interval; its expm is formed in
    blocks of steps. omega is sampled only on the grid, so the control is
    second-order accurate, and so is the step.

    ValueError unless omega is finite and sampled on t_grid. StepTooLarge
    when dt * max ||G||_2 exceeds 0.25 rad (the control is too strong for
    its sampling step), NotConverged if the norm grows, which the lossy
    dynamics here cannot do.
    """
    from scipy.linalg import expm

    omega = np.asarray(omega)
    if omega.shape != t_grid.shape:
        raise ValueError(
            f"omega must be sampled on the storage time grid "
            f"({t_grid.size} points), got shape {omega.shape}"
        )
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega must be finite at every sample")
    grid = uniform_mode_grid(params.half_width, params.dk)
    nu, w = grid.nu, grid.weights
    # per-emitter guided rate GAMMA_PL/2 makes the bright state decay at 1
    g = 2.0 * np.sqrt(0.5 * GAMMA_PL * w / (4.0 * math.pi))
    g_norm = float(np.linalg.norm(g))
    gp = params.gamma_prime

    if f_in is None:
        f_in = np.zeros(nu.size, dtype=complex)
    dt = float(t_grid[1] - t_grid[0])
    n_steps = t_grid.size - 1
    om_mid = 0.5 * (omega[:-1] + omega[1:])

    def generators(om: np.ndarray) -> np.ndarray:
        gen = np.zeros((om.size, 3, 3), dtype=complex)
        gen[:, 0, 1] = gen[:, 1, 0] = g_norm
        gen[:, 1, 1] = -0.5j * gp
        gen[:, 1, 2] = om
        gen[:, 2, 1] = np.conj(om)
        return gen

    # ||G||_2 depends on om only through |om| and is convex in it, so its
    # largest value over the run sits at the smallest or largest |om|
    mag = np.abs(om_mid)
    _check_step(dt, generators(np.array([mag.min(), mag.max()])),
                "the control is too strong for its sampling step")

    half = np.exp(-0.5j * dt * nu)
    full = half * half
    # kick propagators minus the identity on the span row
    span = np.diag([1.0, 0.0, 0.0])

    def steps():
        for first in range(0, n_steps, _KICK_BLOCK):
            om = om_mid[first:first + _KICK_BLOCK]
            kicks = expm(-1j * dt * generators(om)) - span
            for i, kick in enumerate(kicks, first + 1):
                yield kick, full if i < n_steps else half

    # [bright excited, symmetric metastable]
    amps = np.array([0.0, metastable0], dtype=complex)
    field, amps = _split(math.sqrt(2.0) * f_in, amps, (g / g_norm)[:, None],
                         steps(), half)
    bright_e, bright_m = complex(amps[0]), complex(amps[1])
    return StorageRun(
        t=t_grid,
        bright_e=bright_e,
        bright_m=bright_m,
        efficiency=abs(bright_m) ** 2,
        output_norm=float(np.sum(np.abs(field) ** 2)),
        field=field,
        nu=nu,
        f_in=f_in,
    )


def simulate_storage(
    params: StorageParams,
    omega: np.ndarray | None = None,
) -> StorageRun:
    """Run the storage protocol; with omega=None the impedance-matched
    control for the default Gaussian envelope is designed first. A given
    omega must be finite and sampled on storage_time_grid (ValueError)."""
    t_grid = storage_time_grid(params)
    if omega is None:
        envelope = gaussian_input(t_grid, params.sigma_t)
        omega = impedance_matched_pulse(
            params.pulse_ratio, t_grid, envelope
        ).omega
    grid = uniform_mode_grid(params.half_width, params.dk)
    f_in = _input_modes(params, grid.nu, grid.weights)
    return _run_lattice(params, t_grid, omega, f_in, metastable0=0.0)


def verify_population_identity(
    pulse_ratio: float,
    t_grid: np.ndarray,
    envelope: np.ndarray,
) -> float:
    """Residual of the population-flow identity on the designed trajectory.

    The matched pulse is constructed to satisfy it exactly; the returned
    figure is pure discretization error of the time grid. (Measuring the
    same identity on a simulated trajectory instead reports the physical
    non-Markovian transient, orders of magnitude larger.)
    """
    pulse = impedance_matched_pulse(pulse_ratio, t_grid, envelope)
    et = 0.5 * envelope**2
    cm2 = pulse.stored_amplitude**2
    lhs = np.gradient(cm2, t_grid)
    rhs = -2.0 * (np.gradient(et, t_grid) - (1.0 - 1.0 / pulse_ratio) * et)
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))


def retrieve(
    params: StorageParams,
    stored_amplitude: float,
    omega: np.ndarray | None = None,
) -> RetrievalResult:
    """Read the stored excitation back out with a time-reversed control.

    Returns the emitted field norm (bounded by stored_amplitude^2 times the
    retrieval efficiency) and its overlap with the time-reversed input
    envelope profile. A given omega must be finite and sampled on
    storage_time_grid (ValueError).
    """
    t_grid = storage_time_grid(params)
    if omega is None:
        envelope = gaussian_input(t_grid, params.sigma_t)
        omega = impedance_matched_pulse(
            params.pulse_ratio, t_grid, envelope
        ).omega[::-1].copy()
    run = _run_lattice(params, t_grid, omega, None, metastable0=stored_amplitude)
    emitted_norm = run.output_norm

    sigma_w = 1.0 / (2.0 * params.sigma_t)
    t_peak = _PEAK_SIGMAS * params.sigma_t
    t_end = float(t_grid[-1])
    ref = np.exp(-run.nu**2 / (4.0 * sigma_w**2)) * np.exp(
        1j * run.nu * (t_end - t_peak)
    ) * np.exp(-1j * run.nu * t_end)
    ref /= math.sqrt(float(np.sum(np.abs(ref) ** 2)))
    overlap = abs(np.vdot(ref, run.field / math.sqrt(emitted_norm)))
    return RetrievalResult(emitted_norm=emitted_norm, overlap=overlap)
