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
The emitters see the modes only through one scalar per step, so the run
is evaluated through the memory kernel of the bath: the loop over steps
carries scalars and a closed-form kick, and the sums over the modes are
chirp-z transforms done with numpy FFTs (see _run_lattice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# the memory of a block of this many steps reaches the later steps through
# one FFT convolution; inside a block it is summed directly
_BLOCK = 512
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


def gaussian_input(t_grid: np.ndarray, sigma_t: float) -> np.ndarray:
    """Unit-norm Gaussian envelope (integral of envelope^2 is 1) peaking at
    5 sigma_t."""
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


def _matched_control(params: StorageParams, t_grid: np.ndarray) -> np.ndarray:
    """The impedance-matched control for the default Gaussian envelope."""
    envelope = gaussian_input(t_grid, params.sigma_t)
    return impedance_matched_pulse(params.pulse_ratio, t_grid, envelope).omega


def _input_modes(params: StorageParams, nu: np.ndarray) -> np.ndarray:
    """Per-branch mode amplitudes on the uniform grid nu whose emitted-frame
    field reproduces the Gaussian envelope with total norm 1 (both branches
    together)."""
    sigma_w = 1.0 / (2.0 * params.sigma_t)
    t_peak = _PEAK_SIGMAS * params.sigma_t
    eh = (
        (2.0 * math.pi * params.sigma_t**2) ** (-0.25)
        * math.sqrt(4.0 * math.pi * params.sigma_t**2)
        * np.exp(-(nu**2) / (4.0 * sigma_w**2))
        * np.exp(1j * nu * t_peak)
    )
    return math.sqrt(params.dk) * eh / math.sqrt(math.pi) / 2.0


def _chirp_sum(a: np.ndarray, theta: float, m: int) -> np.ndarray:
    """sum_k a[k] * exp(-i*theta*k*j) for j = 0..m-1.

    One Bluestein chirp-z transform (Rabiner, Schafer & Rader, IEEE Trans.
    Audio Electroacoust. 17, 86 (1969)): k*j = (k^2 + j^2 - (j - k)^2) / 2
    turns the sum into a convolution, done with numpy FFTs.
    """
    n = a.size
    size = 1 << (n + m - 2).bit_length()
    chirp = np.exp(-0.5j * theta * np.arange(max(n, m)) ** 2)
    # conj(chirp) at lags 0..m-1, and at the negative lags 1-n..-1 wrapped
    lags = np.zeros(size, dtype=complex)
    lags[:m] = chirp[:m].conj()
    lags[size - n + 1:] = chirp[n - 1:0:-1].conj()
    conv = np.fft.ifft(np.fft.fft(a * chirp[:n], size) * np.fft.fft(lags))
    return chirp[:m] * conv[:m]


def _kicks(dt: float, a: float, gp: float, om: np.ndarray):
    """Closed form of the kick expm(-i*dt*G) for each control value in om.

    G = [[0, a, 0], [a, -i*gp/2, om], [0, conj(om), 0]] on (span, bright
    excited, metastable) has the null vector v0 = (om, 0, -a)/r with
    r = sqrt(a^2 + |om|^2). On u1 = (0, 1, 0) and u2 = (a, 0, conj(om))/r it
    acts as M = [[-i*gp/2, r], [r, 0]], so G is unitarily 0 + M and
    ||G||_2 = ||M||_2 = |gp|/4 + sqrt(gp^2/16 + r^2). The exponential of M is
    X = exp(-dt*gp/4) * [cos(dt*mu) - i*sin(dt*mu)/mu * (M + i*gp/4)] with
    mu = sqrt(r^2 - gp^2/16). So with kap = a/r, w = om/r, z = X22 - 1,
    x11 = X11 and x12 = X12 = X21 the kick is
    [[1 + kap^2 z, kap x12, kap w z], [kap x12, x11, w x12],
     [kap conj(w) z, conj(w) x12, 1 + |w|^2 z]].
    Returns the arrays (kap, w, z, x11, x12).
    """
    r = np.hypot(a, np.abs(om))
    mu = np.sqrt(r * r - gp * gp / 16.0 + 0j)
    decay = math.exp(-0.25 * dt * gp)
    cos = decay * np.cos(dt * mu)
    # decay * sin(dt*mu) / mu, finite at mu = 0
    sin = decay * dt * np.sinc(dt * mu / math.pi)
    return (a / r, om / r, cos + 0.25 * gp * sin - 1.0,
            cos - 0.25 * gp * sin, -1j * r * sin)


def _run_lattice(
    params: StorageParams,
    t_grid: np.ndarray,
    omega: np.ndarray,
    nu: np.ndarray,
    f_in: np.ndarray,
    metastable0: float,
) -> StorageRun:
    """Shared engine: one Strang step per interval of t_grid on n + 2 states,
    from the input modes f_in of one branch on the uniform mode grid nu.

    Both branches obey the same equation from the same start, and the
    antisymmetric emitter and metastable pair is a closed subsystem that
    starts at zero, so the state is the symmetric branch combination
    psi = sqrt(2)*psi_right (coupled to the bright state through g = 2*kap),
    the bright excited amplitude and the symmetric metastable amplitude. The
    parity sign drops out. A step is the mode phase exp(-i*nu*dt/2), an
    exact kick and the second half phase. The kick acts on span(q), q =
    g/|g|, and the two amplitudes, where it is the 3x3 generator
    G = [[0, |g|, 0], [|g|, -i*gp/2, om], [0, conj(om), 0]] with om the
    midpoint average of omega over the interval (closed form in _kicks),
    with ||G||_2 = |gp|/4 + sqrt(gp^2/16 + |g|^2 + |om|^2).
    omega is sampled only on the grid, so the control is second-order
    accurate, and so is the step.

    The splitting is evaluated through the memory kernel of the bath
    (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 532 (1985)).
    The emitters see the modes only through c_j = q^H psi before kick j,
    and kick l adds delta_l * q to psi, so with N steps

        c_j   = s_j + sum_{l<j} K(j - l) * delta_l
        K(m)  = sum_k q_k^2 exp(-i*nu_k*m*dt)
        s_j   = sum_k q_k exp(-i*nu_k*(j - 1/2)*dt) psi0_k
        field = exp(-i*nu*N*dt) psi0
                + q * sum_l exp(-i*nu*(N - l + 1/2)*dt) delta_l

    On the uniform grid K, s and the field are chirp-z transforms. The loop
    over steps carries only scalars: per block of _BLOCK steps one FFT
    convolution adds the block's delta to every later c_j, and a dot adds
    the memory inside the block.

    ValueError unless omega is finite and sampled on t_grid. StepTooLarge
    when dt * ||G||_2 at the largest |om| exceeds 0.25 rad (the control is
    too strong for its sampling step), NotConverged if the norm of field
    and amplitudes grows by more than 1e-9 relative, which the lossy
    dynamics here cannot do.
    """
    omega = np.asarray(omega)
    if omega.shape != t_grid.shape:
        raise ValueError(
            f"omega must be sampled on the storage time grid "
            f"({t_grid.size} points), got shape {omega.shape}"
        )
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega must be finite at every sample")
    # per-emitter guided rate GAMMA_PL/2 makes the bright state decay at 1
    g = np.full(nu.shape, 2.0 * math.sqrt(
        0.5 * GAMMA_PL * params.dk / (4.0 * math.pi)
    ))
    g_norm = math.sqrt(g.dot(g))
    q = g / g_norm
    gp = params.gamma_prime

    dt = float(t_grid[1] - t_grid[0])
    n_steps = t_grid.size - 1
    om_mid = 0.5 * (omega[:-1] + omega[1:])
    r = math.hypot(g_norm, float(np.max(np.abs(om_mid))))
    rate = 0.25 * abs(gp) + math.sqrt(gp * gp / 16.0 + r * r)
    if dt * rate > _COUPLING_STEP_LIMIT:
        raise StepTooLarge(
            f"dt={dt:.3e} turns the coupling block by {dt * rate:.3f} "
            f"rad/step (limit {_COUPLING_STEP_LIMIT}); the control is too "
            f"strong for its sampling step"
        )

    # nu_k = nu_0 + k*dnu, as np.arange builds it
    theta = float(nu[1] - nu[0]) * dt
    origin = np.exp(-1j * dt * nu[0] * np.arange(n_steps + 1))
    half = np.exp(-0.5j * dt * nu)
    psi0 = math.sqrt(2.0) * f_in
    kernel = origin * _chirp_sum(q * q, theta, n_steps + 1)
    coef = origin[:-1] * _chirp_sum(q * half * psi0, theta, n_steps)

    block = min(_BLOCK, n_steps)
    size = 1 << (n_steps + block - 2).bit_length()
    kernel_f = np.fft.fft(kernel[:n_steps], size)
    near = kernel[block:0:-1]  # near[u] = K(block - u)
    delta = np.empty(n_steps, dtype=complex)
    # [bright excited, symmetric metastable]
    e, m = 0j, complex(metastable0)
    for j0 in range(0, n_steps, block):
        j1 = min(j0 + block, n_steps)
        done = delta[j0:j1]
        rows = zip(coef[j0:j1].tolist(), *(
            x.tolist() for x in _kicks(dt, g_norm, gp, om_mid[j0:j1])
        ))
        for i, (c, kap, w, z, x11, x12) in enumerate(rows):
            c += near[block - i:].dot(done[:i]).item()
            # b is the u2 coordinate of (c, e, m) and h its change; the
            # v0 coordinate does not change (see _kicks)
            b = kap * c + w * m
            h = z * b + x12 * e
            done[i] = kap * h
            e, m = x12 * b + x11 * e, m + w.conjugate() * h
        if j1 < n_steps:
            conv = np.fft.ifft(np.fft.fft(done, size) * kernel_f)
            coef[j1:] += conv[j1 - j0:n_steps - j0]

    # kick l lands before the phases exp(-i*nu*(N - l + 1/2)*dt)
    field = np.exp(-1j * n_steps * dt * nu) * psi0 + q * half * _chirp_sum(
        delta[::-1] * origin[:-1], theta, nu.size
    )
    norm0 = float(np.sum(np.abs(psi0) ** 2)) + abs(metastable0) ** 2
    output_norm = float(np.sum(np.abs(field) ** 2))
    norm1 = output_norm + abs(e) ** 2 + abs(m) ** 2
    if not math.isfinite(norm1) or norm1 > norm0 * (1.0 + 1e-9):
        raise NotConverged(
            f"norm went from {norm0:.12f} to {norm1:.12f}; the generator "
            f"gains norm, which a lossless or lossy lattice cannot"
        )
    return StorageRun(
        t=t_grid,
        bright_e=e,
        bright_m=m,
        efficiency=abs(m) ** 2,
        output_norm=output_norm,
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
        omega = _matched_control(params, t_grid)
    nu = uniform_mode_grid(params.half_width, params.dk).nu
    return _run_lattice(params, t_grid, omega, nu, _input_modes(params, nu),
                        metastable0=0.0)


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
    envelope profile: the time-reversed input is, at the end of the run,
    the conjugate of the input modes. stored_amplitude must be finite and
    a given omega finite and sampled on storage_time_grid, and the run must
    emit something (ValueError).
    """
    if not np.isfinite(stored_amplitude):
        raise ValueError(
            f"stored_amplitude must be finite, got {stored_amplitude}"
        )
    t_grid = storage_time_grid(params)
    if omega is None:
        omega = _matched_control(params, t_grid)[::-1]
    nu = uniform_mode_grid(params.half_width, params.dk).nu
    run = _run_lattice(params, t_grid, omega, nu,
                       np.zeros(nu.size, dtype=complex), stored_amplitude)
    emitted_norm = run.output_norm
    if emitted_norm == 0.0:
        raise ValueError("nothing was emitted, so the overlap is undefined")
    ref = _input_modes(params, nu).conj()
    ref /= math.sqrt(float(np.sum(np.abs(ref) ** 2)))
    overlap = abs(np.vdot(ref, run.field / math.sqrt(emitted_norm)))
    return RetrievalResult(emitted_norm=emitted_norm, overlap=float(overlap))
