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
lattice run reaches slightly more (0.80087 at P = 5, sigma_t = 10).
Solving that identity for the control gives

    |c_m(t)|^2 = (1 - 1/P) * int_{-inf}^t envelope^2 - envelope^2
    Omega(t)   = (d envelope/dt - (1 - 1/P) * envelope / 2) / |c_m(t)|

where the integral runs over the whole unit-norm photon, also before the
time grid starts.

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
is evaluated through the memory kernel of the bath: the kernel (the mode
grid's Dirichlet kernel) and the kicks are in closed form. A storage run
makes two chirp-z transforms, the drive and the field, and a retrieval,
which has no input and so no drive, makes one; each is a numpy FFT
convolution padded to a 2^a * 3^b * 5^c length. The memory sum
is a causal convolution, done block by block by uniformly partitioned
overlap-save, and every sub-block of 8 steps is one small linear map,
built for the whole block at once (see _run_lattice).
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
# the memory sum runs in blocks of this many steps: summed directly inside
# a block, through spectra of twice this length across blocks (256 and 512
# measured alike, 128 slower)
_BLOCK = 512
# a block is walked in sub-blocks of this many steps, one linear map each
# (a sigma_t = 20 run took 23.1, 20.4, 24.1, 25.8 and 36.1 ms at 4, 8, 12,
# 16 and 32, medians of 25 runs on 2 vCPUs)
_SUB = 8
_PEAK_SIGMAS = 5.0
_SPAN_SIGMAS = 11.0
# a step may turn the emitter-control kick block by at most this many
# radians, since that angle bounds the splitting error of the step
_COUPLING_STEP_LIMIT = 0.25


def _check_pulse_ratio(pulse_ratio: float) -> None:
    if not math.isfinite(pulse_ratio):
        raise ValueError(f"pulse_ratio must be finite, got {pulse_ratio}")
    if not pulse_ratio > 1.0:
        raise ValueError(
            f"pulse_ratio must be > 1, got {pulse_ratio} (the bright state "
            f"must decay faster into the guide than out)"
        )


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
        _check_pulse_ratio(self.pulse_ratio)
        for name in ("sigma_t", "half_width", "dk"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.parity not in ("even", "odd"):
            raise ValueError(
                f"parity must be 'even' or 'odd', got {self.parity!r}"
            )
        if self.sigma_t <= 0 or self.dk <= 0 or self.half_width <= 0:
            raise ValueError("sigma_t, half_width, dk must all be > 0")
        # the length np.arange gives the grid of uniform_mode_grid
        modes = math.ceil(
            (self.half_width + 0.5 * self.dk + self.half_width) / self.dk
        )
        if modes < 2:
            raise ValueError(
                f"half_width = {self.half_width:g} and dk = {self.dk:g} give "
                f"a uniform mode grid of {modes} mode; the storage run needs "
                f"at least two, so widen half_width or refine dk"
            )
        # a run shorter than one control step has a one-point time grid
        step = _CONTROL_DT / self.half_width
        if _SPAN_SIGMAS * self.sigma_t < step:
            raise ValueError(
                f"a run of {_SPAN_SIGMAS:g} sigma_t = "
                f"{_SPAN_SIGMAS * self.sigma_t:g} is shorter than one "
                f"control step {_CONTROL_DT:g}/half_width = {step:.4g}; "
                f"lengthen sigma_t"
            )
        # the uniform mode grid returns every field it holds after 2 pi/dk
        recurrence = 2.0 * math.pi / self.dk
        if _SPAN_SIGMAS * self.sigma_t >= recurrence:
            raise ValueError(
                f"a run of {_SPAN_SIGMAS:g} sigma_t = "
                f"{_SPAN_SIGMAS * self.sigma_t:g} outlasts the mode grid's "
                f"recurrence time 2 pi/dk = {recurrence:.4g}; shorten "
                f"sigma_t or refine dk"
            )

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
    5 sigma_t. ValueError unless sigma_t is finite and > 0."""
    if not (math.isfinite(sigma_t) and sigma_t > 0):
        raise ValueError(f"sigma_t must be finite and > 0, got {sigma_t}")
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

    The envelope is one unit-norm photon; the part of its norm that t_grid
    does not hold arrived before the grid starts. Where the designed
    population still dips below zero, it is held at the floor 1e-12 with
    the control off.

    Raises BandwidthTooWide when the envelope bandwidth
    sqrt(int denv^2 / int env^2) exceeds 0.1 * GAMMA_PL (the adiabatic
    design assumes a narrowband photon), and PopulationUnderflow when the
    designed population dips below -1e-4 times the peak of envelope^2
    (pulse_ratio too close to 1 for this envelope) or |Omega| exceeds 1e3.
    ValueError unless pulse_ratio is finite and > 1 and t_grid and
    envelope are finite.
    """
    _check_pulse_ratio(pulse_ratio)
    for name, samples in (("t_grid", t_grid), ("envelope", envelope)):
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"{name} must be finite at every sample")
    gp = 1.0 / pulse_ratio
    d_env = np.gradient(envelope, t_grid)
    norm2 = float(np.trapezoid(envelope**2, t_grid))
    bandwidth = math.sqrt(float(np.trapezoid(d_env**2, t_grid)) / norm2)
    if bandwidth > _BANDWIDTH_LIMIT * GAMMA_PL:
        raise BandwidthTooWide(
            f"envelope bandwidth {bandwidth:.3f} exceeds "
            f"{_BANDWIDTH_LIMIT * GAMMA_PL} (narrowband design assumption)"
        )

    # envelope^2 integrated from the start of the photon, 1 - norm2 of which
    # arrived before the grid
    areas = 0.5 * (envelope[1:] ** 2 + envelope[:-1] ** 2) * np.diff(t_grid)
    cum = 1.0 - norm2 + np.concatenate([[0.0], np.cumsum(areas)])
    cm2 = (1.0 - gp) * cum - envelope**2
    peak2 = float(np.max(envelope**2))
    # a short dip below zero is held at the floor with the control off; a
    # deep one means the envelope outruns the transfer
    if np.any(cm2 < -1e-4 * peak2):
        raise PopulationUnderflow(
            f"matched design needs negative stored population "
            f"(min {float(np.min(cm2)):.2e}); increase pulse_ratio or "
            f"reshape the envelope"
        )
    cm = np.sqrt(np.maximum(cm2, _CM_FLOOR))
    omega = np.where(
        cm2 > _CM_FLOOR, (d_env - 0.5 * (1.0 - gp) * envelope) / cm, 0.0
    )
    if np.any(np.abs(omega) > _OMEGA_CAP):
        raise PopulationUnderflow(
            f"matched control exceeds |Omega| = {_OMEGA_CAP:g}; the design "
            f"is not realizable here"
        )
    return MatchedPulse(omega=omega, stored_amplitude=cm)


def _coupling(params: StorageParams, nu: np.ndarray) -> float:
    """|g| for the coupling g of the symmetric branch combination of the n
    modes nu to the bright excited state. Every mode couples alike, so q =
    g/|g| = 1/sqrt(n) and K is the grid's Dirichlet kernel (_memory_kernel)."""
    # 2*sqrt(GAMMA_PL/2 * dk/(4 pi)) per mode: the bright state decays at 1
    return math.sqrt(GAMMA_PL * params.dk * nu.size / (2.0 * math.pi))


def _step_turn(
    dt: float, g_norm: float, gp: float, om_mid: np.ndarray
) -> float:
    """dt * ||G||_2 of the kick generator (see _kicks) at the largest |om|
    in om_mid: the most a step turns the coupling block, in radians."""
    r = math.hypot(g_norm, float(np.max(np.abs(om_mid))))
    return dt * (0.25 * abs(gp) + math.sqrt(gp * gp / 16.0 + r * r))


def _matched_control(
    params: StorageParams, t_grid: np.ndarray, nu: np.ndarray
) -> np.ndarray:
    """The impedance-matched control for the default Gaussian envelope.

    Raises as impedance_matched_pulse does, and PopulationUnderflow when the
    control breaks the step limit of the lattice on nu: a design that holds
    the control off and then switches it on with a spike is not realizable
    at this sampling step, however the lattice runs it.
    """
    envelope = gaussian_input(t_grid, params.sigma_t)
    pulse = impedance_matched_pulse(params.pulse_ratio, t_grid, envelope)
    om_mid = 0.5 * (pulse.omega[:-1] + pulse.omega[1:])
    turn = _step_turn(float(t_grid[1] - t_grid[0]), _coupling(params, nu),
                      params.gamma_prime, om_mid)
    if turn > _COUPLING_STEP_LIMIT:
        spike = int(np.argmax(np.abs(pulse.omega)))
        held = int(np.sum(pulse.omega[:spike] == 0.0))
        raise PopulationUnderflow(
            f"matched design holds the control off for {held} samples, "
            f"then switches it on at |Omega| = {abs(pulse.omega[spike]):.3g}, "
            f"which turns the coupling block by {turn:.3f} rad/step (limit "
            f"{_COUPLING_STEP_LIMIT}); increase pulse_ratio or sigma_t"
        )
    return pulse.omega


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


def _fast_length(n: int) -> int:
    """The least 2^a * 3^b * 5^c >= n, a length numpy's mixed-radix FFT
    does in radix-2, 3 and 5 passes only (Frigo & Johnson, Proc. IEEE 93,
    216 (2005))."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that takes p35 to n or more
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _chirp_sum(a: np.ndarray, theta: float, m: int) -> np.ndarray:
    """sum_k a[k] * exp(-i*theta*k*j) for j = 0..m-1.

    One Bluestein chirp-z transform (Rabiner, Schafer & Rader, IEEE Trans.
    Audio Electroacoust. 17, 86 (1969)): k*j = (k^2 + j^2 - (j - k)^2) / 2
    turns the sum into a convolution of n + m - 1 terms, done with numpy
    FFTs padded to the next 2^a * 3^b * 5^c length (_fast_length).
    """
    n = a.size
    size = _fast_length(n + m - 1)
    chirp = np.exp(-0.5j * theta * np.arange(max(n, m)) ** 2)
    # conj(chirp) at lags 0..m-1, and at the negative lags 1-n..-1 wrapped
    lags = np.zeros(size, dtype=complex)
    lags[:m] = chirp[:m].conj()
    lags[size - n + 1:] = chirp[n - 1:0:-1].conj()
    spectrum = np.fft.fft(a * chirp[:n], size)
    # in place: numpy reuses a temporary's buffer only from 256 KiB up,
    # which 9 000 or 13 824 points do not reach
    spectrum *= np.fft.fft(lags)
    return chirp[:m] * np.fft.ifft(spectrum)[:m]


def _memory_kernel(nu: np.ndarray, dt: float, m: int) -> np.ndarray:
    """K(p) = (1/n) sum_k exp(-i*nu_k*p*dt), p < m, on the n-mode grid nu_k =
    nu_0 + k*dnu: the Dirichlet kernel exp(-i*nubar*p*dt) sin(nx)/(n sin x)
    with nubar the grid's centre and x = dnu*dt*p/2 = pi*(j + f), |f| <= 1/2,
    as (-1)^((n-1)*j) sinc(n*f)/sinc(f), accurate also at the recurrences."""
    n, lag = nu.size, np.arange(m)
    turns = float(nu[1] - nu[0]) * dt / (2.0 * math.pi) * lag
    j = np.rint(turns)
    return (np.exp(-0.5j * (nu[0] + nu[-1]) * dt * lag)
            * (-1.0) ** ((n - 1) * j)
            * np.sinc(n * (turns - j)) / np.sinc(turns - j))


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


def _sub_block_maps(kicks: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Linear maps of n sub-blocks of S steps each.

    kicks holds (kap, w, z, x11, x12) of _kicks for each step, with shape
    (5, n, S), and lags[d] = K(d) for d < S. A sub-block takes the inputs
    (e, m, c_0 .. c_{S-1}), where c_i is the memory of every step before
    the sub-block, and gives (delta_0 .. delta_{S-1}, e', m'); step i adds
    the memory K(i - l) * delta_l of the steps l < i inside the sub-block to
    c_i. Returns the (n, S + 2, S + 2) matrices of those maps, found by
    running the steps on the S + 2 basis inputs at once.
    """
    n, sub = kicks.shape[1:]
    # rows[i] = delta_i for each sub-block and basis input
    rows = np.empty((sub + 2, n, sub + 2), dtype=complex)
    e = np.zeros((n, sub + 2), dtype=complex)
    m = np.zeros_like(e)
    e[:, 0] = m[:, 1] = 1.0
    for i, (kap, w, z, x11, x12) in enumerate(
        kicks.transpose(2, 0, 1)[..., None]
    ):
        c = np.dot(lags[i:0:-1], rows[:i].reshape(i, e.size))
        c = c.reshape(e.shape)
        c[:, i + 2] += 1.0
        # b is the u2 coordinate of (c, e, m) and h its change; the v0
        # coordinate does not change (see _kicks)
        b = kap * c + w * m
        h = z * b + x12 * e
        np.multiply(kap, h, out=rows[i])
        e, m = x12 * b + x11 * e, m + w.conj() * h
    rows[sub], rows[sub + 1] = e, m
    return np.ascontiguousarray(rows.transpose(1, 0, 2))


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

    Each q_k is 1/sqrt(n), so K is the grid's Dirichlet kernel in closed
    form (_memory_kernel), and s and the field are chirp-z transforms
    (_chirp_sum), padded to 2^a * 3^b * 5^c lengths. A run with no input,
    such as a retrieval, has s = 0 and makes only the field's transform.
    The steps run in blocks of B = _BLOCK. The memory of earlier blocks is
    a uniformly partitioned overlap-save convolution (Stockham, AFIPS SJCC
    28, 229 (1966)): H_d is the spectrum of the window K((d-1)B .. (d+1)B
    - 1) of one kernel array, all from one batched FFT, and X_s that of
    block s's delta, zero-padded, taken once the block is done. Block b
    adds entries B .. 2B-1 of IFFT(sum_{s<b} X_s H_{b-s}) to its c_j before
    its steps run, at O(2B log 2B + b*2B) per block. Inside a block the
    steps run in sub-blocks of S = _SUB, the last one padded with identity
    steps. A step is linear in (c_j, e, m), so each sub-block is one
    (S+2)x(S+2) map from (e, m, c_0 .. c_{S-1}) to (delta_0 ..
    delta_{S-1}, e', m') that holds the memory K(1 .. S-1) inside it; the
    maps of a block are built together (_sub_block_maps). Sub-block k then
    costs two matrix-vector products: one with the Hankel slice
    K(kS - l + i) that adds the memory of the block's earlier steps l < kS
    to its c_i, and one with its map.

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
    g_norm = _coupling(params, nu)
    q = 1.0 / math.sqrt(nu.size)
    gp = params.gamma_prime

    dt = float(t_grid[1] - t_grid[0])
    n_steps = t_grid.size - 1
    om_mid = 0.5 * (omega[:-1] + omega[1:])
    turn = _step_turn(dt, g_norm, gp, om_mid)
    if turn > _COUPLING_STEP_LIMIT:
        raise StepTooLarge(
            f"dt={dt:.3e} turns the coupling block by {turn:.3f} "
            f"rad/step (limit {_COUPLING_STEP_LIMIT}); the control is too "
            f"strong for its sampling step"
        )

    # nu_k = nu_0 + k*dnu, as np.arange builds it
    theta = float(nu[1] - nu[0]) * dt
    origin = np.exp(-1j * dt * nu[0] * np.arange(n_steps))
    half = np.exp(-0.5j * dt * nu)
    psi0 = math.sqrt(2.0) * f_in
    if f_in.any():
        coef = q * origin * _chirp_sum(half * psi0, theta, n_steps)
    else:
        # no input, as in a retrieval: the drive is zero, which is what its
        # transform would return
        coef = np.zeros(n_steps, dtype=complex)

    block = min(_BLOCK, n_steps)
    sub = min(_SUB, block)
    n_blocks = -(-n_steps // block)
    # K at every lag the walk reads, where past the run only padded steps
    # and dropped sums read it; segments_f[d - 1] is the spectrum of
    # K((d - 1)*block ... (d + 1)*block - 1) for d = 1 .. n_blocks - 1
    kernel = _memory_kernel(nu, dt, (n_blocks + 1) * block)
    segments_f = np.fft.fft(np.lib.stride_tricks.sliding_window_view(
        kernel, 2 * block)[:(n_blocks - 1) * block:block], axis=1)
    # spectra[s] = FFT of block s's delta, zero-padded to 2*block
    spectra = np.empty_like(segments_f)
    # recent[block - s0 + l] = K(s0 - l .. s0 - l + sub - 1), the weights of
    # step l of a block in the sub-block that starts at its step s0
    recent = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(
        kernel, sub)[block:0:-1])
    delta = np.empty(n_steps, dtype=complex)
    # [bright excited, symmetric metastable]
    em = np.array([0j, metastable0])
    for blk, j0 in enumerate(range(0, n_steps, block)):
        j1 = min(j0 + block, n_steps)
        if blk:
            # entries block .. 2*block - 1 of the circular convolution hold
            # the memory of the blocks before blk at the steps of blk
            conv = np.fft.ifft(np.einsum(
                "sk,sk->k", spectra[:blk], segments_f[blk - 1::-1]
            ))
            coef[j0:j1] += conv[block:block + j1 - j0]
        n_sub = -(-(j1 - j0) // sub)
        # identity steps pad the last sub-block
        kicks = np.zeros((5, n_sub * sub), dtype=complex)
        kicks[3] = 1.0
        kicks[:, :j1 - j0] = _kicks(dt, g_norm, gp, om_mid[j0:j1])
        maps = _sub_block_maps(kicks.reshape(5, n_sub, sub), kernel[:sub])
        coefs = np.zeros((n_sub, sub), dtype=complex)
        coefs.flat[:j1 - j0] = coef[j0:j1]
        # work[s0 .. s0 + sub + 1] holds (e, m, c_0 .. c_{sub-1}) of the
        # sub-block at s0, and its map writes (delta_0 .. delta_{sub-1}, e',
        # m') over them, so the deltas of the block pile up in step order
        # and e', m' land where the next sub-block reads e, m
        work = np.empty(n_sub * sub + 2, dtype=complex)
        work[:2] = em
        for s0, step_map, c in zip(range(0, n_sub * sub, sub), maps, coefs):
            window = work[s0:s0 + sub + 2]
            # the memory of the earlier sub-blocks of this block
            window[2:] = c + work[:s0].dot(recent[block - s0:])
            window[:] = step_map.dot(window)
        delta[j0:j1] = work[:j1 - j0]
        em = work[-2:]
        if j1 < n_steps:
            spectra[blk] = np.fft.fft(delta[j0:j1], 2 * block)
    e, m = em.tolist()
    # free the kernel and spectra before the field's chirp-z sum
    del kernel, segments_f, spectra

    # kick l lands before the phases exp(-i*nu*(N - l + 1/2)*dt)
    field = np.exp(-1j * n_steps * dt * nu) * psi0 + q * half * _chirp_sum(
        delta[::-1] * origin, theta, nu.size)
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
    nu = uniform_mode_grid(params.half_width, params.dk).nu
    if omega is None:
        omega = _matched_control(params, t_grid, nu)
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
    non-Markovian transient, orders of magnitude larger.) Raises as
    impedance_matched_pulse does.
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
    nu = uniform_mode_grid(params.half_width, params.dk).nu
    if omega is None:
        omega = _matched_control(params, t_grid, nu)[::-1]
    run = _run_lattice(params, t_grid, omega, nu,
                       np.zeros(nu.size, dtype=complex), stored_amplitude)
    emitted_norm = run.output_norm
    if emitted_norm == 0.0:
        raise ValueError("nothing was emitted, so the overlap is undefined")
    ref = _input_modes(params, nu).conj()
    ref /= math.sqrt(float(np.sum(np.abs(ref) ** 2)))
    overlap = abs(np.vdot(ref, run.field / math.sqrt(emitted_norm)))
    return RetrievalResult(emitted_norm=emitted_norm, overlap=float(overlap))
