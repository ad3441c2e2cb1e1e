"""Independent time-domain verification of the frequency-domain amplitudes.

Everything here deliberately avoids the closed-form scattering solution: a
wavepacket is launched on a discretized two-branch mode lattice coupled to
the two emitters, propagated by exp(-iHt) (the Hamiltonian does not change
in time, so one Chebyshev series per chunk of time reaches it to rounding),
and the transmitted/reflected amplitudes are read off by projecting onto a
narrow co-moving reference packet. Agreement with the algebraic solver is then
evidence for both.

Lattice layout (state vector of length 2*n + 2):

    [right-branch modes (n) | left-branch modes (n) | emitter 1 | emitter 2]

The two branches carry the same energies nu (chirality is encoded in the
coupling phases, not the dispersion): emitter 2 sits at distance d, so it
absorbs from the right branch with phase e^{+i kd} and from the left branch
with e^{-i kd}; its emission coefficients are the conjugates. The retarded
inter-emitter exchange appears as the explicit Hermitian term
J = sin(kd)/2 plus a principal-value counterterm evaluated on the grid,
which also corrects the finite window (so the window can stay narrow).

The module also carries the collective-decay equivalence check: evolving the
no-jump master equation for two emitters and comparing against pure
non-Hermitian evolution with rates gamma0 * (1 +- sin(k0d)/(k0d)).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
# scipy.linalg is imported inside no_jump_equivalence, so that the
# closed-form commands and the oracle, which import this module, load
# numpy alone.

from .errors import GridTooCoarse, NotConverged
from .model import GAMMA_PL, ModelParams, superradiant_rate

__all__ = [
    "ModeGrid",
    "WavepacketSpec",
    "LatticeSystem",
    "OracleResult",
    "NoJumpReport",
    "make_mode_grid",
    "uniform_mode_grid",
    "build_hamiltonian",
    "evolve",
    "scattering_oracle",
    "gamma_pm",
    "no_jump_equivalence",
]

_MIN_PACKET_MODES = 200
_DOT_POP_STOP = 1e-8
_DOT_POP_FAIL = 1e-6
_MAX_CHUNKS = 40
# the oracle's chunks end on whole multiples of _TICK time units, the first
# once the packet has passed the emitters, the later ones every 25.025
_TICK = 0.025
# evolve cuts its Chebyshev series where the coefficients fall below this
_SERIES_TOL = 1e-14
# evolve adds the series terms to its sum this many at a time
_RING = 16


@dataclass(frozen=True)
class ModeGrid:
    """Energy grid for one branch, with trapezoid quadrature weights.

    Energies are absolute (emitter resonance at 0); the packet carrier sits
    wherever the grid was centered.
    """

    nu: np.ndarray
    weights: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.nu.size

    def coupling_strengths(self) -> np.ndarray:
        """Per-mode emitter coupling reproducing the guided rate GAMMA_PL."""
        return np.sqrt(GAMMA_PL * self.weights / (4.0 * math.pi))


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian probe packet: spectral width, launch depth, reference width.

    The packet starts at x0 = -launch_sigmas * sigma_x so its leading tail
    at the emitters is negligible at t = 0; the extraction reference is
    narrower than the packet by ref_ratio so it samples the amplitudes at
    the carrier rather than averaging over the band.
    """

    sigma_k: float = 0.02
    launch_sigmas: float = 6.0
    ref_ratio: float = 5.0

    def __post_init__(self) -> None:
        for name in ("sigma_k", "launch_sigmas", "ref_ratio"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sigma_k <= 0:
            raise ValueError(f"sigma_k must be > 0, got {self.sigma_k}")
        if self.ref_ratio <= 0:
            raise ValueError(f"ref_ratio must be > 0, got {self.ref_ratio}")
        if self.launch_sigmas < 4.5:
            raise ValueError(
                "launch_sigmas < 4.5 leaves a visible leading tail at the "
                "emitters at t = 0, biasing the extracted amplitudes"
            )

    @property
    def sigma_x(self) -> float:
        return 1.0 / (2.0 * self.sigma_k)


@dataclass(frozen=True)
class LatticeSystem:
    """Assembled lattice Hamiltonian in matrix-free form.

    eps are mode energies in the integration frame, coupling is the (2n, 2)
    emission-coefficient block [right branch; left branch] x [emitter 1,
    emitter 2], dot_block is the 2x2 emitter sub-Hamiltonian.
    """

    grid: ModeGrid
    eps: np.ndarray
    coupling: np.ndarray
    dot_block: np.ndarray

    @property
    def size(self) -> int:
        return 2 * self.grid.n_modes + 2

    def to_dense(self) -> np.ndarray:
        """Materialize H (for structure and propagator tests)."""
        n2 = 2 * self.grid.n_modes
        h = np.zeros((n2 + 2, n2 + 2), dtype=complex)
        h[np.arange(n2), np.arange(n2)] = np.concatenate([self.eps, self.eps])
        h[:n2, n2:] = self.coupling
        h[n2:, :n2] = self.coupling.conj().T
        h[n2:, n2:] = self.dot_block
        return h


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one wavepacket scattering run.

    n_steps counts the applications of the lattice Hamiltonian that the
    Chebyshev series of all chunks took; t_final is the time propagated to.
    """

    t: complex
    r: complex
    n_modes: int
    n_steps: int
    t_final: float
    dot_population: float
    wall_time: float


@dataclass(frozen=True)
class NoJumpReport:
    """Comparison of no-jump master-equation and non-Hermitian evolution."""

    gamma_plus: float
    gamma_minus: float
    max_trace_distance: float
    t_max: float


def make_mode_grid(
    center: float,
    half_width: float = 3.5,
    core_half: float = 0.25,
    dk_core: float = 8e-4,
    line_half: float = 1.6,
    dk_line: float = 1e-2,
    n_outer: int = 40,
) -> ModeGrid:
    """Nonuniform grid for scattering runs: a fine patch around the packet
    carrier, a medium patch around the emitter line at nu = 0 (without it,
    emission at the line lands on sparse filler modes and quasi-recurs,
    stalling convergence), and log-spaced filler out to +-half_width."""
    pieces = [
        np.arange(-core_half, core_half + 0.5 * dk_core, dk_core) + center,
        np.arange(-line_half, line_half + 0.5 * dk_line, dk_line),
    ]
    base = np.sort(np.concatenate(pieces))
    keep = np.concatenate([[True], np.diff(base) > 0.45 * dk_core])
    base = base[keep]
    lo, hi = base[0], base[-1]
    outer = []
    for sign, edge, limit in ((-1.0, lo, -half_width), (1.0, hi, half_width)):
        span = abs(limit - edge)
        if span > dk_line:
            outer.append(edge + sign * np.geomspace(dk_line, span, n_outer))
    nu = np.sort(np.concatenate([base] + outer))
    return ModeGrid(nu=nu, weights=_trapezoid_weights(nu))


def uniform_mode_grid(half_width: float, dk: float) -> ModeGrid:
    """Plain uniform grid (decay-rate and line-shape checks)."""
    nu = np.arange(-half_width, half_width + 0.5 * dk, dk)
    return ModeGrid(nu=nu, weights=np.full_like(nu, dk))


def _trapezoid_weights(nu: np.ndarray) -> np.ndarray:
    w = np.empty_like(nu)
    w[1:-1] = 0.5 * (nu[2:] - nu[:-2])
    w[0] = nu[1] - nu[0]
    w[-1] = nu[-1] - nu[-2]
    return w


def build_hamiltonian(
    grid: ModeGrid,
    params: ModelParams,
    line_check: bool = True,
    line_tol: float = 0.01,
) -> LatticeSystem:
    """Assemble the two-branch, two-emitter lattice at params.delta carrier.

    With line_check=True the grid must reproduce the guided decay rate at
    the emitter line to within line_tol, estimated by smearing the line over
    eta = 0.5: Gamma_est = (GAMMA_PL/pi) * sum w * eta / (nu^2 + eta^2).
    This catches both window truncation and undersampling; GridTooCoarse
    otherwise. Scattering runs disable it — their narrow window is corrected
    exactly by the principal-value counterterm, and packet resolution is
    gated separately in scattering_oracle.
    """
    if line_check:
        eta = 0.5
        gamma_est = GAMMA_PL / math.pi * float(
            np.sum(grid.weights * eta / (grid.nu**2 + eta**2))
        )
        if abs(gamma_est - GAMMA_PL) > line_tol * GAMMA_PL:
            raise GridTooCoarse(
                f"grid reproduces the guided rate as {gamma_est:.4f} "
                f"(want {GAMMA_PL} within {line_tol:.0%}); widen the window "
                f"or refine the spacing"
            )

    kap = grid.coupling_strengths()
    delta = params.delta
    phase = complex(math.cos(params.kd), math.sin(params.kd))

    # principal-value sum at the carrier: corrects both the discreteness and
    # the finite window of the grid (skipping the near-degenerate mode, whose
    # contribution cancels by antisymmetry)
    mask = np.abs(grid.nu - delta) > 1e-9
    s_pv = float(np.sum(kap[mask] ** 2 / (delta - grid.nu[mask])))

    e_dot = -delta - 0.5j * params.gamma_prime - 2.0 * s_pv
    h12 = complex(0.5 * GAMMA_PL * math.sin(params.kd)
                  - 2.0 * math.cos(params.kd) * s_pv)
    if params.include_superradiance:
        h12 += -0.5j * superradiant_rate(params.resonant_phase, params.gamma0)

    coupling = np.empty((2 * grid.n_modes, 2), dtype=complex)
    # emitter 2 absorbs from the right branch with e^{+i kd} and from the
    # left branch with e^{-i kd}; these are the emission coefficients, i.e.
    # the conjugates of the absorption phases
    coupling[: grid.n_modes, 0] = kap
    coupling[grid.n_modes :, 0] = kap
    coupling[: grid.n_modes, 1] = kap * phase.conjugate()
    coupling[grid.n_modes :, 1] = kap * phase

    eps = grid.nu - delta
    return LatticeSystem(
        grid=grid,
        eps=eps,
        coupling=coupling,
        dot_block=np.array([[e_dot, h12], [h12, e_dot]], dtype=complex),
    )


def _bessel_series(x: float) -> np.ndarray:
    """Coefficients (-i)^k J_k(x), k = 0..K, of the Jacobi-Anger expansion

        exp(-i x cos(theta)) = c_0 + 2 * sum_{k >= 1} c_k cos(k theta),

    from one FFT of the left side sampled at N >= 4x + 64 angles, so the
    aliased terms, J_m(x) with m > 3x, are far below rounding. The series
    stops before the first coefficient past k = x (and past k = 1) that
    falls below _SERIES_TOL: from there on they fall faster than
    geometrically. The rounding of the sampled phases leaves a floor of
    about 1e-17 * x under the coefficients, so only the first crossing is
    meaningful.
    """
    n = 1 << math.ceil(math.log2(4.0 * x + 64.0))
    theta = 2.0 * math.pi / n * np.arange(n)
    coeffs = np.fft.fft(np.exp(-1j * x * np.cos(theta)))[: n // 2] / n
    start = max(2, math.ceil(x))
    stop = start + int(np.argmax(np.abs(coeffs[start:]) < _SERIES_TOL))
    return coeffs[:stop]


def _chebyshev(
    system: LatticeSystem, psi: np.ndarray, t: float
) -> tuple[np.ndarray, int]:
    """exp(-i*H*t) psi by one Chebyshev series, and the number of
    applications of H it took (see evolve)."""
    n2 = 2 * system.grid.n_modes
    r = np.linalg.qr(system.coupling, mode="r")
    gen = np.zeros((4, 4), dtype=complex)
    gen[:2, 2:] = r
    gen[2:, :2] = r.conj().T
    gen[2:, 2:] = system.dot_block
    rate = float(np.linalg.norm(gen, 2))
    lo = min(float(np.min(system.eps)), 0.0) - rate
    hi = max(float(np.max(system.eps)), 0.0) + rate
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    coeffs = _bessel_series(half * t)
    coeffs[1:] *= 2.0

    # 2 * (H - center) / half, so the recurrence needs no further scaling;
    # complex diag and a column-major coupling make the products cheapest
    scale = 2.0 / half
    diag = scale * (np.concatenate([system.eps, system.eps]) - center + 0j)
    down = np.asfortranarray(scale * system.coupling)
    up = np.ascontiguousarray(down.conj().T)
    dots = scale * (system.dot_block - center * np.eye(2))

    def apply(v: np.ndarray, out: np.ndarray) -> None:
        modes, amps = v[:n2], v[n2:]
        np.multiply(diag, modes, out=out[:n2])
        out[:n2] += down.dot(amps)
        out[n2:] = up.dot(modes) + dots.dot(amps)

    psi = np.asarray(psi, dtype=complex)
    norm0 = float(np.sum(np.abs(psi) ** 2))
    # T_0 psi = psi, T_1 psi = (H - center) psi / half and
    # T_{k+1} psi = apply(T_k psi) - T_{k-1} psi. The T_k psi cycle through
    # the rows of ring (row k % _RING), and each full ring is added to the
    # sum in one matrix-vector product.
    ring = np.empty((_RING, psi.size), dtype=complex)
    ring[0] = psi
    apply(psi, ring[1])
    ring[1] *= 0.5
    acc = np.zeros(psi.size, dtype=complex)
    for k in range(2, coeffs.size):
        row = k % _RING
        if row == 0:
            acc += coeffs[k - _RING : k].dot(ring)
        apply(ring[row - 1], ring[row])
        ring[row] -= ring[row - 2]
    first = (coeffs.size - 1) // _RING * _RING
    acc += coeffs[first:].dot(ring[: coeffs.size - first])
    acc *= complex(math.cos(center * t), -math.sin(center * t))

    norm1 = float(np.sum(np.abs(acc) ** 2))
    if not math.isfinite(norm1) or norm1 > norm0 * (1.0 + 1e-9):
        raise NotConverged(
            f"norm went from {norm0:.12f} to {norm1:.12f}; the generator "
            f"gains norm, which a lossless or lossy lattice cannot"
        )
    return acc, coeffs.size - 1


def evolve(system: LatticeSystem, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*H*t) psi for the lattice Hamiltonian H, by one Chebyshev
    series (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).

    H is applied matrix-free: the diagonal mode energies eps, the (2n x 2)
    coupling block and the 2x2 dot_block. The real part of H's numerical
    range, and so of every eigenvalue, lies in
    [min(eps, 0) - ||G||_2, max(eps, 0) + ||G||_2], where
    G = [[0, R], [R^H, dot_block]] is the 4x4 coupling-block generator
    (coupling = Q R); the bound holds without loss, with loss and with the
    collective term. With a the half-width of that interval, the series of
    Bessel coefficients (-i)^k J_k(a*t) is cut where they fall below 1e-14,
    a little past k = a*t, so a call costs about a*t applications of H and
    is accurate to rounding for any t.

    ValueError unless t is finite and >= 0; t = 0 returns an unchanged
    copy. NotConverged if the norm grows by more than 1e-9 relative, which
    neither a lossless nor a lossy lattice can do.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return np.array(psi, dtype=complex)
    return _chebyshev(system, psi, t)[0]


def _make_packet(
    system: LatticeSystem, packet: WavepacketSpec
) -> tuple[np.ndarray, float]:
    """Normalized right-moving Gaussian at the carrier, launched at x0 < 0."""
    x0 = -packet.launch_sigmas * packet.sigma_x
    f = (
        np.sqrt(system.grid.weights)
        * np.exp(-system.eps**2 / (4.0 * packet.sigma_k**2))
        * np.exp(-1j * system.eps * x0)
    )
    f /= math.sqrt(float(np.sum(np.abs(f) ** 2)))
    return f, x0


def scattering_oracle(
    params: ModelParams,
    packet: WavepacketSpec = WavepacketSpec(),
    grid: ModeGrid | None = None,
) -> OracleResult:
    """Scatter one wavepacket off the emitter pair and read out (t, r).

    The packet must be resolved by at least 200 modes within +-4 sigma_k of
    the carrier (GridTooCoarse otherwise). It is propagated in chunks, each
    one Chebyshev series (see evolve), that end on multiples of 0.025: the
    first once the packet has passed the emitters, then every 25.025, until
    the emitter population has decayed below 1e-8, up to 40 chunks;
    NotConverged if the population is still above 1e-6 there.
    The amplitudes come from projecting each branch onto a narrow co-moving
    reference, normalized by the same projection of the freely propagated
    input.
    """
    if grid is None:
        grid = make_mode_grid(params.delta)
    in_band = np.abs(grid.nu - params.delta) <= 4.0 * packet.sigma_k
    n_band = int(np.count_nonzero(in_band))
    if n_band < _MIN_PACKET_MODES:
        raise GridTooCoarse(
            f"only {n_band} modes resolve the packet band (need "
            f">= {_MIN_PACKET_MODES}); refine the grid or widen the packet"
        )
    system = build_hamiltonian(grid, params, line_check=False)

    f, x0 = _make_packet(system, packet)
    n = grid.n_modes
    psi = np.zeros(system.size, dtype=complex)
    psi[:n] = f

    t_pass = abs(x0) + 5.0 * packet.sigma_x
    started = time.perf_counter()
    n_steps = 0
    ticks = 0
    chunk = int(t_pass / _TICK) + 1
    for _ in range(_MAX_CHUNKS):
        psi, applied = _chebyshev(system, psi, chunk * _TICK)
        n_steps += applied
        ticks += chunk
        chunk = int(25.0 / _TICK) + 1
        if float(np.sum(np.abs(psi[2 * n :]) ** 2)) < _DOT_POP_STOP:
            break
    t_final = ticks * _TICK
    dot_population = float(np.sum(np.abs(psi[2 * n :]) ** 2))
    if dot_population > _DOT_POP_FAIL:
        raise NotConverged(
            f"emitter population {dot_population:.2e} has not decayed below "
            f"{_DOT_POP_FAIL} after t={t_final:.1f}"
        )

    sigma_ref = packet.sigma_k / packet.ref_ratio
    ref = (
        np.sqrt(system.grid.weights)
        * np.exp(-system.eps**2 / (4.0 * sigma_ref**2))
        * np.exp(-1j * system.eps * (x0 + t_final))
    )
    den = np.sum(np.conj(ref) * f * np.exp(-1j * system.eps * t_final))
    t_num = complex(np.sum(np.conj(ref) * psi[:n]) / den)
    r_num = complex(np.sum(np.conj(ref) * psi[n : 2 * n]) / den)
    return OracleResult(
        t=t_num,
        r=r_num,
        n_modes=grid.n_modes,
        n_steps=n_steps,
        t_final=t_final,
        dot_population=dot_population,
        wall_time=time.perf_counter() - started,
    )


def gamma_pm(k0d: float, gamma0: float) -> tuple[float, float]:
    """Collective decay rates gamma0 * (1 +- sin(k0d)/(k0d)).

    Built from a shared product so gamma_plus + gamma_minus == 2 * gamma0
    holds exactly in floating point. The k0d -> 0 limit is the Dicke pair
    (2 * gamma0, 0).
    """
    x = superradiant_rate(k0d, gamma0)
    return (gamma0 + x, gamma0 - x)


def no_jump_equivalence(
    k0d: float,
    gamma0: float,
    t_max: float = 400.0,
) -> NoJumpReport:
    """Check that conditional (no-jump) master-equation evolution equals
    non-Hermitian evolution with the collective rates.

    Starting from the single-emitter excitation (symmetric + antisymmetric)
    / sqrt(2), route (i) propagates the vectorised density matrix under
    d rho/dt = -(1/2) sum_pm gamma_pm {P_pm, rho} with the exact propagator
    expm(L*t) of the 4x4 Liouvillian L; route (ii) is the closed form
    psi_pm(t) = e^{-gamma_pm t / 2} / sqrt(2). Returns the largest trace
    distance seen at the sample times, every 2 time units and at t_max.
    """
    from scipy.linalg import expm

    g_plus, g_minus = gamma_pm(k0d, gamma0)
    # anticommutator {A, rho} on the row-major vec(rho) is A(x)1 + 1(x)A^T
    eye = np.eye(2)
    decay = np.diag([g_plus, g_minus])
    liouvillian = -0.5 * (np.kron(decay, eye) + np.kron(eye, decay.T))
    psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    rho0 = np.outer(psi0, psi0.conj()).reshape(4)

    worst = 0.0
    for t in (*np.arange(2.0, t_max, 2.0), t_max):
        rho = expm(liouvillian * t).dot(rho0)
        psi = psi0 * np.exp(-0.5 * np.array([g_plus, g_minus]) * t)
        diff = rho.reshape(2, 2) - np.outer(psi, psi.conj())
        trace_distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
        worst = max(worst, trace_distance)
    return NoJumpReport(
        gamma_plus=g_plus,
        gamma_minus=g_minus,
        max_trace_distance=worst,
        t_max=t_max,
    )
