"""Independent time-domain verification of the frequency-domain amplitudes.

Everything here deliberately avoids the closed-form scattering solution: a
wavepacket is launched on a discretized two-branch mode lattice coupled to
the two emitters, evolved with a fourth-order splitting whose pieces (the mode
phases and the mode-emitter coupling block) are exact exponentials, and the
transmitted/reflected amplitudes are read off by projecting onto a narrow
co-moving reference packet. Agreement with the algebraic solver is then
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
# scipy.linalg is imported inside the functions that step, so that the
# closed-form commands, which import this module, load numpy alone.

from .errors import GridTooCoarse, NotConverged, StepTooLarge
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
# evolve rejects a step that turns the mode-emitter coupling block by more
# than this many radians: on the quick oracle point (kd = pi/4, delta = -0.5)
# the splitting error is 6.9e-4 at 0.29 rad and 1.1e-3 at 0.39 rad, against
# the oracle's 1e-3 tolerance
_COUPLING_STEP_LIMIT = 0.25
# oracle time step: on the --quick and sampled criterion-07 points the
# amplitudes move by at most 3e-7 when it is halved (at equal final time)
_DT = 0.025
# Yoshida's triple jump: Strang steps of W1*dt, W0*dt, W1*dt compose to a
# symmetric fourth-order step
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1


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
    """Outcome of one wavepacket scattering run."""

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
    """Exact-phase splitting shared by the oracle and the storage lattice.

    The modes are first multiplied by phase_first; then each (kick, phase)
    pair from steps applies the kick to the coefficients of the modes on the
    k orthonormal columns of q followed by the amplitudes, and multiplies
    the modes by phase. A kick is expm(-i*h*G) minus the identity on the k
    span rows, so those rows give the change of the span coefficients,
    which is added back one column of q at a time (one zaxpy per column is
    cheaper than a matrix-vector product with so few columns).
    NotConverged if the norm of modes and amplitudes grows by more than
    1e-9 relative, which neither lattice can do.
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


def evolve(
    system: LatticeSystem,
    psi: np.ndarray,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Evolve a stacked state for n_steps of dt with an exact-phase splitting.

    H splits into the diagonal mode energies and the coupling block (the
    coupling columns plus dot_block), and both exponentials are exact: the
    first is a phase exp(-i*eps*h) per mode; with coupling = Q R the second
    acts only on span(Q) and the emitters, where it is the 4x4 generator
    G = [[0, R], [R^H, dot_block]], exponentiated once per call, so a kick
    costs a (2 x 2n) projection and two column updates. Yoshida's triple
    jump composes the Strang steps phase(h/2) kick(h) phase(h/2) into a
    symmetric fourth-order step; _split runs the kicks and phases.
    Without loss every piece is unitary and the norm holds to rounding; with
    loss the negative middle kick can lift a step's norm by at most the
    splitting error, O(gamma_prime * dt**5), which the loss outweighs.

    Mode phases are exact, so the grid edge sets no step limit. What does is
    the coupling block: StepTooLarge when dt * ||G||_2 exceeds 0.25 rad,
    where the splitting error approaches the oracle's 1e-3 tolerance.
    NotConverged if the norm grows, which the dynamics here cannot do.
    With n_steps < 1 the state comes back unchanged.
    """
    from scipy.linalg import expm

    n2 = 2 * system.grid.n_modes
    q, r = np.linalg.qr(system.coupling)
    gen = np.zeros((4, 4), dtype=complex)
    gen[:2, 2:] = r
    gen[2:, :2] = r.conj().T
    gen[2:, 2:] = system.dot_block
    _check_step(dt, gen, "reduce dt")
    if n_steps < 1:
        return np.array(psi, dtype=complex)

    # kick propagators minus the identity on the span(Q) rows
    span = np.diag([1.0, 1.0, 0.0, 0.0])
    outer = expm(-1j * _W1 * dt * gen) - span
    inner = expm(-1j * _W0 * dt * gen) - span
    eps2 = np.concatenate([system.eps, system.eps])
    half = np.exp(-0.5j * _W1 * dt * eps2)
    mid = np.exp(-0.5j * (_W1 + _W0) * dt * eps2)
    full = half * half

    def steps():
        for i in range(n_steps):
            yield outer, mid
            yield inner, mid
            yield outer, full if i < n_steps - 1 else half

    modes, amps = _split(psi[:n2], psi[n2:], q, steps(), half)
    return np.concatenate([modes, amps])


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
    the carrier (GridTooCoarse otherwise). evolve() steps it with dt = 0.025
    until the packet has passed and the emitter population has decayed below
    1e-8, up to a chunk cap; NotConverged if the population is still above
    1e-6 there.
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

    dt = _DT
    t_pass = abs(x0) + 5.0 * packet.sigma_x
    started = time.perf_counter()
    n_steps = 0
    chunk = int(t_pass / dt) + 1
    for _ in range(_MAX_CHUNKS):
        psi = evolve(system, psi, dt, chunk)
        n_steps += chunk
        chunk = int(25.0 / dt) + 1
        if float(np.sum(np.abs(psi[2 * n :]) ** 2)) < _DOT_POP_STOP:
            break
    t_final = n_steps * dt
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
