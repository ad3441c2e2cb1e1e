"""Independent time-domain verification of the frequency-domain amplitudes.

Everything here deliberately avoids the closed-form scattering solution: a
wavepacket is launched on a discretized two-branch mode lattice coupled to
the two emitters, propagated by exp(-iHt) (the Hamiltonian does not change
in time, so one Chebyshev series per chunk of time reaches it to rounding),
and the transmitted/reflected amplitudes are read off at the carrier mode,
whose energy is exactly 0: once the packet has passed, each mode of the
linear lattice holds its input amplitude times the scattering amplitude at
its energy (Shen & Fan, Opt. Lett. 30, 2001 (2005)). Agreement with the
algebraic solver is then evidence for both. The series is sized by the
extreme eigenvalues of the Hermitian part of H, found once per system by
bisection on the positive-definiteness test of a 2x2 Schur complement,
between a diagonal entry and Weyl's bound (LatticeSystem.spectral_interval).

Lattice layout (state vector of length 2*n + 2):

    [right-branch modes (n) | left-branch modes (n) | emitter 1 | emitter 2]

The two branches carry the same energies nu (chirality is encoded in the
coupling phases, not the dispersion). How each emitter meets each branch
is one 2x2 matrix of branch weights W, rows the right and left branches,
columns the emitters: emitter j absorbs mode m of branch b with
kap_m * W[b, j] and emits into it with the conjugate. Emitter 2 sits at
distance d, so W = [[1, e^{+i kd}], [1, e^{-i kd}]]. The retarded
inter-emitter exchange appears as the explicit Hermitian term
J = sin(kd)/2 plus a principal-value counterterm evaluated on the grid,
-s_pv * W^T conj(W), which also corrects the finite window (so the window
can stay narrow). H is never stored as a matrix: the series holds each
mode amplitude divided by its coupling strength, so every mode of a branch
receives the same emission and an application of H costs one multiply by
the mode energies, one number added to each branch and one product of the
modes with their squared couplings (_chebyshev).

The mode grid (make_mode_grid) is a uniform core about the carrier inside
one line patch about the emitter line. Modes dk apart recur at 2*pi/dk,
so the core is spaced for the longest run the oracle may make, not for a
mode count: it recurs at 2 409, after that run ends at the default packet
(1 250). A finer core adds modes, and so cost to every application of H,
without changing t or r; scattering_oracle refuses a grid whose packet
band would recur before the run ends.

The module also carries the collective-decay equivalence check: evolving the
site-basis master equation of two emitters and comparing its no-jump part
against pure non-Hermitian evolution with rates gamma0 * (1 +- sin(k0d)/(k0d)).

Everything here runs on numpy alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

# the packet-band modes must mirror about the carrier to within this
_MIRROR_TOL = 1e-9
# the packet starts _LAUNCH_SIGMAS * sigma_x before the emitters
_LAUNCH_SIGMAS = 6.0
# make_mode_grid: a core of spacing _DK_CORE at least _CORE_HALF either side
# of the carrier (96 steps, to 0.2504) inside one line patch of spacing
# _DK_LINE over +-_LINE_HALF. The core recurs at 2*pi/_DK_CORE = 2 409,
# after the longest run at sigma_k = 0.02 (11 sigma_x + 39 * 25 = 1 250)
_CORE_HALF = 0.25
_DK_CORE = 0.2504 / 96
_LINE_HALF = 2.5
_DK_LINE = 1e-2
_DOT_POP_STOP = 1e-10
_DOT_POP_FAIL = 1e-6
# the run's first chunk ends at 11 sigma_x, each later one _CHUNK after
_MAX_CHUNKS = 40
_CHUNK = 25.0
# evolve cuts its Chebyshev series where the coefficients fall below this
_SERIES_TOL = 1e-14
# evolve adds the series terms to its sum this many at a time
_RING = 16
# spectral_interval's edges lie outside the spectrum by at most twice
# this, relative to the larger of its two starts
_EDGE_PAD = 2.5e-7


@dataclass(frozen=True)
class ModeGrid:
    """Energy grid for one branch. Each mode's weight is its
    central-difference spacing np.gradient(nu), one-sided at the two ends.

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
    """Gaussian probe packet of spectral width sigma_k, launched so far
    (6 sigma_x) before the emitters that its leading tail there is
    negligible at t = 0."""

    sigma_k: float = 0.02

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma_k):
            raise ValueError(f"sigma_k must be finite, got {self.sigma_k}")
        if self.sigma_k <= 0:
            raise ValueError(f"sigma_k must be > 0, got {self.sigma_k}")

    @property
    def sigma_x(self) -> float:
        return 1.0 / (2.0 * self.sigma_k)


@dataclass(frozen=True)
class LatticeSystem:
    """Assembled lattice Hamiltonian in matrix-free form.

    eps are mode energies in the integration frame, the same on both
    branches, and dot_block is the 2x2 emitter sub-Hamiltonian. Mode m
    couples to the emitters with its strength kap_m =
    grid.coupling_strengths()[m] times a branch weight: branch_weights is
    the 2x2 W whose rows are the right and left branches and whose columns
    are the emitters, so emitter j absorbs mode m of branch b with
    kap_m * W[b, j] and emits into it with the conjugate
    (build_hamiltonian: W = [[1, e^{i kd}], [1, e^{-i kd}]]). evolve
    applies H through the scaled mode amplitudes psi_m / kap_m (see
    _chebyshev).
    """

    grid: ModeGrid
    eps: np.ndarray
    branch_weights: np.ndarray
    dot_block: np.ndarray

    @property
    def size(self) -> int:
        return 2 * self.grid.n_modes + 2

    @cached_property
    def spectral_interval(self) -> tuple[float, float]:
        """(lo, hi) enclosing the eigenvalues of the Hermitian part
        H_h = (H + H^H) / 2, and so the real part of every eigenvalue of H;
        computed once per system.

        H_h = [[E, C], [C^H, D_h]] with E = diag(eps, eps), C the (2n, 2)
        emission block and D_h the Hermitian part of dot_block.
        _secular_edge brackets each edge by bisection on the
        positive-definiteness test of a 2x2 Schur complement, between the
        extreme entry of the diagonal [eps, Re diag D_h], which lies inside
        the spectrum (a diagonal entry is a Rayleigh quotient), and Weyl's
        bound, which lies outside it. The lower edge is the upper edge of -H_h. Each edge
        lies outside the spectrum by at most 2 * _EDGE_PAD of the larger
        start in magnitude, which is at most the spectral radius of H_h.
        NotConverged unless H is finite.
        """
        # C^H (lam - E)^{-1} C = sum_m kap_m^2 / (lam - eps_m) * W^T conj(W):
        # one scalar sum times a fixed 2x2 matrix
        kap2 = self.grid.coupling_strengths() ** 2
        gram = self.branch_weights.T @ self.branch_weights.conj()
        d_h = 0.5 * (self.dot_block + self.dot_block.conj().T)
        diag = np.concatenate([self.eps, np.diag(d_h).real])
        start_lo, start_hi = float(np.min(diag)), float(np.max(diag))
        pad = _EDGE_PAD * max(abs(start_lo), abs(start_hi))
        hi = _secular_edge(self.eps, kap2, gram, d_h, start_hi, pad)
        lo = -_secular_edge(-self.eps, kap2, gram, -d_h, -start_lo, pad)
        return lo, hi

    def to_dense(self) -> np.ndarray:
        """Materialize H (for structure and propagator tests)."""
        n2 = 2 * self.grid.n_modes
        # row (b, m), column j: kap_m * conj(W[b, j])
        emission = np.kron(self.branch_weights.conj(),
                           self.grid.coupling_strengths()[:, None])
        h = np.zeros((n2 + 2, n2 + 2), dtype=complex)
        h[np.arange(n2), np.arange(n2)] = np.concatenate([self.eps, self.eps])
        h[:n2, n2:] = emission
        h[n2:, :n2] = emission.conj().T
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
    """Comparison of no-jump master-equation and non-Hermitian evolution.

    Both maxima run over the 200 sample times 2, 4, ..., 400.
    max_trace_error is the largest |tr rho - 1| of the full master
    equation, whose jumps keep the trace.
    """

    gamma_plus: float
    gamma_minus: float
    max_trace_distance: float
    max_trace_error: float


def make_mode_grid(center: float) -> ModeGrid:
    """Nonuniform grid for scattering runs: a uniform core with a mode
    exactly at the packet carrier `center`, 96 steps of 0.2504/96 either
    side of it, inside one uniform line patch of spacing 0.01 over +-2.5
    around the emitter line at nu = 0 (emission at the line that lands on
    sparse modes quasi-recurs, stalling convergence). The core's spacing is
    set by the time the oracle may run, not by a mode count: its modes
    recur at 2*pi/spacing = 2 409, after the longest run at the default
    packet (1 250; see scattering_oracle). The grid has 643 modes at
    center = -0.5. Line-patch modes that would fall inside the core are
    left out, so the core stays uniform; where |center| > 2.25 the core
    reaches past the patch. ValueError unless center is finite."""
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    m = math.ceil(_CORE_HALF / _DK_CORE)
    core = center + _DK_CORE * np.arange(-m, m + 1)
    line = np.arange(-_LINE_HALF, _LINE_HALF + 0.5 * _DK_LINE, _DK_LINE)
    line = line[np.abs(line - center) > (m + 0.5) * _DK_CORE]
    nu = np.sort(np.concatenate([core, line]))
    return ModeGrid(nu=nu, weights=np.gradient(nu))


def uniform_mode_grid(half_width: float, dk: float) -> ModeGrid:
    """Plain uniform grid (decay-rate and line-shape checks, and the
    storage run, whose closed-form memory kernel relies on
    nu_k = nu_0 + k*(nu_1 - nu_0), as np.arange builds it). ValueError
    unless half_width and dk are finite and > 0."""
    for name, value in (("half_width", half_width), ("dk", dk)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    nu = np.arange(-half_width, half_width + 0.5 * dk, dk)
    return ModeGrid(nu=nu, weights=np.full_like(nu, dk))


def build_hamiltonian(grid: ModeGrid, params: ModelParams) -> LatticeSystem:
    """Assemble the two-branch, two-emitter lattice at params.delta carrier.
    ValueError unless every grid weight is finite and > 0: evolve holds
    each mode divided by its coupling strength."""
    valid = np.isfinite(grid.weights) & (grid.weights > 0)
    if not np.all(valid):
        k = int(np.argmin(valid))
        raise ValueError(
            f"weights must be finite and > 0, got {grid.weights[k]} at "
            f"mode {k}"
        )
    kap = grid.coupling_strengths()
    delta = params.delta
    phase = complex(math.cos(params.kd), math.sin(params.kd))
    w = np.array([[1.0, phase], [1.0, phase.conjugate()]])

    # principal-value sum at the carrier: corrects both the discreteness and
    # the finite window of the grid (skipping the near-degenerate mode, whose
    # contribution cancels by antisymmetry)
    mask = np.abs(grid.nu - delta) > 1e-9
    s_pv = float(np.sum(kap[mask] ** 2 / (delta - grid.nu[mask])))

    e_dot = -delta - 0.5j * params.gamma_prime
    h12 = 0.5 * GAMMA_PL * math.sin(params.kd)
    if params.include_superradiance:
        h12 += -0.5j * superradiant_rate(params.resonant_phase, params.gamma0)
    # the counterterm -s_pv * W^T conj(W), averaged with its conjugate
    # transpose: a fused multiply-add in the product can leave the
    # diagonal an imaginary part of rounding, a gain or loss H does not have
    gram = w.T @ w.conj()
    counter = 0.5 * s_pv * (gram + gram.conj().T)
    return LatticeSystem(
        grid=grid,
        eps=grid.nu - delta,
        branch_weights=w,
        dot_block=np.array([[e_dot, h12], [h12, e_dot]]) - counter,
    )


def _secular_edge(
    eps: np.ndarray,
    kap2: np.ndarray,
    gram: np.ndarray,
    d_h: np.ndarray,
    start: float,
    pad: float,
) -> float:
    """Upper edge of the spectrum of H_h = [[E, C], [C^H, D_h]], padded.

    For lam > max(E), lam - H_h is positive definite exactly when the 2x2
    Schur complement S(lam) = lam - D_h - C^H (lam - E)^{-1} C is
    (Haynsworth inertia); C^H (lam - E)^{-1} C is the sum of
    kap2 / (lam - eps) times gram = W^T conj(W), as in
    LatticeSystem.spectral_interval. S grows with lam (slope >= 1), so the
    test (a > 0 and a*d > |b|^2 for S = [[a, b], [conj(b), d]]) flips once,
    at the edge. Bisection brackets it from start, which must lie at or
    below the edge and at or above max(E), to Weyl's bound
    max(E, Re diag D_h + |D_h[0, 1]|) + ||C||_F, which lies above it. The
    bracket closes to pad, or to adjacent floats where pad is 0, and its
    upper end is returned plus pad, which covers rounding in the test.
    NotConverged unless that bound is finite.
    """
    gershgorin = np.concatenate([eps, d_h.diagonal().real + abs(d_h[0, 1])])
    c_frob2 = np.sum(kap2) * np.trace(gram).real  # ||C||_F^2
    hi = float(np.max(gershgorin) + np.sqrt(c_frob2))
    if not math.isfinite(hi):
        raise NotConverged(f"spectral edge bound is {hi}; H is not finite")
    (g11, g12), (_, g22) = gram.tolist()
    lo = start
    while True:
        lam = 0.5 * (lo + hi)
        if hi - lo <= pad or not lo < lam < hi:
            return hi + pad
        s = float((1.0 / (lam - eps)).dot(kap2))
        a = lam - d_h[0, 0].real - s * g11.real
        d = lam - d_h[1, 1].real - s * g22.real
        if a > 0.0 and a * d > abs(d_h[0, 1] + s * g12) ** 2:
            hi = lam
        else:
            lo = lam


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
    applications of H it took (see evolve).

    The series runs on the scaled state u = S^{-1} psi, S = diag(kap, kap,
    1, 1) with kap the modes' coupling strengths: it applies
    H' = S^{-1} H S, which has H's spectrum and so takes the same
    coefficients. In u every mode of a branch receives the same emission,
    one number per branch, and absorption weighs the modes by kap^2, so
    applying H' is one multiply by the mode energies, two scalar adds on
    the branch halves and one (2, n) product, with the entries of W and of
    the 2x2 emitter block as Python scalars. The sum is multiplied back by
    S once, at the end.
    """
    n = system.grid.n_modes
    n2 = 2 * n
    lo, hi = system.spectral_interval
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    coeffs = _bessel_series(half * t)
    coeffs[1:] *= 2.0

    # 2 * (H' - center) / half, so the recurrence needs no further scaling;
    # complex diag and absorption weights keep each product one BLAS call
    # on flat operands
    scale = 2.0 / half
    kap = system.grid.coupling_strengths()
    diag = scale * (np.concatenate([system.eps, system.eps]) - center + 0j)
    absorb = scale * kap**2 + 0j
    # W's rows, right and left branch, absorb; the conjugates emit
    w = system.branch_weights
    (r1, r2), (l1, l2) = w.tolist()
    (e_r1, e_r2), (e_l1, e_l2) = (scale * w.conj()).tolist()
    (d11, d12), (d21, d22) = (
        scale * (system.dot_block - center * np.eye(2))
    ).tolist()

    # T_0 u = u, T_1 u = (H' - center) u / half and
    # T_{k+1} u = 2 (H' - center) / half T_k u - T_{k-1} u. The T_k u cycle
    # through the rows of ring (row k % _RING), and each full ring is added
    # to the sum in one matrix-vector product.
    psi = np.asarray(psi, dtype=complex)
    norm0 = float(np.sum(np.abs(psi) ** 2))
    ring = np.empty((_RING, psi.size), dtype=complex)
    vectors = list(ring)
    # per row: its modes, its right and left branches, the branches as a
    # (2, n) array, and its emitters
    rows = [(v[:n2], v[:n], v[n:n2], v[:n2].reshape(2, n), v[n2:])
            for v in vectors]

    def apply(src: int, dst: int) -> None:
        modes, _, _, branches, amps = rows[src]
        out, right, left, _, out_amps = rows[dst]
        a1, a2 = amps.tolist()
        np.multiply(diag, modes, out=out)
        right += e_r1 * a1 + e_r2 * a2
        left += e_l1 * a1 + e_l2 * a2
        s_right, s_left = branches.dot(absorb).tolist()
        out_amps[0] = r1 * s_right + l1 * s_left + d11 * a1 + d12 * a2
        out_amps[1] = r2 * s_right + l2 * s_left + d21 * a1 + d22 * a2

    ring[0] = psi
    ring[0, :n] /= kap
    ring[0, n:n2] /= kap
    apply(0, 1)
    ring[1] *= 0.5
    acc = np.zeros(psi.size, dtype=complex)
    for k in range(2, coeffs.size):
        row = k % _RING
        if row == 0:
            acc += coeffs[k - _RING : k].dot(ring)
        apply(row - 1, row)
        vectors[row] -= vectors[row - 2]
    first = (coeffs.size - 1) // _RING * _RING
    acc += coeffs[first:].dot(ring[: coeffs.size - first])
    acc[:n] *= kap
    acc[n:n2] *= kap
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

    H is applied matrix-free, on the modes held divided by their coupling
    strengths: one multiply by the mode energies, one number added to each
    branch for the emission, one (2, n) product for the absorption and the
    2x2 dot_block on scalars (see _chebyshev). The real part of H's numerical
    range, and so of every eigenvalue, is the numerical range of the
    Hermitian part H_h = (H + H^H) / 2, whose extreme eigenvalues
    system.spectral_interval brackets by bisection on a 2x2 Schur test,
    between a diagonal entry and Weyl's bound, to about 1e-6 relative, on
    the outer side, once per system. Loss and the collective decay term
    only move eigenvalues below the real axis; a gain would move them above
    it, and the norm check below catches it. With a the half-width of that
    interval, the series of Bessel coefficients (-i)^k J_k(a*t) is cut
    where they fall below 1e-14, a little past k = a*t, so a call costs
    about a*t applications of H. For a Hermitian H it is accurate to
    rounding for any t. A damped eigenvalue lam lifts the series terms,
    by about exp(|Im lam| * t / sqrt(1 - x^2)) with x its place on the
    interval scaled to [-1, 1], and their rounding with them: most where
    it sits at an edge of the interval.

    ValueError unless t is finite and >= 0; t = 0 returns an unchanged
    copy. NotConverged if the norm grows by more than 1e-9 relative, which
    neither a lossless nor a lossy lattice can do.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return np.array(psi, dtype=complex)
    return _chebyshev(system, psi, t)[0]


def _make_packet(system: LatticeSystem, packet: WavepacketSpec) -> np.ndarray:
    """Normalized right-moving Gaussian at the carrier, launched at x0 < 0."""
    x0 = -_LAUNCH_SIGMAS * packet.sigma_x
    f = (
        np.sqrt(system.grid.weights)
        * np.exp(-system.eps**2 / (4.0 * packet.sigma_k**2))
        * np.exp(-1j * system.eps * x0)
    )
    return f / math.sqrt(float(np.sum(np.abs(f) ** 2)))


def scattering_oracle(
    params: ModelParams,
    packet: WavepacketSpec = WavepacketSpec(),
    grid: ModeGrid | None = None,
) -> OracleResult:
    """Scatter one wavepacket off the emitter pair and read out (t, r).

    The packet is propagated in chunks, each one Chebyshev series (see
    evolve), that end at 11 sigma_x, once the packet has passed the
    emitters, and then every 25 time units, until the emitter population
    has decayed below 1e-10, up to 40 chunks; NotConverged if the
    population is still above 1e-6 there.
    t and r are read at the carrier mode c, where nu = params.delta exactly:
    once the packet has passed, mode c holds its input amplitude f_c times t
    on the right branch and times r on the left, with no phase, as its
    energy is 0. A caller's grid must have that mode, and its modes within
    +-4 sigma_k must mirror about it to within 1e-9, as the principal-value
    counterterm needs; the band is taken symmetrically about the carrier, so
    rounding at its edges cannot drop one mode of a mirrored pair. The
    packet band must also stay resolved for the whole run: modes dk apart
    recur at t = 2*pi/dk, and the widest gap reaching into +-4 sigma_k
    must recur no earlier than the longest run, 11 sigma_x + 39 * 25
    (GridTooCoarse otherwise; the mirror test comes first). make_mode_grid
    passes both tests for 0.00384 <= sigma_k < 0.0626.
    """
    if grid is None:
        grid = make_mode_grid(params.delta)
    system = build_hamiltonian(grid, params)
    carrier = np.flatnonzero(system.eps == 0.0)
    if carrier.size == 0:
        raise GridTooCoarse(
            f"no mode sits on the carrier nu = {params.delta!r}; the "
            f"amplitudes are read there (make_mode_grid puts one on it)"
        )
    c = int(carrier[0])
    # the packet band, m modes either side of the carrier, m the larger
    # count within 4 sigma_k: a band cut off by the grid's end pairs the
    # carrier with a mode off it, so it fails the mirror test too
    half = 4.0 * packet.sigma_k
    offsets = np.sort(system.eps)
    mid = int(np.searchsorted(offsets, 0.0))
    m = max(mid - int(np.searchsorted(offsets, -half)),
            int(np.searchsorted(offsets, half, side="right")) - mid - 1)
    band = offsets[max(mid - m, 0) : mid + m + 1]
    core_half = math.ceil(_CORE_HALF / _DK_CORE) * _DK_CORE
    # the principal-value counterterm of build_hamiltonian is exact only
    # when the modes near the carrier cancel pairwise
    asymmetry = float(np.max(np.abs(band + band[::-1])))
    if asymmetry > _MIRROR_TOL:
        raise GridTooCoarse(
            f"the packet band, 4*sigma_k = {half:.4g} either "
            f"side of the carrier, is not mirror-symmetric (worst mismatch "
            f"{asymmetry:.3e}, limit {_MIRROR_TOL}); make_mode_grid mirrors "
            f"only its uniform core, half-width {core_half:.4g}: narrow the "
            f"packet (smaller sigma_k)"
        )
    # the widest gap that reaches into the band, to the modes just outside
    # it; a carrier alone (a one-mode grid) resolves nothing
    t_pass = (_LAUNCH_SIGMAS + 5.0) * packet.sigma_x
    t_max = t_pass + (_MAX_CHUNKS - 1) * _CHUNK
    reach = offsets[max(mid - m - 1, 0) : mid + m + 2]
    spacing = max(np.diff(reach).tolist(), default=math.inf)
    if spacing * t_max > 2.0 * math.pi:
        # a band that reaches the core's edge takes in the line patch's
        # wider gaps, and a narrower packet keeps inside the core
        hint = (
            f"make_mode_grid spaces its modes that closely only in its "
            f"uniform core, half-width {core_half:.4g}: narrow the packet "
            f"(smaller sigma_k)" if half + _MIRROR_TOL >= core_half else
            "widen the packet (larger sigma_k, a shorter run) or refine "
            "the grid"
        )
        raise GridTooCoarse(
            f"the packet band, 4*sigma_k = {half:.4g} either side of the "
            f"carrier, is unresolved: its modes {spacing:.3g} apart recur at "
            f"t = {2.0 * math.pi / spacing:.4g}, before the longest run "
            f"ends (t = {t_max:.4g}); {hint}"
        )

    f = _make_packet(system, packet)
    n = grid.n_modes
    psi = np.zeros(system.size, dtype=complex)
    psi[:n] = f

    started = time.perf_counter()
    n_steps = 0
    t_final = 0.0
    for chunk in [t_pass] + [_CHUNK] * (_MAX_CHUNKS - 1):
        psi, applied = _chebyshev(system, psi, chunk)
        n_steps += applied
        t_final += chunk
        if float(np.sum(np.abs(psi[2 * n :]) ** 2)) < _DOT_POP_STOP:
            break
    dot_population = float(np.sum(np.abs(psi[2 * n :]) ** 2))
    if dot_population > _DOT_POP_FAIL:
        raise NotConverged(
            f"emitter population {dot_population:.2e} has not decayed below "
            f"{_DOT_POP_FAIL} after t={t_final:.1f}"
        )

    return OracleResult(
        t=complex(psi[c] / f[c]),
        r=complex(psi[n + c] / f[c]),
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


def no_jump_equivalence(k0d: float, gamma0: float) -> NoJumpReport:
    """Check that the no-jump part of the two-emitter master equation is
    non-Hermitian evolution with the collective rates gamma_pm.

    Route (i) knows nothing of gamma_pm. It propagates the site-basis master
    equation of the levels g, e1, e2 (Lehmberg, Phys. Rev. A 2, 883 (1970)),

        d rho/dt = sum_ij Gamma_ij (s_j rho s_i^+ - {s_i^+ s_j, rho} / 2),

    with s_i = |g><e_i| and Gamma = gamma0 * [[1, s], [s, 1]],
    s = sin(k0d)/(k0d), from rho = |e1><e1|, exactly. Its 9x9 Liouvillian
    is a real symmetric anticommutator part, zero on rho_gg, plus the jumps,
    which only feed rho_gg; so the excited block of rho is the no-jump
    evolution. One eigh diagonalizes the symmetric part with an orthogonal
    basis, also where rates coincide (k0d -> 0, k0d = pi), and the jumps
    are integrated in closed form. Route (ii) is the closed form
    psi_pm(t) = e^{-gamma_pm t / 2} / sqrt(2) in the basis
    (e1 +- e2) / sqrt(2). Returns the largest trace distance between the
    excited block and psi psi^H, and the largest |tr rho - 1|, over the
    sample times 2, 4, ..., 400; a NaN anywhere reaches both.

    ValueError unless k0d and gamma0 are finite.
    """
    for name, value in (("k0d", k0d), ("gamma0", gamma0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    g_plus, g_minus = gamma_pm(k0d, gamma0)
    cross = superradiant_rate(k0d, gamma0)

    # Gamma on the levels (g, e1, e2); s_i^+ s_j = |e_i><e_j|, so the
    # anticommutator is Gamma (x) 1 + 1 (x) Gamma^T on the row-major
    # vec(rho), and the jumps add sum_ij Gamma_ij rho_{e_j e_i} to rho_gg
    rates = np.zeros((3, 3))
    rates[1:, 1:] = [[gamma0, cross], [cross, gamma0]]
    eye = np.eye(3)
    values, vectors = np.linalg.eigh(
        -0.5 * (np.kron(rates, eye) + np.kron(eye, rates.T))
    )
    jumps = rates.T.reshape(9).dot(vectors)
    # rho(0) = |e1><e1| is entry 4 of vec(rho)
    amps = vectors[4]

    times = np.arange(2.0, 402.0, 2.0)
    mu_t = np.outer(times, values)
    rho = (np.exp(mu_t) * amps).dot(vectors.T)
    # int_0^t e^{mu s} ds = t * expm1(mu t) / (mu t), and t where mu = 0
    exprel = np.divide(np.expm1(mu_t), mu_t,
                       out=np.ones_like(mu_t), where=mu_t != 0.0)
    rho[:, 0] += (times[:, None] * exprel * amps).dot(jumps)
    rho = rho.reshape(times.size, 3, 3)

    plus = np.exp(-0.5 * g_plus * times)
    minus = np.exp(-0.5 * g_minus * times)
    psi = 0.5 * np.stack([plus + minus, plus - minus], axis=1)
    diff = rho[:, 1:, 1:] - psi[:, :, None] * psi[:, None, :]
    distance = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=1)
    trace = np.trace(rho, axis1=1, axis2=2)
    return NoJumpReport(
        gamma_plus=g_plus,
        gamma_minus=g_minus,
        max_trace_distance=float(np.max(distance)),
        max_trace_error=float(np.max(np.abs(trace - 1.0))),
    )
