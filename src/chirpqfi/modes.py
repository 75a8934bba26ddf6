"""Mode-resolved measurements on the outgoing single-photon wavepacket.

Builds orthonormal temporal-mode bases (Hermite-Gauss, or Gram-Schmidt
continuations seeded by the pulse itself) as real profiles times one common
phase, projects the outgoing amplitudes and their coupling derivatives onto
them, and evaluates the classical Fisher information of photon counting in
those modes, of the noise-robust two-outcome measurement, and of the
symmetric-logarithmic-derivative eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AsymmetricPulse,
    DegenerateSeed,
    GridMismatch,
    GridTooNarrow,
    SingularOutcome,
    TruncationNotConverged,
    ZeroInformation,
)
from .dynamics import AmplitudePair, OutgoingWavepacket
from .numerics import _NODE_BLOCK, Grid, _weighted_gram, inner_product, norm_sq
from .pulses import PulseSpec, _oscillation_factor, _support_onset
# unused here, but perfbench/spans.py wraps modes.sample_pulse by name
from .pulses import sample_pulse  # noqa: F401

__all__ = [
    "HermiteGauss",
    "GramSchmidtFromEnvelope",
    "ModeBasis",
    "ModalSet",
    "modal_grid",
    "build_basis",
    "project_amplitudes",
    "outcome_distribution",
    "mode_cfi",
    "conditional_cumulative_ratio",
    "optimal_two_outcome_povm",
    "sld_eigenbasis",
    "modal_qfi_check",
]

PROB_FLOOR = 1e-14
DERIV_FLOOR = 1e-12
PIVOT_FLOOR = 1e-6


@dataclass(frozen=True)
class HermiteGauss:
    """Hermite-Gauss temporal modes whose ground mode has duration `duration`."""

    duration: float


@dataclass(frozen=True)
class GramSchmidtFromEnvelope:
    """Basis seeded by the (modulated) pulse itself and completed by
    polynomial multiples of its envelope."""

    spec: PulseSpec


@dataclass(frozen=True)
class ModeBasis:
    """Orthonormal mode functions g_j = r_j(t) e^{i phi(t)}, j = 0..J, on a common grid.

    profiles holds the real profiles r_j, one per row (float64), and phase
    the common unit phase e^{i phi} of the pulse modulation, or None for
    Hermite-Gauss and unmodulated bases, whose functions are real.  As
    |e^{i phi}| = 1, the profiles have the inner products of the functions,
    so they are orthonormal themselves.  profile_jumps records each
    profile's step at the pulse onset node (zero for smooth families); since
    phi(0) = 0 these are also the steps of the g_j.  Inner products against
    stepped functions use them to stay second-order accurate.
    """

    grid: Grid
    profiles: np.ndarray
    profile_jumps: np.ndarray
    kind: object
    onset_index: Optional[int] = None
    phase: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return self.profiles.shape[0]

    @property
    def functions(self) -> np.ndarray:
        """The complex mode functions g_j, one per row, as a new array."""
        if self.phase is None:
            return self.profiles.astype(complex)
        return self.profiles * self.phase

    @property
    def jumps(self) -> np.ndarray:
        """The onset steps of the g_j, as a complex array."""
        return self.profile_jumps.astype(complex)

    def gram_defect(self) -> float:
        """max |<g_i|g_j> - delta_ij| over the basis."""
        gram = _weighted_gram(self.profiles, self.profiles, self.grid.dt,
                              self.profile_jumps, self.profile_jumps)
        return float(np.max(np.abs(gram - np.eye(self.size))))


@dataclass(frozen=True)
class ModalSet:
    """Projections of the outgoing wavepacket onto a mode basis.

    amplitudes[j] and derivatives[j] are the unnormalized modal amplitude
    and its coupling derivative; p_loss is the vacuum-outcome probability
    pair inferred from the same wavepacket.
    """

    amplitudes: np.ndarray
    derivatives: np.ndarray
    p_loss: AmplitudePair

    @property
    def size(self) -> int:
        return len(self.amplitudes)


def _hermite_gauss_functions(t: np.ndarray, duration: float, count: int) -> np.ndarray:
    """Orthonormal Hermite-Gauss functions via the stable two-term recurrence,
    one per row of a float64 array."""
    x = t / (math.sqrt(2.0) * duration)
    scale = (math.sqrt(2.0) * duration) ** -0.5
    out = np.empty((count, len(t)))
    prev = np.zeros_like(x)
    cur = math.pi ** -0.25 * np.exp(-0.5 * x**2)
    for n in range(count):
        out[n] = scale * cur
        nxt = x * math.sqrt(2.0 / (n + 1)) * cur - math.sqrt(n / (n + 1.0)) * prev
        prev, cur = cur, nxt
    return out


def _laguerre_functions(t: np.ndarray, duration: float, count: int) -> np.ndarray:
    """Orthonormal Laguerre functions L_n(t/T) e^{-t/2T} / sqrt(T) on t >= 0,
    one per row of a float64 array."""
    x = np.clip(t / duration, 0.0, None)
    damp = np.where(t >= 0.0, np.exp(-0.5 * x) / math.sqrt(duration), 0.0)
    out = np.empty((count, len(t)))
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for n in range(count):
        out[n] = damp * cur
        nxt = ((2 * n + 1 - x) * cur - n * prev) / (n + 1)
        prev, cur = cur, nxt
    return out


def modal_grid(spec: PulseSpec, truncation: int, kind=None, tail: float = 60.0) -> Grid:
    """Grid wide and fine enough for the pulse dynamics and the mode family.

    Extends the dynamics window to the classical support of the highest
    requested mode: about sqrt(2)T*sqrt(2J+1) for Hermite-Gauss modes and
    4JT for Laguerre continuations of exponential envelopes.
    """
    T = spec.gamma_t
    hg_T = kind.duration if isinstance(kind, HermiteGauss) else T
    ppu = int(math.ceil(400 * _oscillation_factor(spec)))
    dt = min(1.0, T) / ppu
    if spec.envelope == "gaussian" or isinstance(kind, HermiteGauss):
        ext = math.sqrt(2.0) * hg_T * (math.sqrt(2.0 * truncation + 1.0) + 3.0) + 2.0
    else:
        ext = T * (4.0 * truncation + 14.0)
    if spec.envelope == "gaussian":
        left, right = max(10.0 * T, ext), max(10.0 * T + tail, ext)
    else:
        left = max(1.0, ext) if isinstance(kind, HermiteGauss) else 1.0
        right = max(12.0 * T + tail, ext)
    n_left = int(math.ceil(left / dt - 1e-12))
    n_right = int(math.ceil(right / dt - 1e-12))
    return Grid(-n_left * dt, n_right * dt, n_left + n_right + 1)


def _failed_pivot(gram: np.ndarray) -> int:
    """Pivot at which the Cholesky factorization of gram, known to fail, breaks down."""
    for k in range(1, len(gram)):
        try:
            np.linalg.cholesky(gram[:k, :k])
        except np.linalg.LinAlgError:
            return k - 1
    return len(gram) - 1


def _orthonormalize(funcs: np.ndarray, jumps: np.ndarray, dx: float) -> tuple:
    """CholeskyQR2 in the trapezoidal inner product; works in place.

    funcs (real or complex, one candidate per row) and jumps are overwritten
    with the orthonormal functions and their jumps, which are also returned.
    Each of the two passes factors the Gram matrix as L L^H and replaces
    the rows by L^-1 times them; the result is the Gram-Schmidt basis of
    the candidates in their order.  The second pass removes the rounding
    left by the first, which suffices while cond(funcs) stays below about
    1e8 (the inverse square root of the unit roundoff).

    Raises:
        DegenerateSeed: if the factorization fails or a pivot |L_ii| falls
            below 1e-6 times the norm of candidate i.
    """
    for _ in range(2):
        # the transposed Gram matrix conj(<f_i|f_j>) = <f_j|f_i> factors so
        # that L^-1 acts on the rows without conjugation
        gram = _weighted_gram(funcs, funcs, dx, jumps, jumps).T
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise DegenerateSeed(f"pivot {_failed_pivot(gram)} is not positive: "
                                 f"the candidates are linearly dependent") from None
        pivots = np.abs(np.diag(factor))
        norms = np.sqrt(np.abs(np.diag(gram)))
        small = pivots < PIVOT_FLOOR * norms
        if np.any(small):
            i = int(np.argmax(small))
            raise DegenerateSeed(f"pivot {i} is {pivots[i]:.2e}, below {PIVOT_FLOOR:.0e} "
                                 f"times its candidate norm {norms[i]:.2e}")
        transform = np.linalg.inv(factor)
        for s in range(0, funcs.shape[1], _NODE_BLOCK):
            funcs[:, s:s + _NODE_BLOCK] = transform @ funcs[:, s:s + _NODE_BLOCK]
        jumps[:] = transform @ jumps
    return funcs, jumps


def build_basis(kind, truncation: int, grid: Grid) -> ModeBasis:
    """Orthonormal basis g_0..g_J of the requested kind on the grid.

    Every candidate is a real profile times one common phase: Hermite-Gauss
    functions (for HermiteGauss kinds and Gaussian envelopes) or Laguerre
    functions (exponential envelopes), times the pulse's e^{i phi(t)} for
    GramSchmidtFromEnvelope.  There the first profile is the real envelope
    itself, with the midpoint value at an onset step, so g_0 is the
    normalized incoming pulse, and the continuation functions are
    orthonormal-polynomial multiples of the envelope carrying the same
    modulation phase.  The phase changes no inner product, so only the real
    profiles are orthonormalized, in float64; they are already
    near-orthonormal and the Gram-Schmidt pass only absorbs the
    discretization residue.

    Raises:
        GridTooNarrow: if the grid cannot resolve the highest mode, or misses
            the pulse support or its onset node.
        DegenerateSeed: if a pivot collapses during orthogonalization.
    """
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    count = truncation + 1
    t = grid.times()
    onset_index = None
    phase = None
    if isinstance(kind, HermiteGauss):
        duration, envelope = kind.duration, "gaussian"
    elif isinstance(kind, GramSchmidtFromEnvelope):
        spec = kind.spec
        duration, envelope = spec.gamma_t, spec.envelope
        onset_index = _support_onset(spec, grid)
        if spec.modulation != "none":
            phase = np.exp(1j * spec.phase_value(t))
    else:
        raise TypeError(f"unknown basis kind {kind!r}")
    if envelope == "gaussian":
        node_spacing = math.sqrt(2.0) * duration * math.pi / math.sqrt(2.0 * truncation + 1.0)
        if grid.dt > node_spacing / 10.0:
            raise GridTooNarrow(f"dt={grid.dt} too coarse for mode {truncation}")
        profiles = _hermite_gauss_functions(t, duration, count)
        jumps = np.zeros(count)
    else:
        profiles = _laguerre_functions(t, duration, count)
        # midpoint convention at the step, matching the sampled pulse
        jumps = np.full(count, duration ** -0.5)
        profiles[:, onset_index] = 0.5 * jumps
    profiles, jumps = _orthonormalize(profiles, jumps, grid.dt)
    return ModeBasis(grid, profiles, jumps, kind, onset_index, phase)


def project_amplitudes(outgoing: OutgoingWavepacket, basis: ModeBasis) -> ModalSet:
    """Modal amplitudes b_j = <g_j|psi> and derivatives d_j = <g_j|dpsi>.

    With g_j = r_j e^{i phi}, b_j = <r_j|e^{-i phi} psi>: the phase turns the
    two wavepacket vectors once, and one real matrix product against their
    real and imaginary parts gives b and d together.  The vacuum probability
    and its derivative are taken from the same wavepacket (p = 1 - <psi|psi>,
    dp = -2 Re<psi|dpsi>), so the outcome distributions built from the
    result are normalized by construction.
    """
    if basis.grid != outgoing.grid:
        raise GridMismatch("basis and wavepacket live on different grids")
    dx = outgoing.grid.dt
    pair = np.stack([outgoing.values, outgoing.d_values])
    if basis.phase is not None:
        pair *= np.conj(basis.phase)
    # four real rows, so that the profiles are never promoted to complex;
    # phi(0) = 0 leaves the onset step of psi unturned
    jump = complex(outgoing.jump)
    proj = _weighted_gram(basis.profiles, np.concatenate([pair.real, pair.imag]), dx,
                          basis.profile_jumps, np.array([jump.real, 0.0, jump.imag, 0.0]))
    b = proj[:, 0] + 1j * proj[:, 2]
    d = proj[:, 1] + 1j * proj[:, 3]
    nn = norm_sq(outgoing.values, dx, outgoing.jump)
    dp = -2.0 * inner_product(outgoing.values, outgoing.d_values, dx, outgoing.jump, 0.0).real
    return ModalSet(b, d, AmplitudePair(1.0 - nn, dp))


def outcome_distribution(modal: ModalSet, truncation: int = None):
    """Probabilities and derivatives of the (vacuum, modes 0..J, remainder) POVM.

    Both vectors are exact partitions: probabilities sum to 1 and
    derivatives to 0 by construction of the remainder outcome.
    """
    if truncation is None:
        truncation = modal.size - 1
    if not 0 <= truncation < modal.size:
        raise ValueError(f"truncation {truncation} outside the projected range")
    b = modal.amplitudes[: truncation + 1]
    d = modal.derivatives[: truncation + 1]
    q = np.abs(b) ** 2
    dq = 2.0 * np.real(np.conj(b) * d)
    p, dp = modal.p_loss.p, modal.p_loss.dp
    remainder = max(1.0 - p - q.sum(), 0.0)
    probs = np.concatenate([[p], q, [remainder]])
    derivs = np.concatenate([[dp], dq, [-(dp + dq.sum())]])
    return probs, derivs


def mode_cfi(probs: np.ndarray, derivs: np.ndarray) -> float:
    """Classical Fisher information of a discrete outcome distribution.

    Outcomes with probability below 1e-14 contribute zero provided their
    derivative is also negligible; otherwise the model is singular.
    """
    probs = np.asarray(probs, dtype=float)
    derivs = np.asarray(derivs, dtype=float)
    live = probs > PROB_FLOOR
    dead_with_slope = ~live & (np.abs(derivs) >= DERIV_FLOOR)
    if np.any(dead_with_slope):
        i = int(np.argmax(dead_with_slope))
        raise SingularOutcome(f"outcome {i}: p={probs[i]:.3e} with dp={derivs[i]:.3e}")
    return float(np.sum(derivs[live] ** 2 / probs[live]))


def conditional_cumulative_ratio(modal: ModalSet, qfi: float) -> np.ndarray:
    """Running information of mode counting given photon survival, over qfi.

    Entry j sums, over modes 0..j, the Fisher information of the conditional
    probability |b_j|^2 / (1-p) of each mode; modes with conditional
    probability below 1e-14 contribute zero.
    """
    p, dp = modal.p_loss.p, modal.p_loss.dp
    b, d = modal.amplitudes, modal.derivatives
    surv = 1.0 - p
    cond_p = np.abs(b) ** 2 / surv
    cond_dp = 2.0 * np.real(np.conj(b) * d) / surv + np.abs(b) ** 2 * dp / surv**2
    live = cond_p > PROB_FLOOR
    return np.cumsum(np.where(live, cond_dp**2 / np.where(live, cond_p, 1.0), 0.0)) / qfi


class _StateCoordinates:
    """Unnormalized state/derivative pair with a matching inner product.

    Wraps either modal coordinates (plain dot products; needs a basis that
    has captured the state) or grid samples (trapezoidal inner products
    with the onset-jump correction).
    """

    def __init__(self, state, d_state, inner, jump_state=0.0):
        self.state = state
        self.d_state = d_state
        self.inner = inner
        self.jump_state = jump_state

    @classmethod
    def from_input(cls, source):
        if isinstance(source, ModalSet):
            return cls(source.amplitudes, source.derivatives,
                       lambda u, v, ju=0.0, jv=0.0: complex(np.vdot(u, v)))
        if isinstance(source, OutgoingWavepacket):
            dx = source.grid.dt

            def inner(u, v, ju=0.0, jv=0.0):
                return inner_product(u, v, dx, ju, jv)

            return cls(source.values, source.d_values, inner, jump_state=source.jump)
        raise TypeError(f"expected ModalSet or OutgoingWavepacket, got {type(source)!r}")

    def normalized(self):
        nn = self.inner(self.state, self.state, self.jump_state, self.jump_state).real
        p = 1.0 - nn
        dp = -2.0 * self.inner(self.state, self.d_state, self.jump_state, 0.0).real
        psi = self.state / math.sqrt(nn)
        j_psi = self.jump_state / math.sqrt(nn)
        dpsi = self.d_state / math.sqrt(nn) + self.state * dp / (2.0 * nn**1.5)
        j_dpsi = self.jump_state * dp / (2.0 * nn**1.5)
        return psi, dpsi, j_psi, j_dpsi, p, dp

    def four_outcome_cfi(self, p, dp, projectors) -> float:
        """Fisher information of {vacuum, v1, v2, remainder} for two
        orthonormal (vector, jump) pairs v1, v2 and vacuum outcome (p, dp)."""
        probs = [p]
        derivs = [dp]
        for v, jv in projectors:
            amp = self.inner(v, self.state, jv, self.jump_state)
            damp = self.inner(v, self.d_state, jv, 0.0)
            probs.append(abs(amp) ** 2)
            derivs.append(2.0 * np.real(np.conj(amp) * damp))
        probs.append(max(1.0 - sum(probs), 0.0))
        derivs.append(-sum(derivs))
        return mode_cfi(np.array(probs), np.array(derivs))


def optimal_two_outcome_povm(source, qfi: float, overlap_tol: float = 1e-6):
    """Noise-robust two-outcome measurement for overlap-free pulse families.

    source is a ModalSet (coordinates in a basis that has captured the
    state and its derivative) or an OutgoingWavepacket (grid samples).
    Returns (phi_plus, phi_minus, cfi): two orthonormal vectors in the same
    representation, built from the normalized state and derivative, and the
    Fisher information of the four-outcome measurement
    {vacuum, phi+, phi-, remainder}, which saturates the information
    whenever the state/derivative overlap vanishes.

    Raises:
        AsymmetricPulse: if |<psi|dpsi>| exceeds overlap_tol.
    """
    coords = _StateCoordinates.from_input(source)
    psi, dpsi, j_psi, j_dpsi, p, dp = coords.normalized()
    inner = coords.inner
    overlap = complex(inner(psi, dpsi, j_psi, j_dpsi))
    if abs(overlap) > overlap_tol:
        raise AsymmetricPulse(f"|<psi|dpsi>| = {abs(overlap):.3e} exceeds {overlap_tol:.0e}")
    q_pure = 4.0 * (inner(dpsi, dpsi, j_dpsi, j_dpsi).real - abs(overlap) ** 2)
    root = math.sqrt(q_pure)
    phi_plus = (1.0 + 1j) * (0.5 * psi + dpsi / root)
    phi_minus = (1.0 - 1j) * (0.5 * psi - dpsi / root)
    j_plus = (1.0 + 1j) * (0.5 * j_psi + j_dpsi / root)
    j_minus = (1.0 - 1j) * (0.5 * j_psi - j_dpsi / root)
    cfi = coords.four_outcome_cfi(p, dp, ((phi_plus, j_plus), (phi_minus, j_minus)))
    return phi_plus, phi_minus, cfi


def sld_eigenbasis(outgoing: OutgoingWavepacket):
    """Optimal projective pair from the symmetric-logarithmic-derivative eigenbasis.

    On the span of the normalized state and its derivative the operator
    reduces to an off-diagonal 2x2 block, so its eigenvectors are
    (psi +- e2)/sqrt(2) with e2 the normalized component of the derivative
    orthogonal to the state.  Works for any pulse, including those with a
    nonzero state/derivative overlap where fixed bases fall short.

    Returns (m_plus, m_minus, cfi): the two grid-sampled projector vectors
    and the Fisher information of {vacuum, m+, m-, remainder}.

    Raises:
        ZeroInformation: if the derivative has no component orthogonal to
            the state.
    """
    coords = _StateCoordinates.from_input(outgoing)
    psi, dpsi, j_psi, j_dpsi, p, dp = coords.normalized()
    ov = coords.inner(psi, dpsi, j_psi, j_dpsi)
    e2 = dpsi - ov * psi
    j_e2 = j_dpsi - ov * j_psi
    eta = math.sqrt(coords.inner(e2, e2, j_e2, j_e2).real)
    if eta < 1e-12:
        raise ZeroInformation(f"orthogonal derivative norm {eta:.3e} below 1e-12")
    e2 /= eta
    j_e2 /= eta
    m_plus = (psi + e2) / math.sqrt(2.0)
    m_minus = (psi - e2) / math.sqrt(2.0)
    j_plus = (j_psi + j_e2) / math.sqrt(2.0)
    j_minus = (j_psi - j_e2) / math.sqrt(2.0)
    cfi = coords.four_outcome_cfi(p, dp, ((m_plus, j_plus), (m_minus, j_minus)))
    return m_plus, m_minus, cfi


def modal_qfi_check(modal: ModalSet, p_loss: AmplitudePair,
                    increment_tol: float = 1e-8) -> float:
    """Total information reassembled purely from modal data.

    4 sum|d_j|^2 - (4/(1-p)) Im(<b|d>)^2 + dp^2/p, which must reproduce the
    frequency-domain value once the modal sums have converged.

    Raises:
        TruncationNotConverged: if the last derivative term still moves the
            sum by more than increment_tol.
    """
    d = modal.derivatives
    total_dd = float(np.sum(np.abs(d) ** 2))
    last = abs(d[-1]) ** 2
    if last > increment_tol * max(1.0, total_dd):
        raise TruncationNotConverged(f"|d_J|^2 = {last:.3e} has not converged")
    p, dp = p_loss.p, p_loss.dp
    im = float(np.imag(np.vdot(modal.amplitudes, d)))
    q = 4.0 * total_dd - 4.0 * im**2 / (1.0 - p)
    if p > PROB_FLOOR:
        q += dp**2 / p
    elif abs(dp) >= DERIV_FLOOR:
        raise SingularOutcome(f"vacuum outcome p={p:.3e} with dp={dp:.3e}")
    return q
