"""Classical and quantum Fisher information for coupling-rate estimation.

The information in the outgoing light splits into a classical part (the
vacuum/photon outcome) and a quantum part (the surviving distorted
wavepacket).  Finite-time values are assembled from time-domain inner
products of the scattering amplitudes; asymptotic values from two spectral
moments of the system response over the pulse spectral density; and two
families of analytic transcriptions serve as cross-checking oracles.

All reported values are dimensionless (coupling-squared times the raw
Fisher information).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModel, NodeMismatch, Underflow, VacuumOnly
from .dynamics import (
    SystemParams,
    Trajectory,
    characteristic_function,
    excited_amplitude,
    loss_probability,
)
from .numerics import (
    Grid,
    cumulative_trapezoid,
    inner_product,
    integrate_adaptive,  # called through this module's name, where perfbench/spans.py times it
    integrate_real_line,
    scaled_erfc,
)
from .pulses import Autocorrelation, PulseSpec, SampledPulse, SpectralDensity, spectral_density

__all__ = [
    "FisherBreakdown",
    "FisherCurve",
    "OverlapReport",
    "classical_fi",
    "pure_qfi",
    "finite_time_curve",
    "finite_time_qfi",
    "asymptotic_qfi",
    "gaussian_closed_forms",
    "exponential_linear_closed_forms",
    "spectral_overlap",
]

P_FLOOR = 1e-14
DP_FLOOR = 1e-12


@dataclass(frozen=True)
class FisherBreakdown:
    """Dimensionless classical and quantum information plus their sum."""

    classical: float
    quantum: float
    total: float
    p_loss: float


@dataclass(frozen=True)
class OverlapReport:
    """State/derivative overlap of the normalized outgoing photon."""

    overlap: complex
    symmetric: bool


@dataclass(frozen=True)
class FisherCurve:
    """Finite-time information contributions over detection time."""

    grid: Grid
    classical: np.ndarray
    quantum: np.ndarray
    total: np.ndarray
    p_loss: np.ndarray

    def at(self, t_detect: float) -> FisherBreakdown:
        i = self.grid.index_of(t_detect)
        return FisherBreakdown(float(self.classical[i]), float(self.quantum[i]),
                               float(self.total[i]), float(self.p_loss[i]))


def classical_fi(p: float, dp: float) -> float:
    """Fisher information (dp)^2 / (p (1-p)) of the two-outcome loss model.

    Returns 0 when the probability and its derivative both vanish at
    machine scale (the physical limit along the family); raises
    DegenerateModel when p(1-p) is not positive (p at or beyond 0 or 1)
    and the derivative survives.
    """
    return float(_classical_info(p, dp))


def _classical_info(p, dp) -> np.ndarray:
    """Elementwise classical information under classical_fi's boundary rule.

    A node with p or 1-p below P_FLOOR carries 0 if |dp| < DP_FLOOR.  A node
    whose p(1-p) is not positive raises DegenerateModel, naming the first
    such node, unless it carries 0 by the first rule.  Every other node,
    a boundary node with a larger derivative included (a lossless pulse
    whose vacuum probability dips through an interference minimum), carries
    dp^2/(p(1-p)).
    """
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    variance = p * (1.0 - p)
    vanishing = ((p < P_FLOOR) | (1.0 - p < P_FLOOR)) & (np.abs(dp) < DP_FLOOR)
    bad = np.flatnonzero(~vanishing & ~(variance > 0.0))
    if bad.size:
        i = bad[0]
        node = f" at node {i}" if p.ndim else ""
        raise DegenerateModel(f"p={p.flat[i]} at boundary with dp={dp.flat[i]}{node}")
    return np.where(vanishing, 0.0, dp * dp / np.where(vanishing, 1.0, variance))


def pure_qfi(state: np.ndarray, d_state: np.ndarray, weight: float,
             jump_state: complex = 0.0) -> float:
    """Quantum contribution of an unnormalized single-photon amplitude.

    state and d_state sample the unnormalized wavepacket and its coupling
    derivative; weight is the grid spacing of the trapezoidal inner
    product.  Returns 4<d|d> - 4|<s|d>|^2 / <s|s>, i.e. the pure-state
    information of the normalized photon rescaled by its survival
    probability.

    Raises:
        VacuumOnly: if the squared norm of the state is below 1e-12.
    """
    nn = inner_product(state, state, weight, jump_state, jump_state).real
    if nn < 1e-12:
        raise VacuumOnly(f"surviving weight {nn} below 1e-12")
    dd = inner_product(d_state, d_state, weight).real
    sd = inner_product(state, d_state, weight)
    return 4.0 * dd - 4.0 * abs(sd) ** 2 / nn


def finite_time_curve(pulse: SampledPulse, params: SystemParams,
                      excited: Trajectory = None) -> FisherCurve:
    """Classical/quantum information versus detection time, on the pulse grid.

    The double time integrals reduce to running trapezoids of fixed
    integrands, so the whole curve costs O(n) after the amplitude solve.
    """
    if excited is None:
        excited = excited_amplitude(pulse, params)
    g = params.coupling
    sg = math.sqrt(g)
    dt = pulse.grid.dt
    loss = loss_probability(pulse, params, excited)
    deriv = excited.value / (2.0 * sg) + sg * excited.d_value
    scattered = pulse.values + sg * excited.value
    dd = cumulative_trapezoid(np.abs(deriv) ** 2, dt).real
    sd = cumulative_trapezoid(np.conj(scattered) * deriv, dt)
    quantum = 4.0 * dd - 4.0 * np.abs(sd) ** 2 / (1.0 - loss.p)
    classical = _classical_info(loss.p, loss.dp)
    scale = g * g
    return FisherCurve(pulse.grid, scale * classical, scale * quantum,
                       scale * (classical + quantum), loss.p)


def finite_time_qfi(pulse: SampledPulse, params: SystemParams,
                    t_detect: float) -> FisherBreakdown:
    """Information breakdown at one detection time (a node of the pulse grid)."""
    curve = finite_time_curve(pulse, params)
    try:
        return curve.at(t_detect)
    except ValueError as exc:
        raise NodeMismatch(str(exc)) from None


def _resolve_density(pulse_spectrum) -> SpectralDensity:
    if isinstance(pulse_spectrum, SpectralDensity):
        return pulse_spectrum
    if isinstance(pulse_spectrum, PulseSpec):
        return spectral_density(pulse_spectrum)
    raise TypeError(f"expected SpectralDensity or PulseSpec, got {type(pulse_spectrum)!r}")


def _line_integral(fn, density: SpectralDensity, params: SystemParams, rel_tol: float) -> complex:
    """Integrate fn(omega) * density(omega) over the line, split at the density's breaks."""
    def integrand(w):
        return fn(np.asarray(w, dtype=float)) * density(w)

    scale = max(density.scale, 0.5 * (1.0 + params.gamma) * params.coupling)
    return integrate_real_line(integrand, center=density.center, scale=scale, rel_tol=rel_tol,
                               points=density.breaks)


# e^{-40} = 4e-18: where the ray integrand's exponent reaches -40 the tail is
# below any requested tolerance
_RAY_EXPONENT = 40.0


def _ray_moments(corr: Autocorrelation, params: SystemParams, rel_tol: float):
    """(m_1, m_2) from the pulse autocorrelation, integrated along a rotated lag ray.

    With a = (G + G_perp)/2, f = sqrt(G) / (a - i(omega - Delta)) is the
    transform of sqrt(G) e^{-(a + i Delta) tau} over tau >= 0, so
    m_1 = sqrt(G) int_0^inf e^{-(a + i Delta) tau} C(tau) d tau and
    m_2 = G int_0^inf tau e^{-(a + i Delta) tau} C(tau) d tau.  The path
    tau = r e^{-i theta sgn k}, theta in (0, pi/4], sweeps no pole of C (it
    sits at i/(2kT), on the other side of the real axis), and at
    theta = pi/4 it turns the chirp e^{-i k tau^2} into the decay
    e^{-|k| r^2}.  For sgn(k) Delta < 0 the linear part of the exponent,
    -(a + 1/2T + i Delta) tau, stops decaying at the angle
    atan2(a + 1/2T, -sgn(k) Delta) < pi/2; theta is then at most half of
    it.  Each moment is integrate_adaptive over r in [0, R], R being where
    the real part of the exponent, -(b r + c r^2), reaches -40.
    """
    g = params.coupling
    s = math.copysign(1.0, corr.k)
    rate = 0.5 * (g + params.gamma_perp) + 1j * params.detuning
    total = rate + corr.rate
    theta = min(0.25 * math.pi, 0.5 * math.atan2(total.real, -s * total.imag))
    turn = cmath.exp(-1j * s * theta)
    b = (total * turn).real
    c = abs(corr.k) * math.sin(2.0 * theta)
    r_max = 2.0 * _RAY_EXPONENT / (b + math.sqrt(b * b + 4.0 * c * _RAY_EXPONENT))

    def kernel(r):
        tau = r * turn
        return np.exp(-rate * tau) * corr(tau) * turn

    m1 = math.sqrt(g) * integrate_adaptive(kernel, 0.0, r_max, rel_tol=rel_tol)
    m2 = g * integrate_adaptive(lambda r: r * turn * kernel(r), 0.0, r_max, rel_tol=rel_tol)
    return m1, m2


def _late_time_terms(pulse_spectrum, params: SystemParams, rel_tol: float):
    """(p, dp, <d|d>, <s|d>) of the late-time state from two spectral moments.

    Every late-time integrand is a polynomial in the Lorentzian response f
    and its conjugate, and f*conj(f) = c (f + conj(f)) with
    c = sqrt(G)/(G + G_perp), so all four reduce to the moments
    m_n = int f^n |xi~|^2 d omega for n = 1, 2.  A density that carries its
    autocorrelation gives them on a rotated lag ray, any other by two
    frequency quadratures.
    """
    density = _resolve_density(pulse_spectrum)
    g = params.coupling
    sg = math.sqrt(g)
    c = sg / (g + params.gamma_perp)

    def response(w):
        return characteristic_function(params, w)[0]

    if density.autocorrelation is not None:
        m1, m2 = _ray_moments(density.autocorrelation, params, rel_tol)
    else:
        m1 = _line_integral(response, density, params, rel_tol)
        m2 = _line_integral(lambda w: response(w) ** 2, density, params, rel_tol)
    A = 2.0 * c * m1.real   # int |f|^2 rho
    B = c * m2 + c * A      # int |f|^2 f rho
    p = params.gamma_perp * A
    dp = params.gamma_perp * (A / g - B.real / sg)
    dd = (4.0 * A - 4.0 * sg * B.real + 2.0 * g * c * c * (m2.real + A)) / (4.0 * g)
    sd = -(2.0 * m1 - sg * m2 - 2.0 * sg * A + g * B) / (2.0 * sg)
    return p, dp, dd, sd


def asymptotic_qfi(pulse_spectrum, params: SystemParams,
                   rel_tol: float = 1e-10) -> FisherBreakdown:
    """Late-time information breakdown from the pulse spectral density.

    pulse_spectrum may be a SpectralDensity or a PulseSpec (in which case
    its density is constructed on the fly).  The vacuum probability, its
    derivative, and the two quantum inner products all follow from two
    spectral moments: two frequency quadratures against |xi~(omega)|^2, or,
    for the chirped exponential, two integrals of its autocorrelation along
    a rotated lag ray.
    """
    p, dp, dd, sd = _late_time_terms(pulse_spectrum, params, rel_tol)
    classical = classical_fi(p, dp)
    quantum = 4.0 * dd - 4.0 * abs(sd) ** 2 / (1.0 - p)
    scale = params.coupling * params.coupling
    return FisherBreakdown(scale * classical, scale * quantum,
                           scale * (classical + quantum), p)


def gaussian_closed_forms(gamma: float, sigma_omega: float) -> FisherBreakdown:
    """Analytic asymptotic breakdown for a real Gaussian pulse of bandwidth sigma_omega.

    Written entirely in terms of the scaled complementary error function so
    the narrowband regime does not overflow.  A quadratically chirped
    Gaussian is covered by passing its enlarged bandwidth.

    Raises:
        Underflow: for sigma_omega below 1e-3, where the expression loses
            all significant digits in double precision.
    """
    if sigma_omega < 1e-3:
        raise Underflow(f"sigma_omega={sigma_omega} below the 1e-3 evaluation floor")
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    s = sigma_omega
    s2pi = math.sqrt(2.0 * math.pi)
    E = scaled_erfc((gamma + 1.0) / (2.0 * math.sqrt(2.0) * s))
    p = s2pi * gamma * E / ((gamma + 1.0) * s)
    n1 = s2pi * (4.0 * gamma * s**2 + (gamma + 1.0) ** 2) * E - 4.0 * (gamma + 1.0) * s
    survivor = (gamma + 1.0) * s - s2pi * gamma * E  # (gamma+1)*s*(1-p)
    if gamma == 0.0:
        classical = 0.0
    else:
        classical = gamma * n1**2 / (16.0 * s2pi * (gamma + 1.0) ** 2 * s**4 * E * survivor)
    n2 = (s2pi * (4.0 * (2.0 * gamma * (gamma + 1.0) + 1.0) * s**2
                  + (2.0 * gamma + 1.0) * (gamma + 1.0) ** 2) * E
          - 4.0 * (gamma + 1.0) * (2.0 * gamma + 1.0) * s)
    quantum = (-(gamma**2) * n1**2 / survivor + 8.0 * s**2 * n2) / (16.0 * (gamma + 1.0) ** 3 * s**5)
    return FisherBreakdown(classical, quantum, classical + quantum, p)


def exponential_linear_closed_forms(gamma: float, gamma_t: float,
                                    delta: float) -> FisherBreakdown:
    """Analytic asymptotic breakdown for the exponential pulse with linear phase.

    gamma_t is the dimensionless duration and delta the effective detuning
    between the pulse center and the resonance (a linear temporal phase and
    a true detuning are interchangeable here).
    """
    if gamma < 0 or gamma_t <= 0:
        raise ValueError(f"require gamma >= 0 and gamma_t > 0, got {gamma}, {gamma_t}")
    g, T, D = gamma, gamma_t, delta
    u = g * T + T + 1.0
    lor = 4.0 * D**2 * T**2 + u**2
    p = 4.0 * g * T * ((g + 1.0) * T + 1.0) / ((g + 1.0) * lor)
    if g == 0.0:
        classical = 0.0
    else:
        num = g * T * (32.0 * D**2 * T**2 * (g + (g + 1.0) ** 2 * T)
                       + 8.0 * (g + (g**2 - 1.0) * T) * u**2) ** 2
        den = 16.0 * (g + 1.0) ** 3 * u * lor**3 * (1.0 - 4.0 * g * T * u / ((g + 1.0) * lor))
        classical = num / den
    num2 = 8.0 * T * (2.0 * g**3 + 4.0 * g**2 + 3.0 * g
                      + (g + 1.0) * T**2 * (2.0 * g**4 + 2.0 * g**3 + g**2 * (8.0 * D**2 + 3.0)
                                            + 8.0 * g * D**2 + 4.0 * D**2 + 1.0)
                      + (4.0 * g**4 + 8.0 * g**3 + 8.0 * g**2 + 4.0 * g + 2.0) * T + 1.0)
    den2 = (g + 1.0) ** 3 * lor * (g + (g + 1.0) * T**2 * (g**2 - 2.0 * g + 4.0 * D**2 + 1.0)
                                   + 2.0 * (g**2 + 1.0) * T + 1.0)
    quantum = num2 / den2
    return FisherBreakdown(classical, quantum, classical + quantum, p)


def spectral_overlap(pulse_spectrum, params: SystemParams,
                     rel_tol: float = 1e-10, tol: float = 1e-8) -> OverlapReport:
    """Overlap of the normalized outgoing photon with its coupling derivative.

    Vanishes exactly for pulses whose spectral density is symmetric about
    the resonance.  Its real part vanishes for any pulse (normalization);
    the moment algebra keeps that identity, so the real part is rounding
    only and does not measure quadrature error.
    """
    p, dp, _, sd = _late_time_terms(pulse_spectrum, params, rel_tol)
    overlap = (sd + 0.5 * dp) / (1.0 - p)
    return OverlapReport(complex(overlap), bool(abs(overlap) < tol))
