"""Single-photon pulse envelopes and temporal phase modulations.

A pulse is xi(t) = xi_R(t) * exp(i phi(t)) with a Gaussian or exponential
real envelope and an optional linear, quadratic, or sinusoidal temporal
phase.  Everything is expressed in coupling-rate units: durations as
gamma_t = Gamma*T, frequencies in units of Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import jv

from .errors import DivergentMoment, GridTooNarrow
from .numerics import FrequencyGrid, Grid, discrete_fourier, norm_sq, scaled_erfc

__all__ = [
    "PulseSpec",
    "SampledPulse",
    "SpectralDensity",
    "Autocorrelation",
    "sample_pulse",
    "default_grid",
    "spectral_grid",
    "spectrum_closed_form",
    "spectral_density",
    "bandwidth",
    "spectral_symmetry",
    "pulse_to_config",
    "pulse_from_config",
]

ENVELOPES = ("gaussian", "exponential")
MODULATIONS = ("none", "linear", "quadratic", "sinusoidal")


@dataclass(frozen=True)
class PulseSpec:
    """Pulse envelope family plus one temporal phase modulation.

    envelope: "gaussian" or "exponential".
    gamma_t:  dimensionless duration Gamma*T > 0.
    modulation / alpha / k / omega: phase phi(t) is alpha*t (linear),
        k*t**2 (quadratic, with the coupling frozen at its true value), or
        sin(omega*t) (sinusoidal).  Only the parameter of the active
        modulation is used.
    """

    envelope: str
    gamma_t: float
    modulation: str = "none"
    alpha: float = 0.0
    k: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if self.envelope not in ENVELOPES:
            raise ValueError(f"unknown envelope {self.envelope!r}")
        if self.modulation not in MODULATIONS:
            raise ValueError(f"unknown modulation {self.modulation!r}")
        if not (self.gamma_t > 0 and math.isfinite(self.gamma_t)):
            raise ValueError(f"gamma_t must be positive and finite, got {self.gamma_t}")
        for name in ("alpha", "k", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def envelope_value(self, t):
        """Real envelope xi_R(t)."""
        t = np.asarray(t, dtype=float)
        T = self.gamma_t
        if self.envelope == "gaussian":
            return (2.0 * np.pi * T**2) ** (-0.25) * np.exp(-(t**2) / (4.0 * T**2))
        return np.where(t >= 0.0, np.exp(-np.clip(t, 0.0, None) / (2.0 * T)) / np.sqrt(T), 0.0)

    def phase_value(self, t):
        """Temporal phase phi(t)."""
        t = np.asarray(t, dtype=float)
        if self.modulation == "linear":
            return self.alpha * t
        if self.modulation == "quadratic":
            return self.k * t**2
        if self.modulation == "sinusoidal":
            return np.sin(self.omega * t)
        return np.zeros_like(t)

    def evaluate(self, t):
        """Complex amplitude xi(t), pointwise (no grid conventions applied)."""
        return self.envelope_value(t) * np.exp(1j * self.phase_value(t))

    @property
    def onset(self) -> Optional[float]:
        """Support onset time for envelopes with a step, else None."""
        return 0.0 if self.envelope == "exponential" else None


@dataclass(frozen=True)
class SampledPulse:
    """Pulse amplitudes on a uniform grid, normalized in the discrete L2 sense.

    For the exponential envelope the onset node stores the mean of the
    one-sided limits and `jump` records the step there, so trapezoidal
    functionals of the samples keep second-order accuracy.
    """

    spec: PulseSpec
    grid: Grid
    values: np.ndarray
    jump: complex = 0.0
    onset_index: Optional[int] = None

    def norm_sq(self) -> float:
        return norm_sq(self.values, self.grid.dt, self.jump)

    def spectrum_numeric(self, freq) -> np.ndarray:
        return discrete_fourier(self.values, self.grid, freq)


def _oscillation_factor(spec: PulseSpec) -> float:
    """Extra resolution needed to keep phase-modulation oscillations second-order.

    Scales with the amplitude-weighted instantaneous phase rate: alpha for a
    linear phase, about 4*k*gamma_t across the bright part of a quadratic
    chirp, omega for a sinusoidal one.
    """
    rate = abs(spec.alpha) + 4.0 * abs(spec.k) * spec.gamma_t + abs(spec.omega)
    return max(1.0, rate / 3.0)


def _zero_node_grid(gamma_t: float, points_per_unit: int, left: float, right: float) -> Grid:
    """Grid of spacing min(1, gamma_t)/points_per_unit over [-left, right], with t = 0 on a node."""
    dt = min(1.0, gamma_t) / points_per_unit
    n_left = int(math.ceil(left / dt - 1e-12))
    n_right = int(math.ceil(right / dt - 1e-12))
    return Grid(-n_left * dt, n_right * dt, n_left + n_right + 1)


def default_grid(spec: PulseSpec, tail: float = 60.0, points_per_unit: int = None) -> Grid:
    """Grid covering the pulse support plus a decay tail of `tail` time units.

    The spacing resolves the unit decay time, the pulse duration, and any
    phase-modulation oscillation (at least `points_per_unit` effective nodes
    per relevant scale); t = 0 always falls on a node so step envelopes are
    not smeared.  Step envelopes default to twice the base resolution: their
    onset residue scales like (dt/gamma_t)^2 and peaks near unit duration.
    """
    T = spec.gamma_t
    if points_per_unit is None:
        base = 400 if spec.envelope == "gaussian" else 800
        points_per_unit = int(math.ceil(base * _oscillation_factor(spec)))
    if spec.envelope == "gaussian":
        left, right = 10.0 * T, 10.0 * T + tail
    else:
        left, right = 1.0, 12.0 * T + tail
    return _zero_node_grid(T, points_per_unit, left, right)


def spectral_grid(spec: PulseSpec, points_per_unit: int = None) -> Grid:
    """Grid wide enough that the samples decay below the transform edge tolerance.

    Step envelopes get a finer default spacing: the trapezoid error of the
    transform scales with dt^2 * |omega| * xi(0+), so resolving the onset
    four times harder keeps the closed-form match inside 1e-6 across the
    band where the Lorentzian has appreciable mass.
    """
    T = spec.gamma_t
    if points_per_unit is None:
        points_per_unit = 400 if spec.envelope == "gaussian" else 1600
    if spec.envelope == "gaussian":
        left = right = 10.0 * T
    else:
        left, right = 1.0, 42.0 * T + 2.0
    return _zero_node_grid(T, points_per_unit, left, right)


def _support_onset(spec: PulseSpec, grid: Grid) -> Optional[int]:
    """Check that the grid holds the pulse; return its onset node (None if smooth).

    Raises:
        GridTooNarrow: if the grid misses the required support (within
            +-8 gamma_t of the center for Gaussian envelopes, [0, 12 gamma_t]
            for exponential ones) or, for step envelopes, if the onset does
            not coincide with a grid node.
    """
    T = spec.gamma_t
    if spec.envelope == "gaussian":
        if grid.t_start > -8.0 * T or grid.t_end < 8.0 * T:
            raise GridTooNarrow(
                f"grid [{grid.t_start}, {grid.t_end}] does not cover +-{8.0 * T}"
            )
    else:
        if grid.t_start > 0.0 or grid.t_end < 12.0 * T:
            raise GridTooNarrow(
                f"grid [{grid.t_start}, {grid.t_end}] does not cover [0, {12.0 * T}]"
            )
    if spec.onset is None:
        return None
    try:
        return grid.index_of(spec.onset)
    except ValueError:
        raise GridTooNarrow("step-envelope onset t=0 must coincide with a grid node")


def sample_pulse(spec: PulseSpec, grid: Grid) -> SampledPulse:
    """Sample xi(t) on the grid and normalize to unit discrete L2 norm.

    Raises:
        GridTooNarrow: if the grid misses the pulse support or, for step
            envelopes, the onset node (see _support_onset).
    """
    onset_index = _support_onset(spec, grid)
    values = spec.evaluate(grid.times()).astype(complex)
    jump = 0.0 + 0.0j
    if onset_index is not None:
        # store the mean of the one-sided limits at the step
        jump = complex(spec.evaluate(np.array(0.0)))
        values[onset_index] = 0.5 * jump
    nrm = math.sqrt(norm_sq(values, grid.dt, jump))
    return SampledPulse(spec, grid, values / nrm, jump / nrm, onset_index)


# Jacobi-Anger sidebands of a sinusoidal phase: e^{i sin(x)} = sum_n J_n(1) e^{inx};
# J_16(1) = 7e-19 is below the rounding of J_0(1), so |n| <= 15 is exact in doubles
_SIDEBANDS = np.arange(-15, 16)
_SIDEBAND_WEIGHTS = jv(_SIDEBANDS, 1.0)


def spectrum_closed_form(spec: PulseSpec, omega):
    """Analytic spectral amplitude xi~(omega), for every pulse family.

    Convention: xi~(omega) = (2 pi)^{-1/2} * integral of xi(t) e^{+i omega t} dt,
    so a linear phase alpha*t shifts the unmodulated spectrum to xi~0(omega + alpha).
    A quadratic chirp on the exponential envelope gives
    (2 pi T)^{-1/2} (1/2) sqrt(pi/p) erfcx(q / 2 sqrt(p)) with p = -ik and
    q = 1/2T - i omega, erfcx of a complex argument being the Faddeeva
    function (Poppe & Wijers, ACM TOMS 16, 1990).  A sinusoidal phase
    sin(Omega t) gives the Jacobi-Anger sum sum_n J_n(1) xi~0(omega + n Omega)
    over |n| <= 15.
    """
    omega = np.asarray(omega, dtype=float)
    T = spec.gamma_t
    if spec.modulation == "sinusoidal":
        shifted = omega[..., None] + spec.omega * _SIDEBANDS
        return spectrum_closed_form(PulseSpec(spec.envelope, T), shifted) @ _SIDEBAND_WEIGHTS
    shift = spec.alpha if spec.modulation == "linear" else 0.0
    w = omega + shift
    if spec.envelope == "gaussian":
        if spec.modulation == "quadratic":
            a = 1.0 / (4.0 * T**2) - 1j * spec.k
            return (2.0 * np.pi * T**2) ** (-0.25) / np.sqrt(2.0 * a) * np.exp(-(w**2) / (4.0 * a))
        return (2.0 * T**2 / np.pi) ** 0.25 * np.exp(-(T**2) * w**2)
    if spec.modulation == "quadratic" and spec.k != 0.0:
        root_p = np.sqrt(-1j * spec.k)
        amp = 0.5 * math.sqrt(0.5 / T) / root_p * scaled_erfc((0.5 / T - 1j * w) / (2.0 * root_p))
        far = np.abs(w) * T > 1e14
        if np.any(far):
            # erfcx loses Re z^2 to cancellation out here; the onset term 1/q of
            # the time integral is then exact to double precision (for |k| T^2 < 1e12)
            amp = np.where(far, np.sqrt(2.0 * T / np.pi) / (1.0 - 2j * T * w), amp)
        return amp
    return np.sqrt(2.0 * T / np.pi) / (1.0 - 2j * T * w)


@dataclass(frozen=True)
class Autocorrelation:
    """Pulse autocorrelation C(tau) = int xi(t) conj(xi(t + tau)) dt of the chirped exponential.

    C is the Fourier transform of |xi~(omega)|^2 (Wiener-Khinchin), so it
    carries the same information as the density.  For the exponential
    envelope with phase k t^2 and tau >= 0 it is
    C(tau) = e^{-tau/2T - i k tau^2} / (1 + 2ikT tau), analytic in tau
    except for one pole at tau = i/(2kT).
    """

    gamma_t: float
    k: float

    @property
    def rate(self) -> float:
        """Decay rate 1/2T of |C| along the real lag axis."""
        return 0.5 / self.gamma_t

    def __call__(self, tau):
        tau = np.asarray(tau)
        return np.exp(-(self.rate + 1j * self.k * tau) * tau) / (1.0 + 2j * self.k * self.gamma_t * tau)


@dataclass
class SpectralDensity:
    """|xi~(omega)|^2 as a callable, with hints for quadrature routines.

    center and scale place the whole-line substitution; breaks are
    frequencies (sideband edges) at which quadrature panels start split.
    autocorrelation, when set, is the density's Fourier transform in closed
    form, from which the late-time moments are taken instead.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    center: float
    scale: float
    breaks: tuple = ()
    autocorrelation: Optional[Autocorrelation] = None
    # every density is analytic on the whole line
    closed_form = True

    def __call__(self, omega):
        return self.fn(np.asarray(omega, dtype=float))


def spectral_density(spec: PulseSpec) -> SpectralDensity:
    """Spectral probability density |xi~(omega)|^2 of the pulse, in closed form.

    Normal densities for the Gaussian families, Lorentzians for the unchirped
    exponential ones, |spectrum_closed_form|^2 otherwise; the sidebands of a
    sinusoidal phase, at -n*omega, are each bracketed by breaks, and the
    chirped exponential also carries its autocorrelation.
    """
    T = spec.gamma_t
    shift = spec.alpha if spec.modulation == "linear" else 0.0
    if spec.envelope == "gaussian" and spec.modulation != "sinusoidal":
        sigma = bandwidth(spec)

        def fn(w, _s=sigma, _c=-shift):
            return np.exp(-((w - _c) ** 2) / (2.0 * _s**2)) / (_s * math.sqrt(2.0 * math.pi))

        return SpectralDensity(fn, center=-shift, scale=sigma)
    if spec.envelope == "exponential" and spec.modulation in ("none", "linear") \
            or spec.modulation == "quadratic" and spec.k == 0.0:

        def fn(w, _T=T, _c=-shift):
            return (2.0 * _T / np.pi) / (1.0 + 4.0 * _T**2 * (w - _c) ** 2)

        return SpectralDensity(fn, center=-shift, scale=1.0 / (2.0 * T))

    def fn(w, _spec=spec):
        return np.abs(spectrum_closed_form(_spec, w)) ** 2

    width = 1.0 / (2.0 * T)
    if spec.modulation == "sinusoidal":
        half = min(0.5 * abs(spec.omega), 10.0 * width)
        breaks = sorted({float(-n * spec.omega + side * half)
                         for n in _SIDEBANDS for side in (-1.0, 1.0)})
        return SpectralDensity(fn, center=0.0, scale=width, breaks=tuple(breaks))
    # chirped step pulse: stationary-phase band on the side opposite to k
    center = -math.copysign(min(2.0 * abs(spec.k) * T, 10.0), spec.k)
    return SpectralDensity(fn, center=center, scale=max(1.0, 1.0 / T),
                           autocorrelation=Autocorrelation(T, spec.k))


def bandwidth(spec: PulseSpec) -> float:
    """RMS width of |xi~(omega)|^2 about its mean, in units of the coupling rate.

    A sinusoidal phase sin(Omega t) adds the variance of the instantaneous
    frequency Omega cos(Omega t) over |xi(t)|^2, a normal density of variance
    gamma_t^2: Omega^2 [(1 + e^{-2 Omega^2 T^2})/2 - e^{-Omega^2 T^2}].

    Raises:
        DivergentMoment: for the exponential envelope (Lorentzian tails).
    """
    if spec.envelope == "exponential":
        raise DivergentMoment("second spectral moment of the exponential envelope diverges")
    sigma = 1.0 / (2.0 * spec.gamma_t)
    if spec.modulation == "quadratic":
        return math.sqrt(1.0 + 16.0 * spec.k**2 * spec.gamma_t**4) * sigma
    if spec.modulation != "sinusoidal":
        return sigma
    x = (spec.omega * spec.gamma_t) ** 2
    return math.sqrt(sigma**2 + spec.omega**2 * (0.5 * (1.0 + math.exp(-2.0 * x)) - math.exp(-x)))


def spectral_symmetry(spec: PulseSpec, freq: FrequencyGrid, tol: float = 1e-8,
                      center: float = 0.0) -> bool:
    """Whether |xi~(center+u)|^2 equals |xi~(center-u)|^2 within tol (relative to the peak).

    freq must be a symmetric grid of offsets u.
    """
    if not freq.symmetric:
        raise ValueError("spectral_symmetry requires a symmetric FrequencyGrid")
    u = freq.omegas()
    dens = spectral_density(spec)
    fwd = dens(center + u)
    bwd = dens(center - u)
    peak = float(np.max(fwd))
    return bool(np.max(np.abs(fwd - bwd)) <= tol * max(peak, 1e-300))


_CONFIG_KEYS = ("envelope", "gamma_t", "modulation", "alpha", "k", "omega")


def pulse_to_config(spec: PulseSpec) -> dict:
    """Flat key-value form used by config files and manifests."""
    return {
        "envelope": spec.envelope,
        "gamma_t": repr(spec.gamma_t),
        "modulation": spec.modulation,
        "alpha": repr(spec.alpha),
        "k": repr(spec.k),
        "omega": repr(spec.omega),
    }


def pulse_from_config(config: dict) -> PulseSpec:
    """Inverse of pulse_to_config; unspecified modulation parameters default to 0."""
    unknown = set(config) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown pulse config keys: {sorted(unknown)}")
    missing = [key for key in ("envelope", "gamma_t") if key not in config]
    if missing:
        raise ValueError(f"missing pulse config keys: {missing}")
    return PulseSpec(
        envelope=str(config["envelope"]),
        gamma_t=float(config["gamma_t"]),
        modulation=str(config.get("modulation", "none")),
        alpha=float(config.get("alpha", 0.0)),
        k=float(config.get("k", 0.0)),
        omega=float(config.get("omega", 0.0)),
    )
