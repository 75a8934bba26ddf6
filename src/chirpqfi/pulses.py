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

from .errors import DivergentMoment, GridTooNarrow
from .numerics import FrequencyGrid, Grid, discrete_fourier, norm_sq

__all__ = [
    "PulseSpec",
    "SampledPulse",
    "SpectralDensity",
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
    dt = min(1.0, T) / points_per_unit
    if spec.envelope == "gaussian":
        left, right = 10.0 * T, 10.0 * T + tail
    else:
        left, right = 1.0, 12.0 * T + tail
    n_left = int(math.ceil(left / dt - 1e-12))
    n_right = int(math.ceil(right / dt - 1e-12))
    return Grid(-n_left * dt, n_right * dt, n_left + n_right + 1)


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
    dt = min(1.0, T) / points_per_unit
    if spec.envelope == "gaussian":
        left = right = 10.0 * T
    else:
        left, right = 1.0, 42.0 * T + 2.0
    n_left = int(math.ceil(left / dt - 1e-12))
    n_right = int(math.ceil(right / dt - 1e-12))
    return Grid(-n_left * dt, n_right * dt, n_left + n_right + 1)


def sample_pulse(spec: PulseSpec, grid: Grid) -> SampledPulse:
    """Sample xi(t) on the grid and normalize to unit discrete L2 norm.

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
    t = grid.times()
    values = spec.evaluate(t).astype(complex)
    jump = 0.0 + 0.0j
    onset_index = None
    if spec.onset is not None:
        try:
            onset_index = grid.index_of(spec.onset)
        except ValueError:
            raise GridTooNarrow("step-envelope onset t=0 must coincide with a grid node")
        # store the mean of the one-sided limits at the step
        jump = complex(spec.evaluate(np.array(0.0)))
        values[onset_index] = 0.5 * jump
    nrm = math.sqrt(norm_sq(values, grid.dt, jump))
    return SampledPulse(spec, grid, values / nrm, jump / nrm, onset_index)


def _gaussian_sigma(spec: PulseSpec) -> float:
    """RMS spectral width of the (possibly chirped) Gaussian family."""
    sigma = 1.0 / (2.0 * spec.gamma_t)
    if spec.modulation == "quadratic":
        return math.sqrt(1.0 + 16.0 * spec.k**2 * spec.gamma_t**4) * sigma
    return sigma


def spectrum_closed_form(spec: PulseSpec, omega):
    """Analytic spectral amplitude xi~(omega), or None when no closed form exists.

    Convention: xi~(omega) = (2 pi)^{-1/2} * integral of xi(t) e^{+i omega t} dt,
    so a linear phase alpha*t shifts the unmodulated spectrum to xi~0(omega + alpha).
    Closed forms cover the Gaussian envelope with no/linear/quadratic modulation
    and the exponential envelope with no/linear modulation.
    """
    omega = np.asarray(omega, dtype=float)
    T = spec.gamma_t
    if spec.modulation == "sinusoidal":
        return None
    shift = spec.alpha if spec.modulation == "linear" else 0.0
    w = omega + shift
    if spec.envelope == "gaussian":
        if spec.modulation == "quadratic":
            a = 1.0 / (4.0 * T**2) - 1j * spec.k
            return (2.0 * np.pi * T**2) ** (-0.25) / np.sqrt(2.0 * a) * np.exp(-(w**2) / (4.0 * a))
        return (2.0 * T**2 / np.pi) ** 0.25 * np.exp(-(T**2) * w**2)
    if spec.modulation == "quadratic":
        return None
    return np.sqrt(2.0 * T / np.pi) / (1.0 - 2j * T * w)


@dataclass
class SpectralDensity:
    """|xi~(omega)|^2 as a callable, with hints for quadrature routines.

    support is None for analytic densities valid on the whole line, else
    the (lo, hi) band outside of which the density is treated as zero.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    center: float
    scale: float
    support: Optional[tuple] = None
    closed_form: bool = True

    def __call__(self, omega):
        return self.fn(np.asarray(omega, dtype=float))


def spectral_density(spec: PulseSpec, grid: Grid = None) -> SpectralDensity:
    """Spectral probability density of the pulse.

    Uses the closed form when one exists; otherwise samples the pulse
    (on `grid` or on a spectral default) and squares the trapezoidal
    transform, restricted to a band that contains all non-negligible mass.
    """
    T = spec.gamma_t
    shift = spec.alpha if spec.modulation == "linear" else 0.0
    if spec.envelope == "gaussian" and spec.modulation in ("none", "linear", "quadratic"):
        sigma = _gaussian_sigma(spec)

        def fn(w, _s=sigma, _c=-shift):
            return np.exp(-((w - _c) ** 2) / (2.0 * _s**2)) / (_s * math.sqrt(2.0 * math.pi))

        return SpectralDensity(fn, center=-shift, scale=sigma, support=None)
    if spec.envelope == "exponential" and spec.modulation in ("none", "linear"):

        def fn(w, _T=T, _c=-shift):
            return (2.0 * _T / np.pi) / (1.0 + 4.0 * _T**2 * (w - _c) ** 2)

        return SpectralDensity(fn, center=-shift, scale=1.0 / (2.0 * T), support=None)

    sampled = sample_pulse(spec, grid if grid is not None else spectral_grid(spec))
    if spec.envelope == "gaussian":
        # sidebands at multiples of the modulation frequency, Bessel-suppressed
        half = 10.0 * abs(spec.omega) + 14.0 / (2.0 * T) + 2.0
        center, scale = 0.0, 1.0 / (2.0 * T)
        support = (-half, half)
    else:
        # chirped step pulse: stationary-phase band on one side, power-law tail capped
        chirp_edge = 2.0 * abs(spec.k) * sampled.grid.t_end
        half = chirp_edge + 40.0
        support = (-half, 250.0) if spec.k >= 0 else (-250.0, half)
        center = -np.sign(spec.k) * min(chirp_edge / 4.0, 10.0)
        scale = max(1.0, 1.0 / T)
    fn = _splined_density(sampled, support)
    return SpectralDensity(fn, center=center, scale=scale, support=support, closed_form=False)


def _splined_density(sampled: SampledPulse, support) -> Callable:
    """|xi~|^2 on a dense FFT comb of the grid transform, cubic-splined in between.

    The comb values are the same trapezoidal transform that discrete_fourier
    evaluates (the edge half-weights act on decayed samples); the spline adds
    an O(domega^4) interpolation error, far below the transform's own error.
    """
    from scipy.interpolate import CubicSpline

    grid, values = sampled.grid, sampled.values
    n = grid.n_points
    # generous zero padding keeps the spline interpolation error well below
    # the transform's own discretization error
    pad = 1 << int(np.ceil(np.log2(8 * n)))
    comb = 2.0 * np.pi * np.fft.fftfreq(pad, d=grid.dt)
    # sum_j xi_j e^{+i w t_j} dt = e^{i w t_start} * pad * ifft(xi)[k] * dt
    amp = np.fft.ifft(values, n=pad) * pad * grid.dt / np.sqrt(2.0 * np.pi)
    amp *= np.exp(1j * comb * grid.t_start)
    order = np.argsort(comb)
    comb, dens = comb[order], np.abs(amp[order]) ** 2
    keep = (comb >= support[0] - 1.0) & (comb <= support[1] + 1.0)
    spline = CubicSpline(comb[keep], dens[keep])

    def fn(w, _s=spline, _lo=support[0], _hi=support[1]):
        w = np.atleast_1d(np.asarray(w, dtype=float))
        out = np.zeros_like(w)
        inside = (w >= _lo) & (w <= _hi)
        if np.any(inside):
            out[inside] = np.clip(_s(w[inside]), 0.0, None)
        return out

    return fn


def bandwidth(spec: PulseSpec) -> float:
    """RMS width of |xi~(omega)|^2 about its mean, in units of the coupling rate.

    Raises:
        DivergentMoment: for the exponential envelope (Lorentzian tails).
    """
    if spec.envelope == "exponential":
        raise DivergentMoment("second spectral moment of the exponential envelope diverges")
    if spec.modulation in ("none", "linear", "quadratic"):
        return _gaussian_sigma(spec)
    sigma = 1.0 / (2.0 * spec.gamma_t)
    half = 8.5 * abs(spec.omega) + 14.0 * sigma + 1.0
    n = max(4001, int(40.0 * half / sigma) + 1)
    freq = FrequencyGrid(-half, half, n)
    w = freq.omegas()
    dens = spectral_density(spec)(w)
    total = np.trapezoid(dens, dx=freq.domega)
    mean = np.trapezoid(w * dens, dx=freq.domega) / total
    var = np.trapezoid((w - mean) ** 2 * dens, dx=freq.domega) / total
    return math.sqrt(var)


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
