"""Shared numerical kernels.

Uniform time/frequency grids, adaptive Gauss-Kronrod quadrature for
complex-valued integrands, an exact exponential integrator for driven
decay, the scaled complementary error function, Richardson-extrapolated
finite differences, and trapezoidal Fourier transforms between the grids.

All quantities are dimensionless: times in units of the inverse coupling
rate, angular frequencies in units of the coupling rate.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erfcx as _erfcx

from .errors import EdgeLeakage, GridMismatch, InvalidInterval, NonConvergence

__all__ = [
    "Grid",
    "FrequencyGrid",
    "integrate_adaptive",
    "integrate_real_line",
    "evolve_driven_decay",
    "scaled_erfc",
    "central_derivative",
    "discrete_fourier",
    "inverse_discrete_fourier",
    "trapezoid",
    "cumulative_trapezoid",
    "inner_product",
    "norm_sq",
]

EDGE_TOL = 1e-8


@dataclass(frozen=True)
class Grid:
    """Uniform time grid with n_points nodes spanning [t_start, t_end]."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError(f"require t_start < t_end, got [{self.t_start}, {self.t_end}]")
        if self.n_points < 2:
            raise ValueError(f"require n_points >= 2, got {self.n_points}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        """Index of the node at time t; raises ValueError if t is off-node."""
        idx = round((t - self.t_start) / self.dt)
        if idx < 0 or idx >= self.n_points or abs(self.t_start + idx * self.dt - t) > tol * max(1.0, self.dt):
            raise ValueError(f"t={t} is not a node of {self}")
        return int(idx)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform angular-frequency grid with n_points nodes."""

    omega_min: float
    omega_max: float
    n_points: int

    def __post_init__(self):
        if not self.omega_min < self.omega_max:
            raise ValueError(f"require omega_min < omega_max, got [{self.omega_min}, {self.omega_max}]")
        if self.n_points < 2:
            raise ValueError(f"require n_points >= 2, got {self.n_points}")

    @property
    def domega(self) -> float:
        return (self.omega_max - self.omega_min) / (self.n_points - 1)

    def omegas(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.n_points)

    @property
    def symmetric(self) -> bool:
        return abs(self.omega_min + self.omega_max) <= 1e-12 * max(1.0, abs(self.omega_max))


# 15-point Kronrod extension of 7-point Gauss (positive half; standard constants).
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_GK_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])          # 15 nodes, ascending
_GK_WEIGHTS = np.concatenate([_WK[:-1], _WK[::-1]])
_GAUSS_MASK = np.zeros(15)
_GAUSS_MASK[1:-1:2] = 1.0                                   # Gauss nodes sit at odd Kronrod slots
_GAUSS_WEIGHTS = np.concatenate([_WG[:-1], _WG[::-1]]) * 1.0


_HUGE_ERR = 1e300


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel; returns (kronrod, |kronrod - gauss|)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(f(mid + half * _GK_NODES))
    if not np.all(np.isfinite(fx)):
        # non-finite samples: force this panel to keep splitting
        return 0.0 + 0.0j, _HUGE_ERR
    kron = half * np.sum(_GK_WEIGHTS * fx)
    gauss = half * np.sum(_GAUSS_WEIGHTS * fx[1:-1:2])
    return kron, abs(kron - gauss)


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                       rel_tol: float = 1e-10, max_depth: int = 60, points=()) -> complex:
    """Adaptively integrate a complex-valued f over [a, b].

    Globally adaptive bisection with an embedded Gauss(7)/Kronrod(15) rule
    pair; the panel with the largest error estimate is split first.  The
    integrand is called with an ndarray of nodes and must return values of
    the same shape.

    Args:
        f: vectorized integrand, real or complex.
        a, b: interval endpoints, a < b.
        rel_tol: requested relative error, in (0, 1e-2].
        max_depth: bisection depth bound per panel.
        points: breakpoints; the adaptive start is one panel per piece of
            [a, b] between them (as in QUADPACK's qagp), so features the
            first nodes would straddle are still found.

    Returns:
        The integral estimate as a complex number.

    Raises:
        InvalidInterval: if a >= b.
        NonConvergence: if the tolerance cannot be met within max_depth.
    """
    if not a < b:
        raise InvalidInterval(f"require a < b, got [{a}, {b}]")
    if not 0.0 < rel_tol <= 1e-2:
        raise ValueError(f"rel_tol must lie in (0, 1e-2], got {rel_tol}")

    # heap of (-error, depth, a, b, value); finite errors tracked by a running
    # sum, non-finite panels (sentinel error) by a separate count so the huge
    # sentinel cannot absorb the small terms.  Each pass adds new panels (first
    # the pieces between breakpoints), retires their parent and splits the worst.
    edges = [a, *sorted({float(x) for x in points if a < x < b}), b]
    panels, depth, pval = list(zip(edges[:-1], edges[1:])), 0, 0.0
    heap = []
    total = total_err = l1 = 0.0
    n_huge = 0
    eps = np.finfo(float).eps

    for _ in range(20001):
        for qa, qb in panels:
            k, e = _gk15(f, qa, qb)
            total += k
            l1 += abs(k)
            if e < _HUGE_ERR:
                total_err += e
            else:
                n_huge += 1
            heapq.heappush(heap, (-e, depth, qa, qb, k))
        total -= pval
        l1 -= abs(pval)
        target = max(rel_tol * abs(total), 8.0 * eps * l1, 1e-300)
        if n_huge == 0 and total_err <= target:
            return complex(total)
        neg_err, depth, pa, pb, pval = heapq.heappop(heap)
        if depth >= max_depth:
            raise NonConvergence(
                f"panel [{pa}, {pb}] at depth {depth} still dominates the error "
                f"({-neg_err:.3e} vs target {target:.3e})"
            )
        if -neg_err < _HUGE_ERR:
            total_err -= -neg_err
        else:
            n_huge -= 1
        pm = 0.5 * (pa + pb)
        panels, depth = ((pa, pm), (pm, pb)), depth + 1
    raise NonConvergence(f"panel budget exhausted on [{a}, {b}]")


def integrate_real_line(f, center: float = 0.0, scale: float = 1.0,
                        rel_tol: float = 1e-10, points=()) -> complex:
    """Integrate f over the whole real line via the substitution x = c + s*tan(u).

    The integrand must decay at least like 1/x^2 for the transformed
    integrand to vanish at the endpoints.  points are breakpoints in x,
    passed to integrate_adaptive through the same substitution.
    """
    def g(u):
        x = center + scale * np.tan(u)
        return f(x) * scale / np.cos(u) ** 2

    half_pi = 0.5 * np.pi
    breaks = np.arctan((np.asarray(points, dtype=float) - center) / scale)
    return integrate_adaptive(g, -half_pi, half_pi, rel_tol=rel_tol, points=breaks)


def _step_coefficients(z: complex):
    """Weights for one exact exponential step with a piecewise-linear drive.

    psi(t+h) = e^{-z} psi(t) + h*(c0*d_n + c1*d_{n+1}) with z = rate*h;
    c0 = (1-(1+z)e^{-z})/z^2 and c1 = (z-1+e^{-z})/z^2, evaluated by series
    for small |z| to avoid cancellation.
    """
    if abs(z) < 0.5:
        c0 = 0.0 + 0.0j
        c1 = 0.0 + 0.0j
        term = 1.0 + 0.0j
        fact = 2.0  # (m+2)! running value starts at 2! for m=0
        for m in range(16):
            c1 += term / fact
            c0 += term * (m + 1) / fact
            term *= -z
            fact *= (m + 3)
        return np.exp(-z), c0, c1
    ez = np.exp(-z)
    c0 = (1.0 - (1.0 + z) * ez) / z**2
    c1 = (z - 1.0 + ez) / z**2
    return ez, c0, c1


def evolve_driven_decay(rate: complex, drive: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve psi' = -rate*psi + drive(t), psi(t_start) = 0, on the grid.

    The propagator over each step is exact; the drive is interpolated
    linearly between its samples, giving a globally second-order method.

    Raises:
        GridMismatch: if drive has the wrong number of samples.
    """
    drive = np.asarray(drive, dtype=complex)
    if drive.shape != (grid.n_points,):
        raise GridMismatch(f"drive has shape {drive.shape}, grid has {grid.n_points} nodes")
    if rate.real < 0:
        raise ValueError(f"require Re(rate) >= 0, got {rate}")
    from scipy.signal import lfilter  # here, not at the top: importing scipy.signal takes ~1 s

    h = grid.dt
    a, c0, c1 = _step_coefficients(complex(rate) * h)
    u = np.empty(grid.n_points, dtype=complex)
    u[0] = 0.0
    u[1:] = h * (c0 * drive[:-1] + c1 * drive[1:])
    # psi_n = a * psi_{n-1} + u_n is a first-order linear recurrence
    return lfilter(np.array([1.0 + 0.0j]), np.array([1.0, -a], dtype=complex), u)


def scaled_erfc(x):
    """exp(x^2) * erfc(x), overflow-free for large positive x."""
    return _erfcx(x)


def central_derivative(f: Callable[[float], float], x: float, h: float) -> float:
    """Richardson-extrapolated central difference, O(h^4)."""
    if h <= 0:
        raise ValueError(f"require h > 0, got {h}")
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _trapezoid_weights(n: int, dx: float) -> np.ndarray:
    w = np.full(n, dx)
    w[0] = 0.5 * dx
    w[-1] = 0.5 * dx
    return w


def trapezoid(y: np.ndarray, dx: float) -> complex:
    return complex(np.trapezoid(y, dx=dx))


def cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative trapezoid with the same length as y; first entry 0."""
    out = np.empty(len(y), dtype=np.result_type(y, float))
    out[0] = 0.0
    np.cumsum(0.5 * dx * (y[1:] + y[:-1]), out=out[1:])
    return out


def inner_product(u: np.ndarray, v: np.ndarray, dx: float,
                  jump_u: complex = 0.0, jump_v: complex = 0.0) -> complex:
    """Trapezoidal L2 inner product <u|v> = integral of conj(u)*v.

    Functions with a shared step discontinuity must store the mean of the
    one-sided limits at the jump node; the (dx/4)*conj(J_u)*J_v term then
    restores second-order accuracy.  J is the right-limit minus left-limit
    jump of each function.
    """
    val = trapezoid(np.conj(u) * v, dx)
    if jump_u != 0.0 and jump_v != 0.0:
        val += 0.25 * dx * np.conj(jump_u) * jump_v
    return val


def norm_sq(u: np.ndarray, dx: float, jump: complex = 0.0) -> float:
    return inner_product(u, u, dx, jump, jump).real


# nodes per block of the weighted products; bounds their temporaries at
# rows * _NODE_BLOCK complex values
_NODE_BLOCK = 8192


def _weighted_gram(u: np.ndarray, v: np.ndarray, dx: float, jumps_u, jumps_v) -> np.ndarray:
    """Matrix form of inner_product: entry [i, j] is <u_i|v_j>.

    u holds one function per row; v is a single function or one per row,
    giving a vector or a matrix.  The trapezoid weights are dx everywhere
    with the endpoint half-weights removed as a rank-2 correction, and the
    onset jumps add the rank-1 term (dx/4) conj(J_u) J_v, which vanishes
    wherever either jump is zero.  Summed block by block over nodes so that
    no full-size conjugate or weighted copy is made; real rows of u are used
    as they are, without the copy that conjugating them would make.
    """
    n = u.shape[-1]
    conj = np.conj if np.iscomplexobj(u) else np.asarray
    acc = 0.0
    for s in range(0, n, _NODE_BLOCK):
        acc = acc + conj(u[:, s:s + _NODE_BLOCK]) @ v[..., s:s + _NODE_BLOCK].T
    ends = [0, n - 1]
    acc = acc - 0.5 * (conj(u[:, ends]) @ v[..., ends].T)
    return dx * (acc + 0.25 * np.multiply.outer(np.conj(jumps_u), jumps_v))


def _transform(samples: np.ndarray, t: np.ndarray, omegas: np.ndarray,
               dx: float, sign: float) -> np.ndarray:
    w = _trapezoid_weights(len(t), dx)
    s = w * samples
    out = np.empty(len(omegas), dtype=complex)
    block = 256
    for i in range(0, len(omegas), block):
        kernel = np.exp(sign * 1j * np.outer(omegas[i:i + block], t))
        out[i:i + block] = kernel @ s
    return out / np.sqrt(2.0 * np.pi)


def discrete_fourier(samples: np.ndarray, grid: Grid, freq) -> np.ndarray:
    """Forward transform (1/sqrt(2 pi)) * integral of samples(t) e^{+i w t} dt.

    Evaluated by the trapezoid rule at each requested angular frequency.
    freq may be a FrequencyGrid or an array of frequencies.  Warns with
    EdgeLeakage when the samples have not decayed below 1e-8 at the grid
    boundary, since the truncated transform is then biased.
    """
    samples = np.asarray(samples)
    if samples.shape != (grid.n_points,):
        raise GridMismatch(f"samples have shape {samples.shape}, grid has {grid.n_points} nodes")
    edge = max(abs(samples[0]), abs(samples[-1]))
    if edge > EDGE_TOL:
        warnings.warn(f"boundary magnitude {edge:.2e} exceeds {EDGE_TOL:.0e}", EdgeLeakage)
    omegas = freq.omegas() if isinstance(freq, FrequencyGrid) else np.asarray(freq, dtype=float)
    scalar = omegas.ndim == 0
    out = _transform(samples, grid.times(), np.atleast_1d(omegas), grid.dt, +1.0)
    return out[0] if scalar else out


def inverse_discrete_fourier(spectrum: np.ndarray, freq: FrequencyGrid, grid: Grid) -> np.ndarray:
    """Conjugate transform back to the time grid (trapezoid over frequency)."""
    spectrum = np.asarray(spectrum)
    if spectrum.shape != (freq.n_points,):
        raise GridMismatch(f"spectrum has shape {spectrum.shape}, grid has {freq.n_points} nodes")
    return _transform(spectrum, freq.omegas(), grid.times(), freq.domega, -1.0)
