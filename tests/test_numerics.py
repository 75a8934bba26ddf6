import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chirpqfi.errors import EdgeLeakage, GridMismatch, InvalidInterval, NonConvergence
from chirpqfi.numerics import (
    FrequencyGrid,
    Grid,
    central_derivative,
    cumulative_trapezoid,
    discrete_fourier,
    evolve_driven_decay,
    inner_product,
    integrate_adaptive,
    integrate_real_line,
    inverse_discrete_fourier,
    norm_sq,
    scaled_erfc,
)
from goldens import SCALED_ERFC


def test_grid_invariants():
    g = Grid(0.0, 1.0, 11)
    assert g.dt == pytest.approx(0.1)
    assert g.index_of(0.3) == 3
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 11)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        g.index_of(0.31)


def test_frequency_grid_symmetry_flag():
    assert FrequencyGrid(-3.0, 3.0, 7).symmetric
    assert not FrequencyGrid(-3.0, 4.0, 7).symmetric


def test_integrate_constant():
    assert integrate_adaptive(lambda x: np.ones_like(x), 0.0, 1.0, 1e-10) == pytest.approx(1.0)


def test_integrate_normalized_gaussian():
    val = integrate_adaptive(lambda x: np.exp(-x**2 / 2) / math.sqrt(2 * math.pi), -40.0, 40.0, 1e-10)
    assert val.real == pytest.approx(1.0, abs=1e-10)


def test_integrate_complex_exponential():
    # antiderivative -i e^{ix} between the endpoints gives exactly 2i
    val = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, math.pi, 1e-10)
    assert val == pytest.approx(2j, abs=1e-10)


def test_integrate_invalid_interval():
    with pytest.raises(InvalidInterval):
        integrate_adaptive(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 0.0, 1.0, rel_tol=0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_nonconvergence_reported_at_depth_bound():
    # non-finite on a subinterval: the offending panels can never settle
    with pytest.raises(NonConvergence):
        integrate_adaptive(lambda x: np.where(x < 0.5, 1.0, np.inf), 0.0, 1.0, 1e-10)


def test_integrate_breakpoints_find_a_narrow_feature():
    # a bump of width 1e-3 at x = 7: no node of the first panel on [-10, 10]
    # comes near it, so the first estimate is 0 with error 0
    def bump(x):
        return np.exp(-(((x - 7.0) / 1e-3) ** 2))

    exact = 1e-3 * math.sqrt(math.pi)
    assert integrate_adaptive(bump, -10.0, 10.0, 1e-10) == 0.0
    found = integrate_adaptive(bump, -10.0, 10.0, 1e-10, points=(6.99, 7.01))
    assert found.real == pytest.approx(exact, rel=1e-10)
    # breakpoints outside the interval are ignored
    f = lambda x: np.exp(-x**2) * np.cos(3 * x)
    assert integrate_adaptive(f, -4.0, 4.0, points=(-5.0, 4.0, 9.0)) == integrate_adaptive(f, -4.0, 4.0)


def test_integrate_real_line_lorentzian():
    val = integrate_real_line(lambda x: 1.0 / (1.0 + x**2), center=0.0, scale=1.0)
    assert val.real == pytest.approx(math.pi, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-2, 2), b=st.floats(-2, 2),
    w1=st.floats(0.3, 3), w2=st.floats(0.3, 3),
)
def test_integrate_linearity(a, b, w1, w2):
    tol = 1e-10
    f = lambda x: np.exp(-x**2) * np.cos(w1 * x)
    g = lambda x: np.exp(-0.5 * x**2) * np.sin(w2 * x) + 0.1 * x**2
    lhs = integrate_adaptive(lambda x: a * f(x) + b * g(x), -8.0, 8.0, tol)
    rhs = a * integrate_adaptive(f, -8.0, 8.0, tol) + b * integrate_adaptive(g, -8.0, 8.0, tol)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 2 * tol * scale


def test_evolve_zero_drive_stays_zero():
    g = Grid(0.0, 10.0, 1001)
    psi = evolve_driven_decay(0.5, np.zeros(1001), g)
    assert np.max(np.abs(psi)) == 0.0


def test_evolve_degenerate_rate_closed_form():
    # rate 1/2 driven by -e^{-t/2}: solution -t e^{-t/2}
    g = Grid(0.0, 30.0, 12001)
    t = g.times()
    psi = evolve_driven_decay(0.5, -np.exp(-t / 2), g)
    exact = -t * np.exp(-t / 2)
    assert np.max(np.abs(psi - exact)) < 5e-7
    assert abs(psi[g.index_of(2.0)]) ** 2 == pytest.approx(4 * math.exp(-2), rel=1e-5)


def test_evolve_second_order_convergence():
    def err(n):
        g = Grid(0.0, 30.0, n)
        t = g.times()
        psi = evolve_driven_decay(0.5, -np.exp(-t / 2), g)
        return np.max(np.abs(psi - (-t * np.exp(-t / 2))))

    assert err(6001) / err(12001) >= 3.5


def test_evolve_decaying_kernel_vanishes():
    g = Grid(0.0, 80.0, 8001)
    t = g.times()
    psi = evolve_driven_decay(1.0, -np.exp(-t / 2), g)
    assert abs(psi[-1]) < 1e-12


def test_evolve_grid_mismatch():
    with pytest.raises(GridMismatch):
        evolve_driven_decay(0.5, np.zeros(10), Grid(0.0, 1.0, 11))


def test_evolve_rejects_growing_rate():
    with pytest.raises(ValueError):
        evolve_driven_decay(-0.1, np.zeros(11), Grid(0.0, 1.0, 11))


def test_scaled_erfc_against_high_precision_oracle():
    for x, expected in SCALED_ERFC.items():
        assert scaled_erfc(x) == pytest.approx(expected, rel=1e-12)


def test_scaled_erfc_asymptotic_series():
    # leading terms 1/(x sqrt(pi)) * (1 - 1/(2x^2)) at large argument
    x = 100.0
    series = (1 - 1 / (2 * x**2)) / (x * math.sqrt(math.pi))
    assert scaled_erfc(x) == pytest.approx(series, rel=1e-8)


def test_scaled_erfc_matches_erfc_at_moderate_argument():
    for x in np.linspace(-3, 3, 25):
        assert scaled_erfc(x) * math.exp(-x * x) == pytest.approx(math.erfc(x), rel=1e-12, abs=1e-300)


def test_central_derivative_polynomial_exact():
    assert central_derivative(lambda x: x * x, 3.0, 1e-3) == pytest.approx(6.0, rel=1e-10)


def test_central_derivative_sine():
    assert central_derivative(math.sin, 0.0, 1e-3) == pytest.approx(1.0, rel=1e-12)


def _gaussian_samples(T=1.0):
    g = Grid(-12.0 * T, 12.0 * T, 9601)
    t = g.times()
    return g, (2 * math.pi * T**2) ** -0.25 * np.exp(-(t**2) / (4 * T**2))


def test_fourier_gaussian_closed_form():
    g, xi = _gaussian_samples(1.0)
    freq = FrequencyGrid(-8.0, 8.0, 801)
    spectrum = discrete_fourier(xi, g, freq)
    exact = (2 / math.pi) ** 0.25 * np.exp(-freq.omegas() ** 2)
    assert np.max(np.abs(spectrum - exact)) < 1e-10
    assert discrete_fourier(xi, g, np.array(0.0)) == pytest.approx((2 / math.pi) ** 0.25)


def test_fourier_real_even_input_gives_real_even_spectrum():
    g, xi = _gaussian_samples(2.0)
    freq = FrequencyGrid(-3.0, 3.0, 301)
    spectrum = discrete_fourier(xi, g, freq)
    assert np.max(np.abs(spectrum.imag)) < 1e-12
    assert np.max(np.abs(spectrum - spectrum[::-1])) < 1e-12


def test_fourier_lorentzian_density():
    # exponential envelope: |xi~|^2 = (1/2pi) / (1/4 + w^2) at unit duration
    g = Grid(-1.0, 45.0, 73601)
    t = g.times()
    xi = np.where(t >= 0, np.exp(-np.clip(t, 0, None) / 2), 0.0)
    xi[g.index_of(0.0)] = 0.5
    freq = FrequencyGrid(-6.0, 6.0, 241)
    dens = np.abs(discrete_fourier(xi, g, freq)) ** 2
    exact = (1 / (2 * math.pi)) / (0.25 + freq.omegas() ** 2)
    assert np.max(np.abs(dens - exact)) < 1e-6
    assert np.argmax(dens) == 120  # peak at omega = 0


def test_fourier_parseval():
    g, xi = _gaussian_samples(1.0)
    freq = FrequencyGrid(-10.0, 10.0, 2001)
    spectrum = discrete_fourier(xi, g, freq)
    t_norm = np.trapezoid(np.abs(xi) ** 2, dx=g.dt)
    w_norm = np.trapezoid(np.abs(spectrum) ** 2, dx=freq.domega)
    assert abs(t_norm - w_norm) < 1e-6


def test_fourier_round_trip():
    g, xi = _gaussian_samples(1.0)
    xi = xi * np.exp(1j * 0.7 * g.times())
    freq = FrequencyGrid(-12.0, 12.0, 4001)
    back = inverse_discrete_fourier(discrete_fourier(xi, g, freq), freq, g)
    assert np.max(np.abs(back - xi)) < 1e-6


def test_fourier_edge_leakage_warning():
    g = Grid(-2.0, 2.0, 201)
    xi = np.exp(-g.times() ** 2)
    with pytest.warns(EdgeLeakage):
        discrete_fourier(xi, g, np.array([0.0]))


def test_fourier_grid_mismatch():
    g = Grid(-2.0, 2.0, 201)
    with pytest.raises(GridMismatch):
        discrete_fourier(np.zeros(7), g, np.array([0.0]))


def test_inner_product_jump_correction():
    # int_0^inf e^{-t} dt = 1, sampled with the midpoint convention at t=0
    g = Grid(-1.0, 40.0, 32801)
    t = g.times()
    u = np.where(t >= 0, np.exp(-np.clip(t, 0, None) / 2), 0.0)
    u[g.index_of(0.0)] = 0.5
    plain = norm_sq(u, g.dt)
    corrected = norm_sq(u, g.dt, jump=1.0)
    assert abs(corrected - 1.0) < 2e-7
    assert abs(plain - 1.0) > 1e-4  # correction is doing real work


def test_cumulative_trapezoid_matches_trapz():
    y = np.sin(np.linspace(0, 3, 301))
    out = cumulative_trapezoid(y, 0.01)
    assert out[0] == 0.0
    assert out[-1] == pytest.approx(np.trapezoid(y, dx=0.01))


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(7)
    u = rng.normal(size=32) + 1j * rng.normal(size=32)
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    assert inner_product(u, v, 0.1) == pytest.approx(np.conj(inner_product(v, u, 0.1)))
