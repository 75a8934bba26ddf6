import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chirpqfi.errors import DivergentMoment, GridTooNarrow
from chirpqfi.numerics import FrequencyGrid, Grid
from chirpqfi.pulses import (
    PulseSpec,
    bandwidth,
    default_grid,
    pulse_from_config,
    pulse_to_config,
    sample_pulse,
    spectral_density,
    spectral_grid,
    spectral_symmetry,
    spectrum_closed_form,
)
from goldens import EXPONENTIAL_QUADRATIC_SPECTRUM, SINUSOIDAL_SPECTRUM


def test_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec("triangle", 1.0)
    with pytest.raises(ValueError):
        PulseSpec("gaussian", 0.0)
    with pytest.raises(ValueError):
        PulseSpec("gaussian", 1.0, "chirp")
    with pytest.raises(ValueError):
        PulseSpec("gaussian", 1.0, "linear", alpha=math.inf)


def test_gaussian_peak_value():
    spec = PulseSpec("gaussian", 1.0)
    p = sample_pulse(spec, default_grid(spec))
    i0 = p.grid.index_of(0.0)
    assert p.values[i0].real == pytest.approx((2 * math.pi) ** -0.25, rel=1e-10)
    assert p.values[i0].imag == 0.0


def test_zero_chirp_matches_unmodulated():
    spec = PulseSpec("gaussian", 1.0)
    grid = default_grid(spec)
    plain = sample_pulse(spec, grid)
    chirp0 = sample_pulse(PulseSpec("gaussian", 1.0, "quadratic", k=0.0), grid)
    assert np.array_equal(plain.values, chirp0.values)


def test_exponential_vanishes_before_onset():
    spec = PulseSpec("exponential", 1.0)
    p = sample_pulse(spec, default_grid(spec))
    t = p.grid.times()
    assert np.all(p.values[t < 0] == 0.0)


def test_exponential_onset_must_sit_on_node():
    spec = PulseSpec("exponential", 1.0)
    with pytest.raises(GridTooNarrow):
        sample_pulse(spec, Grid(-0.1511, 12.8489, 5201))  # nodes miss t = 0


def test_grid_too_narrow():
    with pytest.raises(GridTooNarrow):
        sample_pulse(PulseSpec("gaussian", 2.0), Grid(-10.0, 10.0, 2001))
    with pytest.raises(GridTooNarrow):
        sample_pulse(PulseSpec("exponential", 2.0), Grid(-1.0, 20.0, 2001))


@settings(max_examples=20, deadline=None)
@given(
    envelope=st.sampled_from(["gaussian", "exponential"]),
    gamma_t=st.floats(0.3, 6.0),
    modulation=st.sampled_from(["none", "linear", "quadratic", "sinusoidal"]),
    value=st.floats(-2.0, 2.0),
)
def test_normalization_invariant(envelope, gamma_t, modulation, value):
    kw = {}
    if modulation == "linear":
        kw["alpha"] = value
    elif modulation == "quadratic":
        kw["k"] = value
    elif modulation == "sinusoidal":
        kw["omega"] = value
    spec = PulseSpec(envelope, gamma_t, modulation, **kw)
    p = sample_pulse(spec, default_grid(spec, points_per_unit=200))
    assert p.norm_sq() == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("spec,band", [
    (PulseSpec("gaussian", 1.0), 8.0),
    (PulseSpec("gaussian", 1.0, "linear", alpha=1.0), 8.0),
    (PulseSpec("gaussian", 1.0, "quadratic", k=1.0), 14.0),
    (PulseSpec("exponential", 1.0), 30.0),
    (PulseSpec("exponential", 2.0, "linear", alpha=1.0), 30.0),
    (PulseSpec("exponential", 1.0, "quadratic", k=1.0), 30.0),
    (PulseSpec("exponential", 1.0, "quadratic", k=-1.0), 30.0),
    (PulseSpec("exponential", 1.0, "quadratic", k=0.0), 30.0),
    (PulseSpec("gaussian", 2.5, "sinusoidal", omega=1.0), 8.0),
    (PulseSpec("exponential", 2.0, "sinusoidal", omega=1.0), 30.0),
])
def test_closed_form_spectrum_matches_transform(spec, band):
    p = sample_pulse(spec, spectral_grid(spec))
    omegas = np.linspace(-band, band, 101)
    closed = spectrum_closed_form(spec, omegas)
    numeric = p.spectrum_numeric(omegas)
    assert np.max(np.abs(closed - numeric)) < 1e-6


def test_closed_form_spectrum_against_golden_oracle():
    # 60-digit mpmath values: erfc of a complex argument for the chirped
    # exponential, 81-term Bessel sums for the sinusoidal phase
    for (gt, k, w), ref in EXPONENTIAL_QUADRATIC_SPECTRUM.items():
        amp = spectrum_closed_form(PulseSpec("exponential", gt, "quadratic", k=k), w)
        assert abs(amp - ref) < 1e-12
    for (envelope, gt, om, w), ref in SINUSOIDAL_SPECTRUM.items():
        amp = spectrum_closed_form(PulseSpec(envelope, gt, "sinusoidal", omega=om), w)
        assert abs(amp - ref) < 1e-12


def test_chirped_exponential_spectrum_far_tails():
    # far from the stationary-phase band only the onset term 1/q of the time
    # integral survives, which is the unchirped amplitude
    w = np.array([-1e17, -1e9, 1e9, 1e17])
    for k in (1.0, -1.0):
        amp = spectrum_closed_form(PulseSpec("exponential", 1.0, "quadratic", k=k), w)
        onset = spectrum_closed_form(PulseSpec("exponential", 1.0), w)
        assert np.max(np.abs(amp / onset - 1.0)) < 1e-12


def test_gaussian_spectrum_value_at_zero():
    assert spectrum_closed_form(PulseSpec("gaussian", 1.0), np.array(0.0)) == pytest.approx(
        (2 / math.pi) ** 0.25)


def test_gaussian_density_width():
    # |xi~|^2 of the plain Gaussian at duration 2 is a normal density of width 1/4
    dens = spectral_density(PulseSpec("gaussian", 2.0))
    w = np.linspace(-3, 3, 1001)
    vals = dens(w)
    total = np.trapezoid(vals, w)
    var = np.trapezoid(w**2 * vals, w) / total
    assert math.sqrt(var) == pytest.approx(0.25, rel=1e-6)


def test_linear_phase_is_spectral_shift():
    spec = PulseSpec("gaussian", 1.0, "linear", alpha=1.0)
    base = PulseSpec("gaussian", 1.0)
    w = np.linspace(-4, 4, 41)
    assert np.allclose(spectrum_closed_form(spec, w), spectrum_closed_form(base, w + 1.0))


@pytest.mark.parametrize("spec,expected", [
    (PulseSpec("gaussian", 2.0), 0.25),
    (PulseSpec("gaussian", 1.0, "quadratic", k=1.0), math.sqrt(17.0) / 2.0),
    (PulseSpec("gaussian", 1.0, "linear", alpha=1.0), 0.5),
])
def test_bandwidth_closed_forms(spec, expected):
    assert bandwidth(spec) == pytest.approx(expected, rel=1e-12)


def test_bandwidth_chirp_sign_invariance():
    plus = bandwidth(PulseSpec("gaussian", 1.5, "quadratic", k=0.7))
    minus = bandwidth(PulseSpec("gaussian", 1.5, "quadratic", k=-0.7))
    assert plus == pytest.approx(minus, rel=1e-12)


def test_bandwidth_sinusoidal_numeric():
    # sideband picture: variance = sigma^2 + Omega^2 sum_n n^2 J_n(1)^2 up to
    # exponentially small overlap terms at this duration
    from scipy.special import jv

    spec = PulseSpec("gaussian", 4.0, "sinusoidal", omega=1.0)
    sigma = 1.0 / 8.0
    sideband_var = sum(2 * n**2 * jv(n, 1.0) ** 2 for n in range(1, 12))
    expected = math.sqrt(sigma**2 + sideband_var)
    assert bandwidth(spec) == pytest.approx(expected, rel=1e-4)


def test_bandwidth_sinusoidal_short_pulse():
    # at gamma_t = 0.25 the sidebands overlap, so the overlap terms of the
    # closed form matter; compare with a fine trapezoid of the density
    spec = PulseSpec("gaussian", 0.25, "sinusoidal", omega=1.0)
    w = np.linspace(-40.0, 40.0, 160001)
    dens = spectral_density(spec)(w)
    total = np.trapezoid(dens, w)
    mean = np.trapezoid(w * dens, w) / total
    var = np.trapezoid((w - mean) ** 2 * dens, w) / total
    assert total == pytest.approx(1.0, rel=1e-12)
    assert bandwidth(spec) == pytest.approx(math.sqrt(var), rel=1e-9)


def test_bandwidth_divergent_for_exponential():
    with pytest.raises(DivergentMoment):
        bandwidth(PulseSpec("exponential", 1.0))


def test_spectral_symmetry_table():
    sym_grid = FrequencyGrid(-8.0, 8.0, 801)
    assert spectral_symmetry(PulseSpec("gaussian", 1.0), sym_grid)
    assert spectral_symmetry(PulseSpec("gaussian", 1.0, "quadratic", k=1.0),
                             FrequencyGrid(-14.0, 14.0, 801))
    assert spectral_symmetry(PulseSpec("gaussian", 8.0, "sinusoidal", omega=1.0),
                             FrequencyGrid(-10.0, 10.0, 2001))
    assert not spectral_symmetry(PulseSpec("gaussian", 1.0, "linear", alpha=1.0), sym_grid)
    assert not spectral_symmetry(PulseSpec("exponential", 1.0, "quadratic", k=1.0),
                                 FrequencyGrid(-40.0, 40.0, 2001))


def test_spectral_symmetry_about_shifted_center():
    spec = PulseSpec("gaussian", 1.0, "linear", alpha=1.0)
    assert spectral_symmetry(spec, FrequencyGrid(-6.0, 6.0, 601), center=-1.0)


def test_spectral_symmetry_requires_symmetric_grid():
    with pytest.raises(ValueError):
        spectral_symmetry(PulseSpec("gaussian", 1.0), FrequencyGrid(-1.0, 2.0, 31))


def test_config_round_trip():
    spec = PulseSpec("exponential", 2.5, "quadratic", k=0.3)
    assert pulse_from_config(pulse_to_config(spec)) == spec


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        pulse_from_config({"envelope": "gaussian", "gamma_t": "1.0", "flavor": "up"})


def test_numeric_density_matches_direct_transform():
    spec = PulseSpec("gaussian", 2.5, "sinusoidal", omega=1.0)
    dens = spectral_density(spec)
    p = sample_pulse(spec, spectral_grid(spec))
    w = np.linspace(-4.0, 4.0, 33)
    direct = np.abs(p.spectrum_numeric(w)) ** 2
    assert np.max(np.abs(dens(w) - direct)) < 1e-7
