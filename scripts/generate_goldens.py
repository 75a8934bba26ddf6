#!/usr/bin/env python3
"""Regenerate the high-precision golden values frozen into the test suite.

Evaluates the analytic Gaussian and exponential-pulse Fisher-information
expressions with 60-digit mpmath arithmetic, well beyond double precision,
so the frozen literals in tests/goldens.py act as an independent oracle for
the float transcriptions in chirpqfi.fisher.  The same arithmetic evaluates
the spectral amplitudes that chirpqfi.pulses.spectrum_closed_form computes
with a double-precision Faddeeva function and a truncated Bessel sum.

Usage:
    python scripts/generate_goldens.py > tests/goldens.py
"""

import mpmath as mp

mp.mp.dps = 60


def gaussian_breakdown(gamma, sigma):
    """Asymptotic (classical, quantum, p) for a real Gaussian pulse."""
    gamma = mp.mpf(gamma)
    sigma = mp.mpf(sigma)
    x = (gamma + 1) / (2 * mp.sqrt(2) * sigma)
    E = mp.exp(x**2) * mp.erfc(x)
    s2pi = mp.sqrt(2 * mp.pi)
    p = s2pi * gamma * E / ((gamma + 1) * sigma)
    N1 = s2pi * (4 * gamma * sigma**2 + (gamma + 1) ** 2) * E - 4 * (gamma + 1) * sigma
    if gamma == 0:
        C = mp.mpf(0)
    else:
        C = gamma * N1**2 / (
            16 * s2pi * (gamma + 1) ** 2 * sigma**4 * E * ((gamma + 1) * sigma - s2pi * gamma * E)
        )
    N2 = (
        s2pi * (4 * (2 * gamma * (gamma + 1) + 1) * sigma**2 + (2 * gamma + 1) * (gamma + 1) ** 2) * E
        - 4 * (gamma + 1) * (2 * gamma + 1) * sigma
    )
    Q = (-(gamma**2) * N1**2 / ((gamma + 1) * sigma - s2pi * gamma * E) + 8 * sigma**2 * N2) / (
        16 * (gamma + 1) ** 3 * sigma**5
    )
    return C, Q, p


def exponential_breakdown(gamma, gt, delta):
    """Asymptotic (classical, quantum, p) for the linearly phased exponential pulse."""
    g = mp.mpf(gamma)
    T = mp.mpf(gt)
    D = mp.mpf(delta)
    u = g * T + T + 1
    p = 4 * g * T * ((g + 1) * T + 1) / ((g + 1) * (4 * D**2 * T**2 + u**2))
    if gamma == 0:
        C = mp.mpf(0)
    else:
        num = g * T * (32 * D**2 * T**2 * (g + (g + 1) ** 2 * T) + 8 * (g + (g**2 - 1) * T) * u**2) ** 2
        den = (
            16 * (g + 1) ** 3 * u * (4 * D**2 * T**2 + u**2) ** 3
            * (1 - 4 * g * T * u / ((g + 1) * (4 * D**2 * T**2 + u**2)))
        )
        C = num / den
    num2 = 8 * T * (
        2 * g**3 + 4 * g**2 + 3 * g
        + (g + 1) * T**2 * (2 * g**4 + 2 * g**3 + g**2 * (8 * D**2 + 3) + 8 * g * D**2 + 4 * D**2 + 1)
        + (4 * g**4 + 8 * g**3 + 8 * g**2 + 4 * g + 2) * T
        + 1
    )
    den2 = (g + 1) ** 3 * (4 * D**2 * T**2 + u**2) * (
        g + (g + 1) * T**2 * (g**2 - 2 * g + 4 * D**2 + 1) + 2 * (g**2 + 1) * T + 1
    )
    Q = num2 / den2
    return C, Q, p


def envelope_amplitude(envelope, gt, w):
    """Unmodulated spectral amplitude (2 pi)^{-1/2} int xi(t) e^{i w t} dt."""
    T = mp.mpf(gt)
    w = mp.mpf(w)
    if envelope == "gaussian":
        return (2 * T**2 / mp.pi) ** mp.mpf("0.25") * mp.exp(-(T**2) * w**2)
    return mp.sqrt(2 * T / mp.pi) / (1 - 2j * T * w)


def chirped_exponential_amplitude(gt, k, w):
    """Amplitude of the exponential pulse with phase k t^2:
    (2 pi T)^{-1/2} int_0^inf e^{-p t^2 - q t} dt, p = -ik, q = 1/2T - iw."""
    T = mp.mpf(gt)
    p = -1j * mp.mpf(k)
    q = 1 / (2 * T) - 1j * mp.mpf(w)
    z = q / (2 * mp.sqrt(p))
    return mp.sqrt(mp.pi / p) / 2 * mp.exp(z**2) * mp.erfc(z) / mp.sqrt(2 * mp.pi * T)


def sinusoidal_amplitude(envelope, gt, omega, w, terms=40):
    """Jacobi-Anger sum sum_n J_n(1) xi~0(w + n Omega) of the phase sin(Omega t)."""
    return mp.fsum(mp.besselj(n, 1) * envelope_amplitude(envelope, gt, mp.mpf(w) + n * mp.mpf(omega))
                   for n in range(-terms, terms + 1))


def _complex(z):
    return f"complex({mp.nstr(mp.re(z), 17)}, {mp.nstr(mp.im(z), 17)})"


def emit():
    print('"""Golden oracle values, frozen from a 60-digit mpmath evaluation.')
    print()
    print("Generated by scripts/generate_goldens.py; do not edit by hand.")
    print('"""')
    print()
    print("# (gamma, gamma_t) -> (classical, quantum, p_loss) for the real Gaussian pulse")
    print("GAUSSIAN_ASYMPTOTIC = {")
    for gamma in (1, 5):
        for gt in (mp.mpf("0.5"), 2, 8):
            sigma = 1 / (2 * mp.mpf(gt))
            C, Q, p = gaussian_breakdown(gamma, sigma)
            print(f"    ({gamma}, {float(gt)}): ({mp.nstr(C, 17)}, {mp.nstr(Q, 17)}, {mp.nstr(p, 17)}),")
    print("}")
    print()
    print("# (gamma, gamma_t, delta) -> (classical, quantum, p_loss) for the exponential pulse")
    print("EXPONENTIAL_ASYMPTOTIC = {")
    for gamma in (0, 5):
        for delta in (0, 1):
            C, Q, p = exponential_breakdown(gamma, 4, delta)
            print(f"    ({gamma}, 4.0, {float(delta)}): ({mp.nstr(C, 17)}, {mp.nstr(Q, 17)}, {mp.nstr(p, 17)}),")
    # extra points exercised by unit tests
    for gamma, gt, delta in ((1, 2, 0.5), (5, 0.5, 1)):
        C, Q, p = exponential_breakdown(gamma, gt, delta)
        print(f"    ({gamma}, {float(gt)}, {float(delta)}): ({mp.nstr(C, 17)}, {mp.nstr(Q, 17)}, {mp.nstr(p, 17)}),")
    print("}")
    print()
    print("# x -> exp(x**2) * erfc(x)")
    print("SCALED_ERFC = {")
    for x in ("-6", "-3", "-1", "-0.5", "0", "0.25", "1", "3", "10", "50", "100", "700"):
        v = mp.exp(mp.mpf(x) ** 2) * mp.erfc(mp.mpf(x))
        print(f"    {float(mp.mpf(x))}: {mp.nstr(v, 17)},")
    print("}")
    print()
    print("# (gamma_t, k, omega) -> spectral amplitude of the exponential pulse with phase k t^2")
    print("EXPONENTIAL_QUADRATIC_SPECTRUM = {")
    for gt in ("0.5", "2"):
        for k in (1, -1):
            for w in ("-3", "0", "1.5"):
                v = chirped_exponential_amplitude(gt, k, w)
                print(f"    ({float(mp.mpf(gt))}, {float(k)}, {float(mp.mpf(w))}): {_complex(v)},")
    print("}")
    print()
    print("# (envelope, gamma_t, Omega, omega) -> spectral amplitude with phase sin(Omega t)")
    print("SINUSOIDAL_SPECTRUM = {")
    for envelope in ("gaussian", "exponential"):
        for gt, om in (("2.5", "1"), ("0.5", "2")):
            for w in ("-2", "0", "0.7"):
                v = sinusoidal_amplitude(envelope, gt, om, w)
                print(f"    ({envelope!r}, {float(mp.mpf(gt))}, {float(mp.mpf(om))}, {float(mp.mpf(w))}): "
                      f"{_complex(v)},")
    print("}")


if __name__ == "__main__":
    emit()
