"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (plus sub-clause detail where a
criterion bundles several claims) so a `pytest -s tests/test_acceptance.py`
run doubles as the acceptance report.
"""

import math
import time

import numpy as np
import pytest

from chirpqfi.dynamics import (
    SystemParams,
    environment_norm_curve,
    excited_amplitude,
    loss_probability,
    outgoing_norm_curve,
    outgoing_wavepacket,
)
from chirpqfi.errors import AsymmetricPulse
from chirpqfi.fisher import (
    asymptotic_qfi,
    classical_fi,
    exponential_linear_closed_forms,
    finite_time_qfi,
    gaussian_closed_forms,
    pure_qfi,
    spectral_overlap,
)
from chirpqfi.modes import (
    GramSchmidtFromEnvelope,
    HermiteGauss,
    build_basis,
    conditional_cumulative_ratio,
    modal_grid,
    mode_cfi,
    optimal_two_outcome_povm,
    outcome_distribution,
    project_amplitudes,
    sld_eigenbasis,
)
from chirpqfi.numerics import central_derivative, inner_product, norm_sq
from chirpqfi.pulses import PulseSpec, default_grid, sample_pulse
from goldens import EXPONENTIAL_ASYMPTOTIC, GAUSSIAN_ASYMPTOTIC


def _report(number, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_criterion_01_unitarity():
    """Probability is conserved across system, pulse, and environment channels."""
    start = time.monotonic()
    worst = 0.0
    for envelope in ("gaussian", "exponential"):
        for modulation, kw in (("none", {}), ("linear", {"alpha": 1.0}),
                               ("quadratic", {"k": 1.0})):
            for gamma in (0.0, 5.0):
                spec = PulseSpec(envelope, 2.0, modulation, **kw)
                params = SystemParams(gamma=gamma)
                pulse = sample_pulse(spec, default_grid(spec))
                tr = excited_amplitude(pulse, params)
                deviation = np.abs(
                    np.abs(tr.value) ** 2
                    + outgoing_norm_curve(pulse, params, tr)
                    + environment_norm_curve(params, tr)
                    - 1.0
                ).max()
                worst = max(worst, deviation)
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 30.0
    assert _report(1, ok, f"12 scenarios, max |norm - 1| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_02_gaussian_closed_form_oracle():
    """Quadrature equals the analytic Gaussian forms pinned by the 60-digit oracle."""
    start = time.monotonic()
    worst = 0.0
    for (gamma, gt), (c_ref, q_ref, p_ref) in GAUSSIAN_ASYMPTOTIC.items():
        closed = gaussian_closed_forms(gamma, 1.0 / (2.0 * gt))
        # transcription against the frozen high-precision evaluation
        assert _rel(closed.classical, c_ref) < 1e-9
        assert _rel(closed.quantum, q_ref) < 1e-9
        assert _rel(closed.p_loss, p_ref) < 1e-12
        quad = asymptotic_qfi(PulseSpec("gaussian", gt), SystemParams(gamma=gamma))
        worst = max(worst, _rel(quad.classical, closed.classical),
                    _rel(quad.quantum, closed.quantum), _rel(quad.p_loss, closed.p_loss))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 10.0
    assert _report(2, ok, f"max rel diff = {worst:.2e} over 6 parameter points, {elapsed:.1f} s")


def test_criterion_03_bandwidth_substitution():
    """A quadratic chirp is equivalent to a real pulse of enlarged bandwidth."""
    worst = 0.0
    for gt in (0.5, 1.0, 2.0, 4.0):
        sigma_prime = math.sqrt(1.0 + 16.0 * gt**4) / (2.0 * gt)
        chirped = asymptotic_qfi(PulseSpec("gaussian", gt, "quadratic", k=1.0),
                                 SystemParams(gamma=5.0))
        ref = gaussian_closed_forms(5.0, sigma_prime)
        worst = max(worst, _rel(chirped.classical, ref.classical),
                    _rel(chirped.quantum, ref.quantum), _rel(chirped.p_loss, ref.p_loss))
    ok = worst < 1e-6
    assert _report(3, ok, f"max rel diff = {worst:.2e} over four durations")


def test_criterion_04_exponential_oracle_and_ordering():
    """Exponential-pulse quadrature equals the analytic forms; classical ordering holds."""
    worst = 0.0
    for (gamma, gt, delta), (c_ref, q_ref, p_ref) in EXPONENTIAL_ASYMPTOTIC.items():
        if gt != 4.0:
            continue
        closed = exponential_linear_closed_forms(gamma, gt, delta)
        assert _rel(closed.quantum, q_ref) < 1e-12
        quad = asymptotic_qfi(PulseSpec("exponential", gt, "linear", alpha=delta)
                              if delta else PulseSpec("exponential", gt),
                              SystemParams(gamma=gamma))
        worst = max(worst, _rel(quad.quantum, closed.quantum))
        if gamma > 0:
            worst = max(worst, _rel(quad.classical, closed.classical),
                        _rel(quad.p_loss, closed.p_loss))
        else:
            worst = max(worst, abs(quad.classical), abs(quad.p_loss))
    params = SystemParams(gamma=5.0)
    c_real = asymptotic_qfi(PulseSpec("exponential", 4.0), params).classical
    c_linear = asymptotic_qfi(PulseSpec("exponential", 4.0, "linear", alpha=1.0), params).classical
    c_quadratic = asymptotic_qfi(PulseSpec("exponential", 4.0, "quadratic", k=1.0),
                                 params).classical
    ordered = c_real > c_linear > c_quadratic
    ok = worst < 1e-6 and ordered
    assert _report(4, ok, f"max rel diff = {worst:.2e}; classical ordering "
                          f"{c_real:.4f} > {c_linear:.4f} > {c_quadratic:.4f}: {ordered}")


def test_criterion_05_finite_time_convergence():
    """The finite-time engine reaches the asymptotic value by t = 60."""
    worst = 0.0
    for gt in (1.0, 8.0):
        spec = PulseSpec("gaussian", gt)
        pulse = sample_pulse(spec, default_grid(spec))
        ft = finite_time_qfi(pulse, SystemParams(gamma=5.0), 60.0)
        asym = asymptotic_qfi(spec, SystemParams(gamma=5.0))
        worst = max(worst, _rel(ft.total, asym.total))
    ok = worst < 1e-3
    assert _report(5, ok, f"max rel gap at t=60: {worst:.2e}")


def test_criterion_06_linear_phase_equals_detuning():
    """Temporal linear phase and detuning give identical information."""
    a = asymptotic_qfi(PulseSpec("gaussian", 1.0, "linear", alpha=1.0),
                       SystemParams(gamma=5.0, delta=0.0))
    b = asymptotic_qfi(PulseSpec("gaussian", 1.0), SystemParams(gamma=5.0, delta=1.0))
    gap = max(_rel(a.total, b.total), _rel(a.classical, b.classical),
              _rel(a.quantum, b.quantum))
    ok = gap < 1e-8
    assert _report(6, ok, f"independent code paths differ by {gap:.2e}")


def test_criterion_07_mode_counting_ratios():
    """Mode-resolved photon counting in fixed Hermite-Gauss modes.

    Two of the four published targets are unreachable for the measurement as
    defined (complete four-outcome ratio in the fixed unchirped basis):
    the chirped pulse's spectrum lies mostly outside the span of the first
    21 modes, bounding any such ratio well below 0.99, and at strong
    environment coupling the vacuum outcome alone carries ~95% of the
    information, bounding the ratio far above 0.06.  Both targets ARE
    reproduced by adjacent conventions (matched-continuation basis for the
    chirp; conditional cumulative sums for the sinusoidal pulse), reported
    here for reference.  The assertions stay faithful to the stated targets.
    """
    start = time.monotonic()
    params = SystemParams(gamma=5.0)
    kind = HermiteGauss(2.5)
    truncation = 25
    measured = {}
    conditional = {}
    for name, spec in (
        ("none", PulseSpec("gaussian", 2.5)),
        ("linear", PulseSpec("gaussian", 2.5, "linear", alpha=1.0)),
        ("quadratic", PulseSpec("gaussian", 2.5, "quadratic", k=1.0)),
        ("sinusoidal", PulseSpec("gaussian", 2.5, "sinusoidal", omega=1.0)),
    ):
        grid = modal_grid(spec, truncation, kind)
        pulse = sample_pulse(spec, grid)
        tr = excited_amplitude(pulse, params)
        out = outgoing_wavepacket(pulse, params, tr, grid.t_end)
        modal = project_amplitudes(out, build_basis(kind, truncation, grid))
        qfi = asymptotic_qfi(spec, params).total
        probs, derivs = outcome_distribution(modal, 20)
        measured[name] = mode_cfi(probs, derivs) / qfi
        conditional[name] = float(conditional_cumulative_ratio(modal, qfi)[20])

    # matched-continuation basis for the chirped pulse
    spec_q = PulseSpec("gaussian", 2.5, "quadratic", k=1.0)
    kind_q = GramSchmidtFromEnvelope(spec_q)
    grid_q = modal_grid(spec_q, 20, kind_q)
    pulse_q = sample_pulse(spec_q, grid_q)
    tr_q = excited_amplitude(pulse_q, params)
    out_q = outgoing_wavepacket(pulse_q, params, tr_q, grid_q.t_end)
    modal_q = project_amplitudes(out_q, build_basis(kind_q, 20, grid_q))
    probs_q, derivs_q = outcome_distribution(modal_q, 20)
    matched_quadratic = mode_cfi(probs_q, derivs_q) / asymptotic_qfi(spec_q, params).total
    elapsed = time.monotonic() - start

    clauses = {
        "unmodulated >= 0.999": measured["none"] >= 0.999,
        "quadratic >= 0.99": measured["quadratic"] >= 0.99,
        "sinusoidal in 0.06 +- 0.02": 0.04 <= measured["sinusoidal"] <= 0.08,
        "linear < 0.999 with gap": 0.0 < 0.999 - measured["linear"],
        "runtime < 60 s": elapsed < 60.0,
    }
    for clause, ok in clauses.items():
        print(f"  criterion 07 clause [{clause}]: {'PASS' if ok else 'FAIL'}")
    print(f"  measured ratios at J=20: " +
          " ".join(f"{k}={v:.4f}" for k, v in measured.items()))
    print(f"  reference conventions: matched-basis quadratic = {matched_quadratic:.4f}, "
          f"conditional sinusoidal = {conditional['sinusoidal']:.4f}")
    ok = all(clauses.values())
    assert _report(
        7, ok,
        f"{sum(clauses.values())}/5 clauses hold in {elapsed:.1f} s; the quadratic and "
        f"sinusoidal targets are mutually unreachable for the fixed-basis four-outcome "
        f"ratio (spectral-support and vacuum-information bounds), though each is met by "
        f"its adjacent convention"
    )


def test_criterion_08_derivative_consistency():
    """Every analytic coupling-derivative channel agrees with Richardson re-solves."""
    h = 1e-4
    spec = PulseSpec("gaussian", 2.0, "quadratic", k=0.5)
    params = SystemParams(gamma=5.0, delta=0.5)
    pulse = sample_pulse(spec, default_grid(spec))
    tr = excited_amplitude(pulse, params)
    worst = 0.0

    idx = pulse.grid.index_of(2.0)

    def resolve(extract):
        re = central_derivative(lambda d: extract(params.perturb_coupling(d)).real, 0.0, h)
        im = central_derivative(lambda d: extract(params.perturb_coupling(d)).imag, 0.0, h)
        return re + 1j * im

    # excitation amplitude channel
    fd = resolve(lambda m: excited_amplitude(pulse, m).value[idx])
    worst = max(worst, abs(tr.d_value[idx] - fd) / abs(fd))
    # loss probability channel
    loss = loss_probability(pulse, params, tr)
    fd_p = central_derivative(
        lambda d: loss_probability(pulse, params.perturb_coupling(d),
                                   excited_amplitude(pulse, params.perturb_coupling(d))).p[-1],
        0.0, h)
    worst = max(worst, abs(loss.dp[-1] - fd_p) / abs(fd_p))
    # characteristic function channel
    from chirpqfi.dynamics import characteristic_function

    _, df = characteristic_function(params, np.array(0.3))
    fd_f = resolve(lambda m: complex(characteristic_function(m, np.array(0.3))[0]))
    worst = max(worst, abs(df - fd_f) / abs(fd_f))
    # modal amplitude derivatives
    kind = HermiteGauss(2.0)
    grid = modal_grid(spec, 4, kind)
    mpulse = sample_pulse(spec, grid)
    basis = build_basis(kind, 4, grid)

    def modal_of(m):
        t = excited_amplitude(mpulse, m)
        return project_amplitudes(outgoing_wavepacket(mpulse, m, t, grid.t_end), basis)

    modal = modal_of(params)
    for j in range(5):
        fd_b = resolve(lambda m, _j=j: modal_of(m).amplitudes[_j])
        worst = max(worst, abs(modal.derivatives[j] - fd_b) / abs(fd_b))
    ok = worst < 1e-5
    assert _report(8, ok, f"max rel deviation from finite differences: {worst:.2e}")


def test_criterion_09_optimal_measurement_saturation():
    """Two-outcome and eigenbasis measurements reach the information bound."""
    worst_sym = 0.0
    for spec in (PulseSpec("gaussian", 2.5),
                 PulseSpec("gaussian", 1.0, "quadratic", k=1.0),
                 PulseSpec("gaussian", 8.0, "sinusoidal", omega=1.0)):
        params = SystemParams(gamma=5.0)
        grid = modal_grid(spec, 5, HermiteGauss(spec.gamma_t))
        pulse = sample_pulse(spec, grid)
        tr = excited_amplitude(pulse, params)
        out = outgoing_wavepacket(pulse, params, tr, grid.t_end)
        dx = grid.dt
        nn = norm_sq(out.values, dx, out.jump)
        dp = -2.0 * inner_product(out.values, out.d_values, dx, out.jump, 0.0).real
        qfi = classical_fi(1.0 - nn, dp) + pure_qfi(out.values, out.d_values, dx, out.jump)
        _, _, cfi_pair = optimal_two_outcome_povm(out, qfi)
        _, _, cfi_sld = sld_eigenbasis(out)
        worst_sym = max(worst_sym, _rel(cfi_pair, qfi), _rel(cfi_sld, qfi))

    spec = PulseSpec("exponential", 4.0, "quadratic", k=1.0)
    params = SystemParams(gamma=5.0)
    kind = GramSchmidtFromEnvelope(spec)
    grid = modal_grid(spec, 15, kind)
    pulse = sample_pulse(spec, grid)
    tr = excited_amplitude(pulse, params)
    out = outgoing_wavepacket(pulse, params, tr, grid.t_end)
    dx = grid.dt
    nn = norm_sq(out.values, dx, out.jump)
    dp = -2.0 * inner_product(out.values, out.d_values, dx, out.jump, 0.0).real
    qfi = classical_fi(1.0 - nn, dp) + pure_qfi(out.values, out.d_values, dx, out.jump)
    _, _, cfi_sld = sld_eigenbasis(out)
    sld_gap = _rel(cfi_sld, qfi)
    with pytest.raises(AsymmetricPulse):
        optimal_two_outcome_povm(out, qfi)
    modal = project_amplitudes(out, build_basis(kind, 15, grid))
    probs, derivs = outcome_distribution(modal, 15)
    envelope_gap = (qfi - mode_cfi(probs, derivs)) / qfi
    ok = worst_sym < 1e-6 and sld_gap < 1e-6 and envelope_gap > 1e-3
    assert _report(9, ok, f"symmetric saturation gap {worst_sym:.2e}; asymmetric eigenbasis "
                          f"gap {sld_gap:.2e}; fixed envelope basis (16 modes) leaves "
                          f"{envelope_gap:.4f} (the gap stays strictly positive but narrows "
                          f"toward ~7e-4 as the truncation deepens)")


def test_criterion_10_symmetry_theorem():
    """State/derivative overlap vanishes exactly for symmetric spectra."""
    worst_sym = 0.0
    for spec in (PulseSpec("gaussian", 2.0),
                 PulseSpec("gaussian", 1.0, "quadratic", k=1.0),
                 PulseSpec("gaussian", 8.0, "sinusoidal", omega=1.0)):
        worst_sym = max(worst_sym, abs(spectral_overlap(spec, SystemParams(gamma=5.0)).overlap))
    smallest_asym = math.inf
    for spec in (PulseSpec("exponential", 4.0, "quadratic", k=1.0),
                 PulseSpec("gaussian", 1.0, "linear", alpha=1.0)):
        smallest_asym = min(smallest_asym,
                            abs(spectral_overlap(spec, SystemParams(gamma=5.0)).overlap.imag))
    ok = worst_sym < 1e-8 and smallest_asym > 1e-4
    assert _report(10, ok, f"symmetric overlaps <= {worst_sym:.2e}; asymmetric imaginary "
                           f"parts >= {smallest_asym:.2e}")


def test_criterion_11_linear_phase_boosts_classical_information():
    """At matched couplings the shifted pulse carries more classical information."""
    params = SystemParams(gamma=1.0)
    margin = math.inf
    for gt in np.linspace(0.5, 8.0, 16):
        real = asymptotic_qfi(PulseSpec("gaussian", float(gt)), params).classical
        for alpha in (0.5, 1.0):
            shifted = asymptotic_qfi(PulseSpec("gaussian", float(gt), "linear", alpha=alpha),
                                     params).classical
            margin = min(margin, shifted - real)
    ok = margin > 0.0
    assert _report(11, ok, f"smallest classical-information excess: {margin:.3e}")
