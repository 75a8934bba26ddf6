import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chirpqfi.dynamics import SystemParams
from chirpqfi.errors import DegenerateModel, NodeMismatch, Underflow, VacuumOnly
from chirpqfi.fisher import (
    _ray_moments,
    asymptotic_qfi,
    classical_fi,
    exponential_linear_closed_forms,
    finite_time_curve,
    finite_time_qfi,
    gaussian_closed_forms,
    pure_qfi,
    spectral_overlap,
)
from chirpqfi.numerics import integrate_real_line
from chirpqfi.pulses import Autocorrelation, PulseSpec, default_grid, sample_pulse, spectral_density
from goldens import EXPONENTIAL_ASYMPTOTIC, EXPONENTIAL_QUADRATIC_MOMENTS, GAUSSIAN_ASYMPTOTIC


def test_classical_fi_values():
    assert classical_fi(0.5, 1.0) == pytest.approx(4.0)
    assert classical_fi(0.0, 0.0) == 0.0
    assert classical_fi(1.0, 0.0) == 0.0
    with pytest.raises(DegenerateModel):
        classical_fi(0.0, 0.1)
    with pytest.raises(DegenerateModel):
        classical_fi(1.0, -0.1)


def test_classical_rule_is_shared_by_scalar_and_curve_form():
    from chirpqfi.fisher import _classical_info

    p = np.array([0.0, 1e-15, 1.0, 0.3, 0.9, 0.5])
    dp = np.array([0.0, 5e-13, -1e-13, 0.2, -0.7, 1.0])
    out = _classical_info(p, dp)
    assert out[:3].tolist() == [0.0, 0.0, 0.0]
    assert out.tolist() == [classical_fi(x, y) for x, y in zip(p, dp)]
    assert out[3] == 0.2 * 0.2 / (0.3 * 0.7)
    bad_p, bad_dp = p.copy(), dp.copy()
    bad_p[4], bad_dp[4] = 1.0, 1e-12
    with pytest.raises(DegenerateModel, match="at node 4"):
        _classical_info(bad_p, bad_dp)
    with pytest.raises(DegenerateModel, match="at node 0"):
        _classical_info(np.array([0.0, 0.5]), np.array([0.1, 0.1]))


def test_classical_curve_is_smooth_through_a_lossless_interference_dip():
    # gamma = 0: the pulse and decay terms of psi_e cancel near t = 25.1, so
    # p = |psi_e|^2 falls below P_FLOOR while |dp| stays above DP_FLOOR; the
    # dip is an interior minimum that carries dp^2/(p(1-p)) like its neighbours
    spec = PulseSpec("exponential", 0.998046875)
    grid = default_grid(spec)
    curve = finite_time_curve(sample_pulse(spec, grid), SystemParams(gamma=0.0, delta=1.0))
    i = 20936
    assert grid.t_start + i * grid.dt == pytest.approx(25.118, abs=1e-3)
    assert curve.p_loss[i] < 1e-14
    window = curve.classical[i - 10:i + 11]
    assert np.all(np.diff(window) > 0.0)
    assert 3.0e-9 < window[0] and window[-1] < 8.0e-9
    assert curve.classical[i] == pytest.approx(5.840482e-9, rel=1e-5)


def test_pure_qfi_definition():
    # toy vectors with unit trapezoidal norms: <d|d> = 1, <s|d> = 0 gives 4
    dx = 1.0
    state = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    d_state = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    assert pure_qfi(state, d_state, dx) == pytest.approx(4.0)
    assert pure_qfi(state, np.zeros(4, complex), dx) == 0.0


def test_pure_qfi_phase_invariance():
    rng = np.random.default_rng(3)
    state = rng.normal(size=64) + 1j * rng.normal(size=64)
    d_state = rng.normal(size=64) + 1j * rng.normal(size=64)
    state /= math.sqrt((np.abs(state) ** 2).sum() * 0.1)
    base = pure_qfi(state, d_state, 0.1)
    rotated = pure_qfi(state * np.exp(0.7j), d_state * np.exp(0.7j), 0.1)
    assert rotated == pytest.approx(base, rel=1e-12)
    assert base >= 0.0


def test_pure_qfi_vacuum_only():
    with pytest.raises(VacuumOnly):
        pure_qfi(np.zeros(4, complex), np.ones(4, complex), 0.1)


def test_gaussian_closed_forms_against_golden_oracle():
    for (gamma, gt), (c_ref, q_ref, p_ref) in GAUSSIAN_ASYMPTOTIC.items():
        bd = gaussian_closed_forms(gamma, 1.0 / (2.0 * gt))
        assert bd.classical == pytest.approx(c_ref, rel=1e-10)
        assert bd.quantum == pytest.approx(q_ref, rel=1e-9)
        assert bd.p_loss == pytest.approx(p_ref, rel=1e-12)
        assert bd.total == pytest.approx(bd.classical + bd.quantum, rel=1e-12)


def test_gaussian_closed_forms_edge_cases():
    assert gaussian_closed_forms(0.0, 0.5).classical == 0.0
    assert gaussian_closed_forms(0.0, 0.5).p_loss == 0.0
    with pytest.raises(Underflow):
        gaussian_closed_forms(5.0, 5e-4)
    with pytest.raises(ValueError):
        gaussian_closed_forms(-1.0, 0.5)


def test_exponential_closed_forms_against_golden_oracle():
    for (gamma, gt, delta), (c_ref, q_ref, p_ref) in EXPONENTIAL_ASYMPTOTIC.items():
        bd = exponential_linear_closed_forms(gamma, gt, delta)
        assert bd.classical == pytest.approx(c_ref, rel=1e-12, abs=1e-15)
        assert bd.quantum == pytest.approx(q_ref, rel=1e-12)
        assert bd.p_loss == pytest.approx(p_ref, rel=1e-12, abs=1e-15)


def test_asymptotic_quadrature_matches_gaussian_closed_form():
    for (gamma, gt), _ in GAUSSIAN_ASYMPTOTIC.items():
        bd = asymptotic_qfi(PulseSpec("gaussian", gt), SystemParams(gamma=gamma))
        ref = gaussian_closed_forms(gamma, 1.0 / (2.0 * gt))
        assert bd.classical == pytest.approx(ref.classical, rel=1e-6)
        assert bd.quantum == pytest.approx(ref.quantum, rel=1e-6)
        assert bd.p_loss == pytest.approx(ref.p_loss, rel=1e-6)


def test_asymptotic_quadrature_matches_exponential_closed_form():
    bd = asymptotic_qfi(PulseSpec("exponential", 4.0, "linear", alpha=1.0),
                        SystemParams(gamma=5.0))
    ref = exponential_linear_closed_forms(5.0, 4.0, 1.0)
    assert bd.classical == pytest.approx(ref.classical, rel=1e-6)
    assert bd.quantum == pytest.approx(ref.quantum, rel=1e-6)


def test_asymptotic_resolves_well_separated_sidebands():
    # Omega = 10 puts the sidebands of a gamma_t = 8 pulse 160 widths apart;
    # without panel breaks at their edges the whole-line quadrature skips
    # some of them
    spec = PulseSpec("gaussian", 8.0, "sinusoidal", omega=10.0)
    params = SystemParams(gamma=0.0)
    late = finite_time_curve(sample_pulse(spec, default_grid(spec)), params).total[-1]
    assert abs(asymptotic_qfi(spec, params).total - late) < 1e-6


def _response(params):
    """The Lorentzian response f, written out independently of chirpqfi."""
    g = params.coupling
    return lambda w: math.sqrt(g) / (0.5 * (g + params.gamma_perp) - 1j * (w - params.detuning))


def _whole_line(fn, density, params, rel_tol):
    """int fn(omega) |xi~(omega)|^2 d omega by one whole-line quadrature."""
    scale = max(density.scale, 0.5 * (1.0 + params.gamma) * params.coupling)
    return integrate_real_line(lambda w: fn(w) * density(w), center=density.center,
                               scale=scale, rel_tol=rel_tol, points=density.breaks)


def _four_quadrature_reference(spec, params, rel_tol=1e-12):
    """(p, dp, <d|d>, <s|d>) as four separate whole-line quadratures, one per
    integrand, with the Lorentzian response written out independently."""
    density = spectral_density(spec)
    g = params.coupling
    sg = math.sqrt(g)
    gp = params.gamma_perp
    f_of = _response(params)

    def line(fn):
        return _whole_line(fn, density, params, rel_tol)

    p = gp * line(lambda w: np.abs(f_of(w)) ** 2).real
    dp = gp * line(lambda w: np.abs(f_of(w)) ** 2 * (1.0 / g - f_of(w).real / sg)).real
    dd = line(lambda w: np.abs(f_of(w) * (2.0 - sg * f_of(w))) ** 2 / (4.0 * g)).real
    sd = line(lambda w: -(1.0 - sg * np.conj(f_of(w))) * f_of(w) * (2.0 - sg * f_of(w))
              / (2.0 * sg))
    return p, dp, dd, sd


@pytest.mark.parametrize("spec", [
    PulseSpec("exponential", 4.0, "quadratic", k=1.0),
    PulseSpec("exponential", 4.0, "quadratic", k=-1.0),
    PulseSpec("gaussian", 2.0, "sinusoidal", omega=1.0),
    PulseSpec("exponential", 4.0, "sinusoidal", omega=1.0),
], ids=["exp-quadratic+", "exp-quadratic-", "gauss-sinusoidal", "exp-sinusoidal"])
def test_moment_route_matches_four_quadrature_reference(spec):
    # families without a closed form, off resonance and lossy; the chirped
    # exponential takes its moments from the lag ray, the others from the line
    params = SystemParams(gamma=2.0, delta=0.3)
    density = spectral_density(spec)
    assert (density.autocorrelation is not None) == (spec.modulation == "quadratic")
    p, dp, dd, sd = _four_quadrature_reference(spec, params)
    classical = dp * dp / (p * (1.0 - p))
    quantum = 4.0 * dd - 4.0 * abs(sd) ** 2 / (1.0 - p)
    bd = asymptotic_qfi(spec, params)
    assert asymptotic_qfi(density, params) == bd
    assert bd.p_loss == pytest.approx(p, rel=1e-9)
    assert bd.classical == pytest.approx(classical, rel=1e-9)
    assert bd.quantum == pytest.approx(quantum, rel=1e-9)
    overlap = (sd + 0.5 * dp) / (1.0 - p)
    assert abs(spectral_overlap(spec, params).overlap - overlap) <= 1e-9 * abs(overlap)


def _frequency_moments(spec, params, rel_tol=1e-10):
    """(m_1, m_2) of the chirped exponential as two whole-line quadratures against
    its closed-form density: the route fisher took before the lag ray."""
    density = spectral_density(spec)
    f_of = _response(params)
    return (_whole_line(f_of, density, params, rel_tol),
            _whole_line(lambda w: f_of(w) ** 2, density, params, rel_tol))


def _rel(x, ref):
    return abs(x - ref) / abs(ref)


def test_ray_moments_match_mpmath_goldens():
    for (gt, k, gamma, delta), refs in EXPONENTIAL_QUADRATIC_MOMENTS.items():
        moments = _ray_moments(Autocorrelation(gt, k), SystemParams(gamma=gamma, delta=delta), 1e-10)
        for m, ref in zip(moments, refs):
            assert _rel(m, ref) <= 1e-9, (gt, k, gamma, delta)


@pytest.mark.parametrize("k", [1.0, -0.7, 0.05, -0.05, 2.0])
@pytest.mark.parametrize("gt", [0.25, 1.125, 2.0, 8.0])
def test_ray_moments_match_frequency_route(gt, k):
    # a detuning of sign opposite to k (sgn(k) Delta < 0) takes the reduced ray angle
    spec = PulseSpec("exponential", gt, "quadratic", k=k)
    corr = spectral_density(spec).autocorrelation
    for gamma in (0.0, 5.0):
        for delta in (0.0, 1.5, -1.5, -3.0):
            params = SystemParams(gamma=gamma, delta=delta)
            ray = _ray_moments(corr, params, 1e-10)
            for m, ref in zip(ray, _frequency_moments(spec, params)):
                assert _rel(m, ref) <= 3e-8, (gamma, delta)


def test_asymptotic_lossless_has_no_classical_part():
    bd = asymptotic_qfi(PulseSpec("gaussian", 1.0), SystemParams(gamma=0.0))
    assert bd.classical == 0.0
    assert bd.p_loss == 0.0
    assert bd.total == pytest.approx(bd.quantum)


def test_bandwidth_substitution_theorem():
    # a quadratic chirp only enters through the enlarged bandwidth
    gt, k = 1.0, 1.0
    sigma_prime = math.sqrt(1.0 + 16.0 * k**2 * gt**4) / (2.0 * gt)
    chirped = asymptotic_qfi(PulseSpec("gaussian", gt, "quadratic", k=k),
                             SystemParams(gamma=5.0))
    ref = gaussian_closed_forms(5.0, sigma_prime)
    assert chirped.classical == pytest.approx(ref.classical, rel=1e-8)
    assert chirped.quantum == pytest.approx(ref.quantum, rel=1e-8)


def test_breakdowns_depend_on_bandwidth_only():
    # different (duration, chirp) pairs with equal bandwidth give equal results
    a = asymptotic_qfi(PulseSpec("gaussian", 1.0, "quadratic", k=1.0), SystemParams(gamma=5.0))
    sigma = math.sqrt(17.0) / 2.0
    gt2 = 2.0
    k2 = math.sqrt((2.0 * gt2 * sigma) ** 2 - 1.0) / (4.0 * gt2**2)
    b = asymptotic_qfi(PulseSpec("gaussian", gt2, "quadratic", k=k2), SystemParams(gamma=5.0))
    assert a.classical == pytest.approx(b.classical, rel=1e-8)
    assert a.quantum == pytest.approx(b.quantum, rel=1e-8)


@settings(max_examples=15, deadline=None)
@given(
    gamma=st.floats(0.0, 8.0),
    delta=st.floats(-2.0, 2.0),
    gamma_t=st.floats(0.4, 6.0),
    envelope=st.sampled_from(["gaussian", "exponential"]),
)
def test_asymptotic_breakdown_invariants(gamma, delta, gamma_t, envelope):
    bd = asymptotic_qfi(PulseSpec(envelope, gamma_t),
                        SystemParams(gamma=gamma, delta=delta))
    assert bd.classical >= -1e-12
    assert bd.quantum >= -1e-12
    assert bd.total == pytest.approx(bd.classical + bd.quantum, abs=1e-12)
    assert -1e-12 <= bd.p_loss <= 1.0


_MODULATION_PARAMETER = {"linear": "alpha", "quadratic": "k", "sinusoidal": "omega"}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    envelope=st.sampled_from(["gaussian", "exponential"]),
    modulation=st.sampled_from(["none", "linear", "quadratic", "sinusoidal"]),
    gamma_t=st.floats(0.5, 3.0),
    param=st.floats(-1.0, 1.0),
    gamma=st.floats(0.0, 5.0),
    delta=st.floats(-1.0, 1.0),
)
def test_asymptotic_matches_late_finite_time_total(envelope, modulation, gamma_t, param, gamma,
                                                   delta):
    # two independent routes to the late-time information: the spectral moments
    # (closed-form density quadrature, or the lag ray for the chirped
    # exponential) and the time-domain solve read at the end of its grid
    name = _MODULATION_PARAMETER.get(modulation)
    spec = PulseSpec(envelope, gamma_t, modulation, **({name: param} if name else {}))
    params = SystemParams(gamma=gamma, delta=delta)
    late = finite_time_curve(sample_pulse(spec, default_grid(spec)), params).total[-1]
    total = asymptotic_qfi(spec, params).total
    assert abs(total - late) / max(abs(late), 0.1) <= 1e-5


def test_finite_time_before_pulse_is_zero():
    spec = PulseSpec("exponential", 1.0)
    pulse = sample_pulse(spec, default_grid(spec))
    bd = finite_time_qfi(pulse, SystemParams(gamma=5.0), -0.5)
    assert bd.classical == 0.0
    assert abs(bd.quantum) < 1e-20


def test_finite_time_node_mismatch():
    spec = PulseSpec("gaussian", 1.0)
    pulse = sample_pulse(spec, default_grid(spec))
    with pytest.raises(NodeMismatch):
        finite_time_qfi(pulse, SystemParams(), 1.00012345)


def test_finite_time_converges_to_asymptote():
    for gt in (1.0, 8.0):
        spec = PulseSpec("gaussian", gt)
        pulse = sample_pulse(spec, default_grid(spec))
        ft = finite_time_qfi(pulse, SystemParams(gamma=5.0), 60.0)
        asym = asymptotic_qfi(spec, SystemParams(gamma=5.0))
        assert abs(ft.total - asym.total) / asym.total < 1e-3


def test_finite_time_decomposition_and_sign():
    spec = PulseSpec("gaussian", 2.0, "quadratic", k=1.0)
    pulse = sample_pulse(spec, default_grid(spec))
    curve = finite_time_curve(pulse, SystemParams(gamma=5.0, delta=1.0))
    assert np.all(curve.classical >= -1e-12)
    assert np.all(curve.quantum >= -1e-10)
    assert np.max(np.abs(curve.total - curve.classical - curve.quantum)) < 1e-12


def test_finite_time_oscillations_without_environment():
    # chirped pulse on a lossless system: the time-resolved classical
    # contribution oscillates during the interaction (qualitative check)
    spec = PulseSpec("gaussian", 2.0, "quadratic", k=1.0)
    pulse = sample_pulse(spec, default_grid(spec))
    curve = finite_time_curve(pulse, SystemParams(gamma=0.0))
    sl = slice(pulse.grid.index_of(-16.0), pulse.grid.index_of(16.0))
    diffs = np.diff(curve.classical[sl])
    assert (diffs > 1e-12).sum() > 100 and (diffs < -1e-12).sum() > 100


def test_derivative_consistency_of_asymptotic_inputs():
    # quadrature p and dp agree with re-solved finite differences
    from chirpqfi.numerics import central_derivative

    spec = PulseSpec("gaussian", 2.0)
    params = SystemParams(gamma=5.0)
    bd = asymptotic_qfi(spec, params)

    def p_of(dg):
        return asymptotic_qfi(spec, params.perturb_coupling(dg)).p_loss

    fd = central_derivative(p_of, 0.0, 1e-4)
    dp = math.sqrt(bd.classical * bd.p_loss * (1.0 - bd.p_loss))
    assert abs(dp) == pytest.approx(abs(fd), rel=1e-5)


def test_spectral_overlap_symmetric_cases():
    for spec in (PulseSpec("gaussian", 2.0),
                 PulseSpec("gaussian", 1.0, "quadratic", k=1.0),
                 PulseSpec("gaussian", 8.0, "sinusoidal", omega=1.0)):
        rep = spectral_overlap(spec, SystemParams(gamma=5.0))
        assert rep.symmetric
        assert abs(rep.overlap) < 1e-8


def test_spectral_overlap_asymmetric_cases():
    for spec in (PulseSpec("gaussian", 1.0, "linear", alpha=1.0),
                 PulseSpec("exponential", 4.0, "quadratic", k=1.0)):
        rep = spectral_overlap(spec, SystemParams(gamma=5.0))
        assert not rep.symmetric
        assert abs(rep.overlap.imag) > 1e-4
        assert abs(rep.overlap.real) < 1e-8


def test_overlap_agrees_between_time_and_frequency_routes():
    # the frequency quadrature and the time-domain inner products of the
    # solved dynamics are fully independent computations of the same overlap
    from chirpqfi.dynamics import excited_amplitude, outgoing_wavepacket
    from chirpqfi.numerics import inner_product, norm_sq

    for spec in (PulseSpec("exponential", 4.0, "quadratic", k=1.0),
                 PulseSpec("gaussian", 1.0, "linear", alpha=1.0),
                 PulseSpec("gaussian", 2.5, "sinusoidal", omega=1.0)):
        params = SystemParams(gamma=5.0)
        freq_route = spectral_overlap(spec, params).overlap
        grid = default_grid(spec)
        pulse = sample_pulse(spec, grid)
        tr = excited_amplitude(pulse, params)
        out = outgoing_wavepacket(pulse, params, tr, grid.t_end)
        nn = norm_sq(out.values, grid.dt, out.jump)
        sd = inner_product(out.values, out.d_values, grid.dt, out.jump, 0.0)
        time_route = (sd - sd.real) / nn
        assert abs(freq_route - time_route) < 1e-6


def test_linear_phase_equals_detuning_through_quadrature():
    a = asymptotic_qfi(PulseSpec("gaussian", 1.0, "linear", alpha=1.0),
                       SystemParams(gamma=5.0, delta=0.0))
    b = asymptotic_qfi(PulseSpec("gaussian", 1.0), SystemParams(gamma=5.0, delta=1.0))
    assert a.total == pytest.approx(b.total, rel=1e-8)
    assert a.classical == pytest.approx(b.classical, rel=1e-8)


def test_linear_phase_wins_at_early_detection_times():
    # without environment loss the detuned probe accumulates quantum
    # information much faster during the interaction, then loses asymptotically
    from chirpqfi.fisher import finite_time_curve

    params = SystemParams(gamma=0.0)
    grid = default_grid(PulseSpec("gaussian", 8.0, "linear", alpha=1.0))
    real = finite_time_curve(sample_pulse(PulseSpec("gaussian", 8.0), grid), params)
    lin = finite_time_curve(
        sample_pulse(PulseSpec("gaussian", 8.0, "linear", alpha=1.0), grid), params)
    for t in (-8.0, 0.0, 8.0):
        i = grid.index_of(t)
        assert lin.quantum[i] > real.quantum[i]
    assert lin.quantum[-1] < real.quantum[-1]


def test_linear_phase_reduces_classical_information_at_strong_coupling():
    # real pulse carries more classical information than its linear-phase
    # counterpart when the environment dominates
    params = SystemParams(gamma=5.0)
    real = asymptotic_qfi(PulseSpec("gaussian", 4.0), params)
    lin = asymptotic_qfi(PulseSpec("gaussian", 4.0, "linear", alpha=1.0), params)
    assert real.classical > lin.classical
