import numpy as np
import pytest

from chirpqfi import cli, modes
from chirpqfi.dynamics import (
    AmplitudePair,
    OutgoingWavepacket,
    SystemParams,
    excited_amplitude,
    outgoing_wavepacket,
)
from chirpqfi.errors import (
    AsymmetricPulse,
    DegenerateSeed,
    GridMismatch,
    SingularOutcome,
    TruncationNotConverged,
    ZeroInformation,
)
from chirpqfi.fisher import asymptotic_qfi, classical_fi, pure_qfi
from chirpqfi.modes import (
    GramSchmidtFromEnvelope,
    HermiteGauss,
    _orthonormalize,
    build_basis,
    modal_grid,
    modal_qfi_check,
    mode_cfi,
    optimal_two_outcome_povm,
    outcome_distribution,
    project_amplitudes,
    sld_eigenbasis,
)
from chirpqfi.numerics import Grid, _weighted_gram, inner_product, norm_sq
from chirpqfi.pulses import PulseSpec, sample_pulse


def _outgoing(spec, params, truncation, kind):
    grid = modal_grid(spec, truncation, kind)
    pulse = sample_pulse(spec, grid)
    tr = excited_amplitude(pulse, params)
    return pulse, outgoing_wavepacket(pulse, params, tr, grid.t_end)


def _grid_total_qfi(out):
    dx = out.grid.dt
    nn = norm_sq(out.values, dx, out.jump)
    dp = -2.0 * inner_product(out.values, out.d_values, dx, out.jump, 0.0).real
    return classical_fi(1.0 - nn, dp) + pure_qfi(out.values, out.d_values, dx, out.jump)


def test_hermite_gauss_ground_mode_is_envelope():
    spec = PulseSpec("gaussian", 1.0)
    kind = HermiteGauss(1.0)
    grid = modal_grid(spec, 0, kind)
    basis = build_basis(kind, 0, grid)
    envelope = sample_pulse(spec, grid).values
    assert np.max(np.abs(basis.functions[0] - envelope)) < 1e-10


def test_basis_orthonormality():
    kind = HermiteGauss(2.5)
    spec = PulseSpec("gaussian", 2.5)
    grid = modal_grid(spec, 12, kind)
    basis = build_basis(kind, 12, grid)
    assert basis.gram_defect() < 1e-8


def test_gram_schmidt_complex_seed_orthonormal():
    spec = PulseSpec("exponential", 2.0, "quadratic", k=1.0)
    kind = GramSchmidtFromEnvelope(spec)
    grid = modal_grid(spec, 8, kind)
    basis = build_basis(kind, 8, grid)
    assert basis.gram_defect() < 1e-8
    seed = sample_pulse(spec, grid)
    assert np.max(np.abs(basis.functions[0] - seed.values)) < 1e-10
    assert np.max(np.abs(basis.functions[0].imag[grid.times() > 1.0])) > 1e-3  # genuinely complex


def test_degenerate_seed_raises():
    v = np.ones((2, 64), dtype=complex)  # duplicated candidate collapses
    with pytest.raises(DegenerateSeed, match=r"pivot 1\b"):
        _orthonormalize(v, np.zeros(2, complex), 0.1)


def _loop_gram_schmidt(funcs, jumps, dx):
    """Reference: modified Gram-Schmidt with one re-orthogonalization pass,
    one trapezoidal inner product at a time."""
    funcs = funcs.astype(complex)
    jumps = jumps.astype(complex)
    for i in range(funcs.shape[0]):
        v, jv = funcs[i], jumps[i]
        for _ in range(2):
            for k in range(i):
                c = inner_product(funcs[k], v, dx, jumps[k], jv)
                v = v - c * funcs[k]
                jv = jv - c * jumps[k]
        nrm = np.sqrt(norm_sq(v, dx, jv))
        funcs[i] = v / nrm
        jumps[i] = jv / nrm
    return funcs, jumps


@pytest.mark.parametrize("spec, kind", [
    (PulseSpec("gaussian", 2.5, "quadratic", k=1.0), HermiteGauss(2.5)),
    (PulseSpec("exponential", 2.0), GramSchmidtFromEnvelope(PulseSpec("exponential", 2.0))),
], ids=["hermite-gauss-chirped", "envelope-exponential"])
def test_build_basis_matches_loop_gram_schmidt(monkeypatch, spec, kind):
    candidates = []

    def capture(funcs, jumps, dx):
        candidates.append((funcs.copy(), jumps.copy()))
        return _orthonormalize(funcs, jumps, dx)

    monkeypatch.setattr(modes, "_orthonormalize", capture)
    grid = modal_grid(spec, 25, kind)
    basis = build_basis(kind, 25, grid)
    ref_funcs, ref_jumps = _loop_gram_schmidt(*candidates[0], grid.dt)
    assert np.max(np.abs(basis.functions - ref_funcs)) < 1e-10
    assert np.max(np.abs(basis.jumps - ref_jumps)) < 1e-10
    assert basis.gram_defect() <= 1e-12
    if isinstance(kind, GramSchmidtFromEnvelope):
        assert np.all(basis.jumps != 0.0)  # the onset-jump term is exercised


def test_project_amplitudes_matches_inner_product_loop():
    spec = PulseSpec("exponential", 2.0, "quadratic", k=0.5)
    params = SystemParams(gamma=5.0)
    kind = GramSchmidtFromEnvelope(spec)
    _, out = _outgoing(spec, params, 8, kind)
    basis = build_basis(kind, 8, out.grid)
    assert out.jump != 0.0 and np.all(basis.jumps != 0.0)
    dx = out.grid.dt
    b = [inner_product(g, out.values, dx, jg, out.jump) for g, jg in zip(basis.functions, basis.jumps)]
    d = [inner_product(g, out.d_values, dx, jg, 0.0) for g, jg in zip(basis.functions, basis.jumps)]
    modal = project_amplitudes(out, basis)
    assert np.max(np.abs(modal.amplitudes - b)) < 1e-12
    assert np.max(np.abs(modal.derivatives - d)) < 1e-12


_MODULATIONS = {"none": {}, "linear": {"alpha": 0.7}, "quadratic": {"k": 0.3},
                "sinusoidal": {"omega": 1.3}}


def _check_real_profile_basis(spec, kind):
    """Real float64 profiles times one phase, orthonormal as complex functions,
    and projections equal to the per-mode inner_product loop."""
    _, out = _outgoing(spec, SystemParams(gamma=2.0, delta=0.3), 25, kind)
    grid, dx = out.grid, out.grid.dt
    basis = build_basis(kind, 25, grid)
    assert basis.profiles.dtype == np.float64 and basis.profile_jumps.dtype == np.float64
    functions, jumps = basis.functions, basis.jumps
    phase = 1.0 if basis.phase is None else basis.phase
    assert np.array_equal(functions, basis.profiles * phase)
    assert np.array_equal(jumps, basis.profile_jumps)
    assert basis.gram_defect() <= 1e-12
    gram = _weighted_gram(functions, functions, dx, jumps, jumps)
    assert np.max(np.abs(gram - np.eye(26))) <= 1e-12
    b = [inner_product(g, out.values, dx, jg, out.jump) for g, jg in zip(functions, jumps)]
    d = [inner_product(g, out.d_values, dx, jg, 0.0) for g, jg in zip(functions, jumps)]
    modal = project_amplitudes(out, basis)
    assert np.max(np.abs(modal.amplitudes - b)) <= 1e-12
    assert np.max(np.abs(modal.derivatives - d)) <= 1e-12
    return basis, out


def test_hermite_gauss_basis_is_real():
    spec = PulseSpec("gaussian", 1.5, "quadratic", k=0.3)
    basis, _ = _check_real_profile_basis(spec, HermiteGauss(1.5))
    assert basis.phase is None


@pytest.mark.parametrize("modulation", list(_MODULATIONS))
@pytest.mark.parametrize("envelope", ["gaussian", "exponential"])
def test_envelope_basis_is_real_profiles_times_the_pulse_phase(envelope, modulation):
    spec = PulseSpec(envelope, 1.5, modulation, **_MODULATIONS[modulation])
    basis, out = _check_real_profile_basis(spec, GramSchmidtFromEnvelope(spec))
    assert (basis.phase is None) == (modulation == "none")
    seed = sample_pulse(spec, out.grid)  # g_0 is the normalized pulse, phase included
    assert np.max(np.abs(basis.functions[0] - seed.values)) < 1e-12
    assert abs(basis.jumps[0] - seed.jump) < 1e-12
    if envelope == "exponential":
        assert np.all(basis.profile_jumps != 0.0)  # the onset-jump term is exercised


def test_cli_orthonormalizes_real_candidates(monkeypatch):
    dtypes = []

    def capture(funcs, jumps, dx):
        dtypes.append((funcs.dtype, jumps.dtype))
        return _orthonormalize(funcs, jumps, dx)

    monkeypatch.setattr(modes, "_orthonormalize", capture)
    for basis in ("hg", "envelope"):
        sc = cli.Scenario(PulseSpec("exponential", 1.0, "quadratic", k=0.5), SystemParams(gamma=5.0),
                          mode="mode_cfi", basis=basis, j_max=4)
        cli.run_scenario(sc)
    assert dtypes == [(np.float64, np.float64)] * 2


def test_nearly_dependent_candidates_name_the_pivot():
    # the factorization succeeds, but the third pivot is 1e-7 of its norm
    grid = Grid(-10.0, 10.0, 4001)
    hg = modes._hermite_gauss_functions(grid.times(), 1.0, 3)
    funcs = np.stack([hg[0], hg[1], hg[0] + 1e-7 * hg[2]])
    with pytest.raises(DegenerateSeed, match=r"pivot 2\b"):
        _orthonormalize(funcs, np.zeros(3, complex), grid.dt)


def test_orthonormalize_works_in_place_and_accepts_independent_candidates():
    grid = Grid(-10.0, 10.0, 4001)
    hg = modes._hermite_gauss_functions(grid.times(), 1.0, 3)
    funcs = np.stack([hg[0], hg[1], hg[0] + 1e-4 * hg[2]])
    jumps = np.zeros(3)  # real, like the Hermite-Gauss candidates
    out, out_jumps = _orthonormalize(funcs, jumps, grid.dt)
    assert out is funcs and out_jumps is jumps  # documented: overwrites its arguments
    assert np.max(np.abs(funcs - hg)) < 1e-10


def test_projection_grid_mismatch():
    spec = PulseSpec("gaussian", 1.0)
    kind = HermiteGauss(1.0)
    params = SystemParams(gamma=1.0)
    _, out = _outgoing(spec, params, 3, kind)
    other_grid = modal_grid(spec, 8, kind)
    with pytest.raises(GridMismatch):
        project_amplitudes(out, build_basis(kind, 3, other_grid))


def test_forward_scattering_limit():
    # far detuned and lossless: the photon passes through into mode zero
    spec = PulseSpec("gaussian", 1.0)
    params = SystemParams(gamma=0.0, delta=60.0)
    kind = GramSchmidtFromEnvelope(spec)
    _, out = _outgoing(spec, params, 5, kind)
    basis = build_basis(kind, 5, out.grid)
    modal = project_amplitudes(out, basis)
    assert abs(modal.amplitudes[0]) > 0.9999
    assert np.max(np.abs(modal.amplitudes[1:])) < 0.02
    assert modal.p_loss.p < 1e-6


def test_real_pulse_has_real_ground_amplitude():
    spec = PulseSpec("gaussian", 2.0)
    params = SystemParams(gamma=5.0)
    kind = GramSchmidtFromEnvelope(spec)
    _, out = _outgoing(spec, params, 5, kind)
    modal = project_amplitudes(out, build_basis(kind, 5, out.grid))
    assert abs(modal.amplitudes[0].imag) < 1e-8


def test_modal_completeness():
    spec = PulseSpec("gaussian", 2.5)
    params = SystemParams(gamma=5.0)
    kind = GramSchmidtFromEnvelope(spec)
    _, out = _outgoing(spec, params, 20, kind)
    modal = project_amplitudes(out, build_basis(kind, 20, out.grid))
    captured = np.sum(np.abs(modal.amplitudes) ** 2)
    survive = 1.0 - modal.p_loss.p
    assert captured >= 0.999 * survive
    assert captured <= survive + 1e-6


def test_outcome_distribution_partitions_unity():
    spec = PulseSpec("gaussian", 2.5, "sinusoidal", omega=1.0)
    params = SystemParams(gamma=5.0)
    kind = HermiteGauss(2.5)
    _, out = _outgoing(spec, params, 10, kind)
    modal = project_amplitudes(out, build_basis(kind, 10, out.grid))
    probs, derivs = outcome_distribution(modal, 10)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert abs(derivs.sum()) < 1e-12
    assert np.all(probs >= 0.0)
    # remainder (completeness gap) stays nonnegative
    assert probs[-1] >= -1e-8


def test_mode_cfi_thresholds():
    assert mode_cfi(np.array([0.5, 0.5]), np.array([1.0, -1.0])) == pytest.approx(4.0)
    # dead outcome with dead derivative contributes nothing
    assert mode_cfi(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.0
    with pytest.raises(SingularOutcome):
        mode_cfi(np.array([1.0, 0.0]), np.array([0.1, -0.1]))


def test_mode_cfi_data_processing_and_monotonicity():
    spec = PulseSpec("gaussian", 2.5, "sinusoidal", omega=1.0)
    params = SystemParams(gamma=5.0)
    kind = HermiteGauss(2.5)
    _, out = _outgoing(spec, params, 15, kind)
    modal = project_amplitudes(out, build_basis(kind, 15, out.grid))
    qfi = asymptotic_qfi(spec, params).total
    previous = -1.0
    for j in range(16):
        probs, derivs = outcome_distribution(modal, j)
        cfi = mode_cfi(probs, derivs)
        assert cfi <= qfi + 1e-6
        assert cfi >= previous - 1e-10
        previous = cfi


def test_mode_cfi_saturates_for_envelope_basis():
    spec = PulseSpec("gaussian", 2.0)
    params = SystemParams(gamma=5.0)
    kind = GramSchmidtFromEnvelope(spec)
    _, out = _outgoing(spec, params, 12, kind)
    modal = project_amplitudes(out, build_basis(kind, 12, out.grid))
    probs, derivs = outcome_distribution(modal, 12)
    qfi = asymptotic_qfi(spec, params).total
    assert mode_cfi(probs, derivs) == pytest.approx(qfi, rel=1e-3)


def test_two_outcome_povm_saturation_and_orthogonality():
    spec = PulseSpec("gaussian", 2.5)
    params = SystemParams(gamma=5.0)
    _, out = _outgoing(spec, params, 5, HermiteGauss(2.5))
    qfi = _grid_total_qfi(out)
    phi_plus, phi_minus, cfi = optimal_two_outcome_povm(out, qfi)
    assert cfi == pytest.approx(qfi, rel=1e-6)
    dx = out.grid.dt
    assert abs(inner_product(phi_plus, phi_minus, dx)) < 1e-6
    assert norm_sq(phi_plus, dx) == pytest.approx(1.0, abs=1e-6)
    assert norm_sq(phi_minus, dx) == pytest.approx(1.0, abs=1e-6)


def test_two_outcome_povm_rejects_asymmetric_pulse():
    spec = PulseSpec("exponential", 4.0, "quadratic", k=1.0)
    params = SystemParams(gamma=5.0)
    _, out = _outgoing(spec, params, 3, GramSchmidtFromEnvelope(spec))
    with pytest.raises(AsymmetricPulse):
        optimal_two_outcome_povm(out, _grid_total_qfi(out))


def test_sld_saturates_for_asymmetric_pulse():
    spec = PulseSpec("exponential", 4.0, "quadratic", k=1.0)
    params = SystemParams(gamma=5.0)
    _, out = _outgoing(spec, params, 3, GramSchmidtFromEnvelope(spec))
    qfi = _grid_total_qfi(out)
    m_plus, m_minus, cfi = sld_eigenbasis(out)
    assert cfi == pytest.approx(qfi, rel=1e-6)
    dx = out.grid.dt
    assert abs(inner_product(m_plus, m_minus, dx,
                             0.5 * (m_plus[out.onset_index] * 2), 0.5 * (m_minus[out.onset_index] * 2))) < 1e-4


def test_sld_matches_two_outcome_for_symmetric_pulse():
    spec = PulseSpec("gaussian", 2.0)
    params = SystemParams(gamma=5.0)
    _, out = _outgoing(spec, params, 3, HermiteGauss(2.0))
    _, _, cfi_povm = optimal_two_outcome_povm(out, _grid_total_qfi(out))
    _, _, cfi_sld = sld_eigenbasis(out)
    assert cfi_povm == pytest.approx(cfi_sld, rel=1e-9)


def test_sld_zero_information():
    spec = PulseSpec("gaussian", 1.0)
    params = SystemParams(gamma=1.0)
    pulse, out = _outgoing(spec, params, 2, HermiteGauss(1.0))
    frozen = OutgoingWavepacket(out.grid, out.values, np.zeros_like(out.values),
                                out.t_index, out.jump, out.onset_index)
    with pytest.raises(ZeroInformation):
        sld_eigenbasis(frozen)


def test_modal_qfi_check_matches_quadrature():
    spec = PulseSpec("gaussian", 2.0)
    params = SystemParams(gamma=5.0)
    kind = GramSchmidtFromEnvelope(spec)
    _, out = _outgoing(spec, params, 20, kind)
    modal = project_amplitudes(out, build_basis(kind, 20, out.grid))
    total = modal_qfi_check(modal, modal.p_loss)
    ref = asymptotic_qfi(spec, params).total
    assert abs(total - ref) / ref < 1e-4


def test_modal_qfi_check_lossless_drops_classical_term():
    # without environment loss the scattered tail relaxes at half the unit
    # rate, so the polynomial continuation needs a deeper truncation
    spec = PulseSpec("gaussian", 2.0)
    params = SystemParams(gamma=0.0)
    kind = GramSchmidtFromEnvelope(spec)
    _, out = _outgoing(spec, params, 50, kind)
    modal = project_amplitudes(out, build_basis(kind, 50, out.grid))
    total = modal_qfi_check(modal, AmplitudePair(0.0, 0.0))
    ref = asymptotic_qfi(spec, params).total
    assert abs(total - ref) / ref < 1e-4


def test_modal_qfi_check_truncation_guard():
    # slow Laguerre convergence at small truncation must be reported
    spec = PulseSpec("exponential", 2.0)
    params = SystemParams(gamma=5.0)
    kind = GramSchmidtFromEnvelope(spec)
    _, out = _outgoing(spec, params, 4, kind)
    modal = project_amplitudes(out, build_basis(kind, 4, out.grid))
    with pytest.raises(TruncationNotConverged):
        modal_qfi_check(modal, modal.p_loss)


def test_symmetric_pulse_modal_cross_term_vanishes():
    spec = PulseSpec("gaussian", 2.0)
    params = SystemParams(gamma=5.0)
    kind = GramSchmidtFromEnvelope(spec)
    _, out = _outgoing(spec, params, 15, kind)
    modal = project_amplitudes(out, build_basis(kind, 15, out.grid))
    cross = np.imag(np.vdot(modal.amplitudes, modal.derivatives))
    assert abs(cross) < 1e-8
