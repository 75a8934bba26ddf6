"""Fisher information of chirped single-photon pulses probing a two-level system.

Compute how precisely the coupling rate of a two-level system can be
estimated from a scattered single-photon pulse with a Gaussian or
exponential envelope and a linear, quadratic, or sinusoidal temporal
phase: finite-time and asymptotic information breakdowns, analytic
cross-check oracles, and the information of mode-resolved photon-counting
measurements.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AsymmetricPulse,
    ChirpQFIError,
    DegenerateModel,
    DegenerateSeed,
    DivergentMoment,
    EdgeLeakage,
    GridMismatch,
    GridTooNarrow,
    InvalidInterval,
    NodeMismatch,
    NonConvergence,
    SingularOutcome,
    TruncationNotConverged,
    Underflow,
    UnknownPreset,
    VacuumOnly,
    ZeroInformation,
)
from .numerics import (  # noqa: F401
    FrequencyGrid,
    Grid,
    central_derivative,
    discrete_fourier,
    evolve_driven_decay,
    integrate_adaptive,
    inverse_discrete_fourier,
    scaled_erfc,
)
from .pulses import (  # noqa: F401
    PulseSpec,
    SampledPulse,
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
from .dynamics import (  # noqa: F401
    AmplitudePair,
    LossProbability,
    OutgoingWavepacket,
    SystemParams,
    Trajectory,
    asymptotic_spectra,
    characteristic_function,
    environment_norm_curve,
    excited_amplitude,
    loss_probability,
    outgoing_norm_curve,
    outgoing_wavepacket,
)
from .fisher import (  # noqa: F401
    FisherBreakdown,
    FisherCurve,
    OverlapReport,
    asymptotic_qfi,
    classical_fi,
    exponential_linear_closed_forms,
    finite_time_curve,
    finite_time_qfi,
    gaussian_closed_forms,
    pure_qfi,
    spectral_overlap,
)
from .modes import (  # noqa: F401
    GramSchmidtFromEnvelope,
    HermiteGauss,
    ModalSet,
    ModeBasis,
    build_basis,
    conditional_cumulative_ratio,
    modal_grid,
    modal_qfi_check,
    mode_cfi,
    optimal_two_outcome_povm,
    outcome_distribution,
    project_amplitudes,
    sld_eigenbasis,
)
