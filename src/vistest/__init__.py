"""Visibility-based binary hypothesis testing for two-port
photon-counting interference, with and without a shared phase
reference."""

__version__ = "0.1.0"

from .util import DomainError
from .photostat import (
    ComplexVisibility,
    DetectionParams,
    JointPhotocountDistribution,
    CountDifferenceDistribution,
    port_intensities,
    effective_params,
    poisson_counts,
    joint_fixed_phase,
    joint_random_phase,
    marginal_difference,
    retruncate,
    waveplate_visibility,
    visibility_from_amplitudes,
)
from .chernoff import (
    ChernoffResult,
    chernoff_information,
    chernoff_coherent_closed_form,
    chernoff_bound,
    tilted_distribution,
    relative_entropy,
    refined_bound,
    refined_bound_from,
)
from .energyopt import (
    EnergyScanResult,
    info_per_photon,
    optimal_energy,
    random_phase_map,
    coherent_map,
)
from .simkit import (
    Decision,
    ExperimentConfig,
    ErrorEstimate,
    sample_dataset,
    log_likelihood_ratio,
    neyman_pearson,
    error_curve,
    estimate_error,
    worst_case_curve,
    worst_case_sweep,
    exact_error,
)
from .fingerprint import (
    CodeSpec,
    CrossoverResult,
    binary_entropy,
    gv_rate,
    modified_rate,
    modified_rate_appended,
    delta_from_visibilities,
    visibility_from_hamming,
    bpsk_overlap,
    classical_lower_bound,
    best_classical,
    repetitions_needed,
    quantum_revealed,
    crossover,
)
from .tagio import (
    TagRecord,
    BinningConfig,
    TagStream,
    EmpiricalHistogram,
    parse_tags,
    bin_counts,
    histogram,
    compare_to_theory,
    synthesize_tags,
)
