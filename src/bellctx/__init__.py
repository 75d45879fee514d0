"""Per-context classical probability spaces, CHSH Monte Carlo, and
frame-function checks for finite-dimensional quantum models."""

from .chsh import ChshCombination, DEFAULT_COMBINATION, all_combinations, chsh_value, correlations
from .gleason import (
    AdditivityReport,
    ExtravalenceReport,
    FrameFunction,
    TraceFormFit,
    check_orthogonal_additivity,
    dim2_counterexample,
    extravalence_check,
    fit_trace_form,
    haar_unitary,
    intertwined_contexts,
    random_context,
    random_density,
)
from .harness import (
    CountsTable,
    EstimateReport,
    ExperimentResult,
    estimate_report,
    exact_estimates,
    read_event_log,
    run_experiment,
)
from .kolmogorov import (
    ClassicalProbabilitySpace,
    KolmogorovReport,
    SettingsSpec,
    build_mixed_context_space_from_tables,
    build_single_context_space,
    optimal_settings,
    szabo_chsh,
    verify_kolmogorov,
)
from .models import (
    DeterministicStrategy,
    MixedLhvModel,
    OutcomeModel,
    PrBoxModel,
    QuantumModel,
    SignallingModel,
    SignallingTablesError,
    SuperdeterministicModel,
    enumerate_deterministic_strategies,
    lhv_max_chsh,
    local_polytope_membership,
    nearest_lhv_mixture,
    no_signalling_deltas,
    superdeterministic_s4_example,
    tables_from_json,
)
from .quantum import (
    Context,
    DensityOperator,
    DichotomicObservable,
    Projector,
    born_probability,
    context_distribution,
    maximally_mixed,
    photon_pair_state,
    polarization_observable,
    pure_state,
    tensor,
)

__version__ = "0.1.0"
