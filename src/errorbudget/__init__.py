"""Approximation-error budget optimization for compiled quantum programs."""

from .model import (
    EPSILON_CEILING,
    EPSILON_FLOOR,
    BudgetNode,
    ChildEdge,
    CompiledModel,
    EvaluationError,
    ExpansionLimitError,
    FlatInstance,
    LeafCost,
    ModelError,
    Multiplicity,
    NodeKind,
    ParameterBinding,
    Rounding,
    ToleranceVector,
    ValidationReport,
    as_ceiled,
    compile_model,
    expand_flat,
    is_feasible,
    total_cost,
    total_error,
    validate_model,
)
from .modelio import ModelFormatError, load_model, model_from_dict, model_to_dict, save_model
from .tfim import ConfigurationError, TfimConfig, build_tfim_model, rotation_group_binding

__version__ = "0.1.0"

from .anneal import (  # noqa: E402  (circular-import-free tail imports)
    AnnealConfig,
    AnnealResult,
    InfeasibleError,
    RefinementError,
    RunSummary,
    Trace,
    acceptance_probability,
    anneal,
    find_feasible,
    grid_search_reference,
    log_grid,
    measure_acceptance,
    tune_delta,
    warm_start,
)
from .experiments import ExperimentSpec, KINDS, default_spec, run_experiment  # noqa: E402
from .normlab import (  # noqa: E402
    CompositionReport,
    IsingEvolutionSpec,
    build_hamiltonian,
    fit_loglog_slope,
    perturb_unitary,
    random_unitary,
    rz,
    spectral_norm,
    trotter_error,
    trotter_error_sweep,
    verify_composition_bound,
    verify_lemma1,
)
