"""Net effects of treatments in sequentially randomized designs.

The package estimates, for each period of a longitudinal design, the
effect of the treatment taken at that period net of everything it
triggers later. Empirical stratum means feed a backward recursion for
the exact net effects, per-stratum point effects feed a weighted
least-squares fit when a pattern file pools them, and a simulator with
exact ground truth closes the loop for validation.
"""

from .dataset import Dataset, load_dataset, save_dataset
from .errors import (
    CoverageError,
    DgpError,
    DiagnosticError,
    DomainError,
    EstimabilityError,
    IdentifiabilityError,
    IncompletenessError,
    ParseError,
    PatternError,
    SeqEffectsError,
    UsageError,
)
from .estimation import (
    FittedNetEffect,
    NetEffectFit,
    ResamplingReport,
    TestResult,
    discover_pattern,
    expected_target_covariance,
    fit_net_effects,
    net_effect_null_test,
    pooled_outcome_variance,
    resampling_diagnostic,
    standard_mean_equality_test,
)
from .keys import Covariate, MarkovKey, PointEffectKey, StratumKey
from .net_effects import (
    NetEffectTable,
    compute_net_effects,
    decompose_point_effect,
    downstream_weighted_sum,
    missing_controls,
    verify_decomposition,
)
from .patterns import (
    ConstraintSystem,
    PatternSpec,
    build_constraints,
    parse_pattern,
    saturated_pattern,
)
from .point_params import (
    PointParams,
    extract_point_params,
    reconstruct_history_mean,
)
from .simulator import (
    DgpSpec,
    causal_net_effects,
    dataset_from_table,
    enumerate_support,
    make_confounded_dgp,
    make_dyadic_markov_dgp,
    make_markov_dgp,
    make_null_proxy_dgp,
    make_pattern_dgp,
    make_reference_fixture,
    make_sequential_dgp,
    make_small_fixture,
    parse_dgp,
    population_table,
    simulate,
)
from .strata import VarianceMode, point_effect_targets
from .tables import MeanTable

__version__ = "0.1.0"

__all__ = [
    "Covariate",
    "CoverageError",
    "ConstraintSystem",
    "Dataset",
    "DgpError",
    "DgpSpec",
    "DiagnosticError",
    "DomainError",
    "EstimabilityError",
    "FittedNetEffect",
    "IdentifiabilityError",
    "IncompletenessError",
    "MarkovKey",
    "MeanTable",
    "NetEffectFit",
    "NetEffectTable",
    "ParseError",
    "PatternError",
    "PatternSpec",
    "PointEffectKey",
    "PointParams",
    "ResamplingReport",
    "SeqEffectsError",
    "StratumKey",
    "TestResult",
    "UsageError",
    "VarianceMode",
    "build_constraints",
    "causal_net_effects",
    "compute_net_effects",
    "dataset_from_table",
    "decompose_point_effect",
    "discover_pattern",
    "downstream_weighted_sum",
    "enumerate_support",
    "expected_target_covariance",
    "extract_point_params",
    "fit_net_effects",
    "load_dataset",
    "make_confounded_dgp",
    "make_dyadic_markov_dgp",
    "make_markov_dgp",
    "make_null_proxy_dgp",
    "make_pattern_dgp",
    "make_reference_fixture",
    "make_sequential_dgp",
    "make_small_fixture",
    "missing_controls",
    "net_effect_null_test",
    "parse_dgp",
    "parse_pattern",
    "point_effect_targets",
    "pooled_outcome_variance",
    "population_table",
    "reconstruct_history_mean",
    "resampling_diagnostic",
    "saturated_pattern",
    "save_dataset",
    "simulate",
    "standard_mean_equality_test",
    "verify_decomposition",
]
