"""NCE for conditional models: estimation, exact population analysis, and
asymptotic efficiency diagnostics over finite input/label spaces."""

from .errors import (
    BudgetError,
    InitializationError,
    NceLabError,
    NumericError,
    SingularMatrixError,
    ValidationError,
)
from .model import (
    ConditionalProblem,
    ContextBias,
    LinearFeatures,
    LinearSoftmax,
    LogBilinear,
    ScoringFunction,
    cond_prob_table,
    log_cond_prob_table,
    problem_from_scores,
)
from .sampling import (
    Dataset,
    NoiseDistribution,
    SamplingConfig,
    counterexample_problem,
    derive_rng,
    generate_dataset,
    make_self_normalized_problem,
    make_synthetic_problem,
    noise_from_spec,
    random_tabular_problem,
    sample_negatives,
)
from .objectives import (
    BinaryParams,
    PosteriorTable,
    RegularizerConfig,
    binary_gradient,
    binary_objective,
    mle_gradient,
    mle_objective,
    population_binary_objective,
    population_ranking_objective,
    posteriors,
    ranking_gradient,
    ranking_objective,
    regularizer,
)
from .optimize import EstimationReport, FitConfig, fit
from .asymptotics import (
    CovarianceReport,
    ReplicationSummary,
    asymptotic_cov,
    binary_asymptotic_cov,
    fisher_information,
    ranking_asymptotic_cov,
    replicate,
)
from .evaluation import EvalResult, d_metric, evaluate, kl_divergence

__version__ = "0.1.0"
