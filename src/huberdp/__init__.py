"""Huber-noise differential privacy and private low-rank matrix completion.

The mechanisms module provides the Huber noise distribution (Gaussian
center, exponential tails), exact sampling, variance calibration, and
(epsilon, delta) accounting next to the Laplace and Gaussian mechanisms.
The solver modules complete partially observed low-rank matrices with
noise-injected alternating least squares or IRLS under the Huber loss, and
the bench_cli module wraps everything in a reproducible benchmark harness.
"""

from .mechanisms import (
    BudgetRow,
    CalibrationError,
    ConsistencyError,
    HuberParams,
    MechanismConfig,
    NoiseDraw,
    PrivacyBudget,
    Sensitivity,
    UNIT_VARIANCE_ALPHA,
    budget_table,
    calibrate_alpha,
    epsilon_gaussian,
    epsilon_huber,
    epsilon_laplace,
    huber_alpha_for_variance,
    huber_cdf,
    huber_central_mass,
    huber_influence,
    huber_loss,
    huber_normalizer,
    huber_pdf,
    huber_variance,
    mechanism_budget,
    privacy_gap,
    privacy_gap_estimates,
    sample,
)
from .robust_solvers import (
    IrlsConfig,
    RidgeProblem,
    WeightDiagonal,
    huber_objective,
    irls_weights,
    r_irls,
    ridge_solve,
)
from .lrmc import (
    DrawCounters,
    FactorPair,
    ObservedMatrix,
    SolverConfig,
    SolverDivergence,
    complete,
    completion_objective,
    irls_huber,
    noisy_als,
    resolve_loss_alpha,
    rmse,
)
from .data_io import (
    ParseReport,
    RatingsParseError,
    RunRecord,
    SchemaVersionError,
    SyntheticSpec,
    generate_synthetic,
    holdout_split,
    load_run,
    mask_entries,
    parse_movielens,
    parse_sweetrs,
    persist_run,
    subsample,
    synthetic_truth,
    write_summary_csv,
)

__version__ = "0.1.0"
