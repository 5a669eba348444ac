"""Simulation-free SIMEX estimation for regression with mismeasured covariates.

Estimates parametric regression models whose covariates are observed with
additive normal measurement error of known covariance.  Instead of averaging
over simulated noise like classical SIMEX, each family's loss is replaced by
its exact conditional expectation given the observed data, indexed by the
noise level lambda; estimation then either plugs in lambda = -1 directly or
extrapolates a fitted lambda-trend back to -1.
"""

from .data import (
    Dataset,
    ReplicatePairs,
    estimate_sigma_u_from_replicates,
    load_dataset,
)
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    EstimationError,
    FactorizationError,
    GridConvergenceError,
    IllPosedError,
    ModelMismatchError,
    PoleError,
    SimexfreeError,
)
from .extrapolate import (
    EstimateConfig,
    EstimateResult,
    FittedExtrapolant,
    GridEstimates,
    LambdaGrid,
    direct_estimate,
    ex_estimate,
    extrapolate_to_minus_one,
    fit_extrapolant,
    grid_estimate,
    linear_closed_form,
    linear_exact_extrapolant,
    naive_estimate,
)
from .gaussian import (
    GaussianFactorization,
    density_product_factorize,
    gauss_hermite_expectation,
    normal_cdf,
    normal_pdf,
)
from .montecarlo import (
    CellResult,
    MisspecReport,
    Scenario,
    SummaryRow,
    linear_direct_asymptotic_variance,
    misspecification_study,
    quantile_lines_study,
    run_study,
    simulate_dataset,
    summarize,
)
from .optimize import (
    MinimizeOptions,
    MinimizeResult,
    finite_difference_gradient,
    minimize,
    minimize_batch,
)
from .simex import SimexConfig, classical_simex, pseudo_data
from .targets import (
    MeanFunction,
    ModelSpec,
    TargetContext,
    Theta,
    target_expectile,
    target_exponential,
    target_generic_ls,
    target_gradient,
    target_lare,
    target_linear,
    target_logistic,
    target_lpre,
    target_poisson_negloglik,
    target_quantile,
    target_sine,
    target_value,
    target_walsh,
)

__version__ = "0.1.0"
