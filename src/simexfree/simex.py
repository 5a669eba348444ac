"""Classical three-step simulation SIMEX baseline.

For each grid noise level, the naive estimator is recomputed on many
independently perturbed copies of the surrogates and averaged; a trend fitted
to the averages is evaluated at lambda = -1.  Kept as a cross-check for the
simulation-free estimator, which replaces the simulation step by an exact
conditional expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .data import Dataset, psd_factor
from .errors import ConfigError, EstimationError
from .extrapolate import (
    EstimateResult,
    FittedExtrapolant,
    GridEstimates,
    LambdaGrid,
    extrapolate_to_minus_one,
    fit_extrapolant,
    minimize_target,
    naive_estimate,
    point_options,
)
from .optimize import MinimizeOptions
from .targets import ModelSpec, Theta, naive_start

NaiveSolver = Callable[[ModelSpec, Dataset, np.ndarray], np.ndarray]


@dataclass
class SimexConfig:
    """Replicate count, grid, extrapolant kind, and RNG seed.

    Each (grid point, replicate) pair draws from its own counter-keyed
    stream, so results are reproducible and independent of evaluation order.
    ``naive_solver`` overrides the default lambda = 0 minimization on
    perturbed data; it receives (model, dataset, start) and returns a flat
    estimate.
    """

    b: int = 100
    grid: LambdaGrid = field(default_factory=LambdaGrid.default)
    kind: str = "quadratic"
    seed: int = 0
    naive_solver: NaiveSolver | None = None
    options: MinimizeOptions | None = None
    nodes: int = 30

    def __post_init__(self):
        if self.b < 1:
            raise ConfigError("replicate count b must be at least 1")


def _stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """Counter-keyed Philox generator: one independent stream per key."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def pseudo_data(dataset: Dataset, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Surrogates with extra noise: z + sqrt(lam) v, v ~ N(0, sigma_u) rowwise."""
    if lam < 0:
        raise ConfigError(f"lam must be nonnegative, got {lam}")
    if lam == 0:
        return np.array(dataset.z)
    root = psd_factor(dataset.sigma_u)
    v = rng.standard_normal((dataset.n, dataset.p)) @ root.T
    return dataset.z + np.sqrt(lam) * v


def _default_solver(options: MinimizeOptions | None, nodes: int) -> NaiveSolver:
    def solve(model: ModelSpec, dataset: Dataset, start: np.ndarray) -> np.ndarray:
        res = minimize_target(model, dataset, 0.0, start, options, nodes)
        if not res.converged:
            # a warm start can crawl on an unlucky pseudo sample; retry from
            # the family start with a larger iteration budget
            fresh = naive_start(model, dataset)
            base = point_options(model, 0.0, fresh, options)
            big = replace(base, max_iters=4 * base.max_iters)
            res = minimize_target(model, dataset, 0.0, fresh, big, nodes)
        if not res.converged:
            raise EstimationError(
                f"naive solve on pseudo-data did not converge (status {res.status})"
            )
        return res.theta_hat

    return solve


def classical_simex(
    model: ModelSpec, dataset: Dataset, config: SimexConfig | None = None
) -> EstimateResult:
    """Classical SIMEX estimate with per-lambda Monte Carlo standard errors.

    The lambda = 0 average equals the naive estimate exactly (no noise is
    added there).  Replicates start from the naive estimate, never from each
    other, so any evaluation order yields the same result.
    """
    cfg = config or SimexConfig()
    solver = cfg.naive_solver or _default_solver(cfg.options, cfg.nodes)
    naive = naive_estimate(model, dataset, cfg.options, cfg.nodes)
    naive_flat = naive.theta_hat
    q = naive_flat.size
    lams = cfg.grid.values
    means = np.empty((lams.size, q))
    ses = np.zeros((lams.size, q))
    means[0] = naive_flat
    failures = []
    for k in range(1, lams.size):
        draws = np.empty((cfg.b, q))
        for b in range(cfg.b):
            rng = _stream(cfg.seed, (k, b))
            zb = pseudo_data(dataset, float(lams[k]), rng)
            try:
                draws[b] = solver(model, Dataset(y=dataset.y, z=zb, sigma_u=dataset.sigma_u), naive_flat)
            except EstimationError:
                failures.append((float(lams[k]), b))
                draws[b] = np.nan
        if np.any(np.isnan(draws)):
            bad = [f"lambda={lam:g} b={b}" for lam, b in failures]
            raise EstimationError(
                "naive solves failed on pseudo-data: " + ", ".join(bad)
            )
        means[k] = draws.mean(axis=0)
        if cfg.b > 1:
            ses[k] = draws.std(axis=0, ddof=1) / np.sqrt(cfg.b)
    ge = GridEstimates(grid=cfg.grid, thetas=means)
    fit: FittedExtrapolant = fit_extrapolant(ge, cfg.kind)
    flat = extrapolate_to_minus_one(fit)
    has_int = model.has_intercept
    return EstimateResult(
        theta_hat=Theta.from_flat(flat, has_int),
        path="extrapolated",
        kind=cfg.kind,
        naive=Theta.from_flat(naive_flat, has_int),
        grid=ge,
        extrapolant=fit,
        mc_se=ses,
    )
