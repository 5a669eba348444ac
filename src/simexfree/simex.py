"""Classical three-step simulation SIMEX baseline.

For each grid noise level, the naive estimator is recomputed on many
independently perturbed copies of the surrogates and averaged; a trend fitted
to the averages is evaluated at lambda = -1.  Kept as a cross-check for the
simulation-free estimator, which replaces the simulation step by an exact
conditional expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import ConfigError, EstimationError
from .extrapolate import (
    EstimateConfig,
    EstimateResult,
    FittedExtrapolant,
    GridEstimates,
    extrapolate_to_minus_one,
    fit_extrapolant,
    naive_estimate,
    point_options,
    row_solver,
)
# not called here: the benchmark's tracer (perfbench/tracing.py) patches
# this name in this module, so it stays importable from it
from .extrapolate import minimize_target  # noqa: F401
from .targets import ModelSpec, Theta


@dataclass
class SimexConfig(EstimateConfig):
    """Every :class:`EstimateConfig` setting, plus the replicate count ``b``
    and the RNG ``seed``.

    Each (grid point, replicate) pair draws from its own counter-keyed
    stream, so results are reproducible and independent of evaluation order.
    """

    b: int = 100
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
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
    v = rng.standard_normal((dataset.n, dataset.p)) @ dataset.sigma_root.T
    return dataset.z + np.sqrt(lam) * v


def _replicate_solves(
    model: ModelSpec, dataset: Dataset, cfg: SimexConfig, k: int, start: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """The B naive solves at grid point k, each warm-started at ``start``.

    Returns the estimates (B, q) and the replicates whose solve failed even
    after its retry.  The B pseudo-data sets are one solve of
    :func:`row_solver`.  A warm start can crawl on an unlucky pseudo
    sample, so the rows that did not converge are one more, from the
    configured start, or the family start on their pseudo-data, with four
    times the iterations.  A Dataset is built per pseudo-data set only for
    a retried row.
    """
    lam = float(cfg.grid.values[k])
    zs = np.stack([pseudo_data(dataset, lam, _stream(cfg.seed, (k, b))) for b in range(cfg.b)])
    res = row_solver(model, dataset, cfg, zs)(np.arange(cfg.b), 0.0, np.tile(start, (cfg.b, 1)))
    again = np.flatnonzero(~res.converged)
    if again.size:
        base = point_options(model, 0.0, None, cfg.options)
        retry = replace(cfg, options=replace(base, max_iters=4 * base.max_iters))
        starts = [cfg.start_for(model, Dataset(y=dataset.y, z=zs[b], sigma_u=dataset.sigma_u))
                  for b in again]
        out = row_solver(model, dataset, retry, zs)(again, 0.0, np.stack(starts))
        res.theta_hat[again] = out.theta_hat
        again = again[~out.converged]
    return res.theta_hat, again.tolist()


def classical_simex(
    model: ModelSpec, dataset: Dataset, config: SimexConfig | None = None
) -> EstimateResult:
    """Classical SIMEX estimate with per-lambda Monte Carlo standard errors.

    ``config`` is read as by :func:`ex_estimate`, plus ``b`` and ``seed``;
    ``force_grid`` has no effect, as for any non-pluggable family.  The naive
    fit starts at ``config.start`` (or the family start), and so does the
    one retry of a pseudo-data solve.  The lambda = 0 average equals the
    naive estimate exactly (no noise is added there).  Replicates start from
    the naive estimate, never from each other, so any evaluation order
    yields the same result.  The B replicates at one noise level are one
    solve of :func:`row_solver`, and so are the retries of the rows that
    did not converge: one quasi-Newton batch for the linear, exponential
    and poisson families, unless ``config.options`` asks for the simplex
    method, and one scalar solve per pseudo-data set otherwise.  Each row
    takes the steps of its own scalar solve.
    """
    cfg = config or SimexConfig()
    naive_flat = naive_estimate(model, dataset, cfg).theta_hat
    q = naive_flat.size
    lams = cfg.grid.values
    means = np.empty((lams.size, q))
    ses = np.zeros((lams.size, q))
    means[0] = naive_flat
    for k in range(1, lams.size):
        draws, failed = _replicate_solves(model, dataset, cfg, k, naive_flat)
        if failed:
            raise EstimationError(
                "naive solves failed on pseudo-data: "
                + ", ".join(f"lambda={lams[k]:g} b={b}" for b in failed)
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
