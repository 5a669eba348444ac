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
    GridEstimates,
    _is_int,
    extrapolated,
    naive_estimate,
    point_options,
    row_solver,
)
# not called here: the benchmark's tracer (perfbench/tracing.py) patches
# these names in this module, so they stay importable from it
from .extrapolate import fit_extrapolant, minimize_target  # noqa: F401
from .targets import STACK_GROUP_VALUES, ModelSpec


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
        if not _is_int(self.b) or self.b < 1:
            raise ConfigError(f"replicate count b must be an integer of at least 1, got {self.b!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be nonnegative and an integer, got {self.seed!r}")


def _stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """Counter-keyed Philox generator: one independent stream per key.

    A negative seed raises ConfigError, as numpy's seed sequence takes none.
    """
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
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
    model: ModelSpec, dataset: Dataset, cfg: SimexConfig, start: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The naive solves of every pseudo-data set (k, b), k >= 1, each
    warm-started at ``start``.

    Returns the estimates (K - 1, B, q) and the (k, b) pairs whose solve
    failed even after its retry.  The sets are taken in (k, b) order, in
    groups of ``STACK_GROUP_VALUES // (n p)``, and each group is one solve
    of :func:`row_solver` at lambda = 0, whatever the noise levels it spans.
    A warm start can crawl on an unlucky pseudo sample, so a group's rows
    that did not converge are one more solve, from the configured start, or
    the family start on their pseudo-data, with four times the iterations.
    A Dataset is built per pseudo-data set only for a retried row.
    """
    lams = cfg.grid.values
    keys = [(k, b) for k in range(1, lams.size) for b in range(cfg.b)]
    size = max(1, STACK_GROUP_VALUES // (dataset.n * dataset.p))
    thetas, failed = [], []
    for i in range(0, len(keys), size):
        group = keys[i : i + size]
        zs = np.stack([pseudo_data(dataset, float(lams[k]), _stream(cfg.seed, (k, b)))
                       for k, b in group])
        res = row_solver(model, dataset, cfg, zs)(np.arange(len(group)), 0.0,
                                                  np.tile(start, (len(group), 1)))
        again = np.flatnonzero(~res.converged)
        if again.size:
            base = point_options(model, 0.0, None, cfg.options)
            retry = replace(cfg, options=replace(base, max_iters=4 * base.max_iters))
            starts = [cfg.start_for(model, Dataset(y=dataset.y, z=zs[j], sigma_u=dataset.sigma_u))
                      for j in again]
            out = row_solver(model, dataset, retry, zs)(again, 0.0, np.stack(starts))
            res.theta_hat[again] = out.theta_hat
            failed += [group[j] for j in again[~out.converged]]
        thetas.append(res.theta_hat)
    return np.concatenate(thetas).reshape(lams.size - 1, cfg.b, -1), failed


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
    yields the same result.  The (K - 1) B pseudo-data sets are solved in
    (lambda, replicate) order, in groups of at most ``STACK_GROUP_VALUES //
    (n p)`` sets that may span noise levels.  Each group is one solve of
    :func:`row_solver`, and so are the retries of its rows that did not
    converge: one quasi-Newton batch for any family but generic, and one
    scalar solve per pseudo-data set for generic and for the simplex method
    (``config.options``, or a family that is not smooth at lambda = 0).
    Each row takes the steps of its own scalar solve.  If a solve fails,
    the error names the failed replicates of the smallest such lambda.
    """
    cfg = config or SimexConfig()
    naive_flat = naive_estimate(model, dataset, cfg).theta_hat
    q = naive_flat.size
    lams = cfg.grid.values
    means = np.empty((lams.size, q))
    ses = np.zeros((lams.size, q))
    means[0] = naive_flat
    draws, failed = _replicate_solves(model, dataset, cfg, naive_flat)
    if failed:
        first = failed[0][0]
        raise EstimationError(
            "naive solves failed on pseudo-data: "
            + ", ".join(f"lambda={lams[k]:g} b={b}" for k, b in failed if k == first)
        )
    for k in range(1, lams.size):
        means[k] = draws[k - 1].mean(axis=0)
        if cfg.b > 1:
            ses[k] = draws[k - 1].std(axis=0, ddof=1) / np.sqrt(cfg.b)
    return extrapolated(GridEstimates(grid=cfg.grid, thetas=means), cfg.kind,
                        model.has_intercept, mc_se=ses)
