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
    minimize_target,
    naive_estimate,
    point_options,
)
from .optimize import MinimizeOptions, MinimizeResult, minimize_batch
from .targets import ModelSpec, TargetContext, Theta, target_gradient, target_value


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


# Pseudo-data values per stacked objective call.  Each temporary of the
# call then stays under 128 KiB, glibc's default mmap threshold: above it,
# every temporary is a fresh mapping, and its page faults made a
# 100 x 500 exponential evaluation cost about three times as much per value.
STACK_CHUNK_VALUES = 1 << 14


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


def _retry_options(model: ModelSpec, pseudo: Dataset, cfg: EstimateConfig) -> MinimizeOptions:
    """Options of the one retry of a pseudo-data solve that did not converge.

    A warm start can crawl on an unlucky pseudo sample; the retry starts
    from the configured start, or the family start on ``pseudo``, with four
    times the iterations.
    """
    base = point_options(model, 0.0, cfg.start_for(model, pseudo), cfg.options)
    return replace(base, max_iters=4 * base.max_iters)


def _solve_pseudo(
    model: ModelSpec, dataset: Dataset, cfg: EstimateConfig, start: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """The lambda = 0 minimizer on the pseudo-data surrogates ``z`` (n, p),
    warm-started at ``start``."""
    res = minimize_target(model, dataset, 0.0, start, cfg.options, cfg.nodes, z)
    if not res.converged:
        retry = _retry_options(model, _pseudo_dataset(dataset, z), cfg)
        res = minimize_target(model, dataset, 0.0, retry.start, retry, cfg.nodes, z)
    if not res.converged:
        raise EstimationError(
            f"naive solve on pseudo-data did not converge (status {res.status})"
        )
    return res.theta_hat


def _solve_stack(
    model: ModelSpec, dataset: Dataset, nodes: int, zs: np.ndarray, options: MinimizeOptions
) -> MinimizeResult:
    """The lambda = 0 minimizers on stacked pseudo-data sets ``zs`` (B, n, p),
    solved as one batch from the starts ``options.start`` (B, q)."""
    chunk = max(1, STACK_CHUNK_VALUES // dataset.n)

    def evaluate(kernel, theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        parts = []
        for i in range(0, rows.size, chunk):
            sel = rows[i : i + chunk]
            # rows are increasing, so a gap-free run is a view of the stack
            gap_free = sel[-1] - sel[0] == sel.size - 1
            sub = zs[sel[0] : sel[-1] + 1] if gap_free else zs[sel]
            ctx = TargetContext(dataset=dataset, model=model, lam=0.0, nodes=nodes, z=sub)
            parts.append(kernel(ctx, theta[i : i + chunk]))
        return np.concatenate(parts)

    return minimize_batch(
        lambda th, rows: evaluate(target_value, th, rows),
        lambda th, rows: evaluate(target_gradient, th, rows),
        options,
    )


def _replicate_solves(
    model: ModelSpec, dataset: Dataset, cfg: SimexConfig, k: int, start: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """The B naive solves at grid point k, each warm-started at ``start``.

    Returns the estimates (B, q) and the replicates whose solve failed even
    after its retry.  A family whose record is ``batched`` solves the B
    pseudo-data sets as one quasi-Newton batch and retries the rows that
    did not converge as one more; any other solves one set at a time.  A
    Dataset is built per pseudo-data set only for a retried solve.
    """
    lam = float(cfg.grid.values[k])
    zs = np.stack([pseudo_data(dataset, lam, _stream(cfg.seed, (k, b))) for b in range(cfg.b)])
    opts = point_options(model, 0.0, start, cfg.options)
    if not (model.record.batched and opts.method == "quasi-newton"):
        draws = np.empty((cfg.b, start.size))
        failed = []
        for b in range(cfg.b):
            try:
                draws[b] = _solve_pseudo(model, dataset, cfg, start, zs[b])
            except EstimationError:
                failed.append(b)
        return draws, failed
    res = _solve_stack(model, dataset, cfg.nodes, zs, replace(opts, start=np.tile(start, (cfg.b, 1))))
    again = np.flatnonzero(~res.converged)
    if again.size:
        tries = [_retry_options(model, _pseudo_dataset(dataset, zs[b]), cfg) for b in again]
        starts = np.stack([np.asarray(t.start, dtype=float) for t in tries])
        retry = _solve_stack(model, dataset, cfg.nodes, zs[again], replace(tries[0], start=starts))
        res.theta_hat[again] = retry.theta_hat
        again = again[~retry.converged]
    return res.theta_hat, again.tolist()


def _pseudo_dataset(dataset: Dataset, z: np.ndarray) -> Dataset:
    return Dataset(y=dataset.y, z=z, sigma_u=dataset.sigma_u)


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
    yields the same result.  For the linear, exponential and poisson
    families the B replicates at one noise level are solved as one
    quasi-Newton batch (unless ``config.options`` asks for the simplex
    method); each row takes the steps of its own scalar solve.
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
