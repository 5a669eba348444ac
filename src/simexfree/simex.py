"""Classical three-step simulation SIMEX baseline.

For each grid noise level, the naive estimator is recomputed on many
independently perturbed copies of the surrogates and averaged; a trend fitted
to the averages is evaluated at lambda = -1.  Kept as a cross-check for the
simulation-free estimator, which replaces the simulation step by an exact
conditional expectation.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import ConfigError, EstimationError
from .extrapolate import (
    EstimateConfig,
    EstimateResult,
    GridEstimates,
    _check_grid_size,
    _grid_points,
    _stacked,
    extrapolated,
    naive_estimate,
    point_options,
    row_solver,
)
# not called here: the benchmark's tracer (perfbench/tracing.py) patches
# these names in this module, so they stay importable from it
from .extrapolate import fit_extrapolant, minimize_target  # noqa: F401
from .optimize import MinimizeResult, _is_int
from .targets import STACK_GROUP_VALUES, ModelSpec


@dataclass
class SimexConfig(EstimateConfig):
    """Every :class:`EstimateConfig` setting, plus the replicate count ``b``
    and the RNG ``seed``.

    Each pseudo-data set (k, b), of grid point k and replicate b, draws
    from its own counter-keyed Philox stream, keyed by
    ``SeedSequence(entropy=seed, spawn_key=(k, b))`` (see :func:`_stream`),
    and starts from a point that depends on the observed data alone (the
    simulation-free grid's minimizer at its noise level, or the naive
    estimate when a grid point fails), so results are reproducible and
    independent of evaluation order.
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

    Its Philox key is ``SeedSequence(entropy=seed, spawn_key=key)``'s
    ``generate_state(2, uint64)``, and its counter starts at 0.  This is the
    one-key reference; :func:`_streams` draws the same for many keys.  A
    negative seed raises ConfigError, as numpy's seed sequence takes none.
    """
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


# numpy's SeedSequence is O'Neill's seed_seq_fe hash over 32-bit words, with
# a pool of four words; these are its constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _streams(seed: int, keys: Sequence[tuple[int, ...]]) -> Iterator[np.random.Generator]:
    """One generator per key, in order, each drawing what a fresh
    ``_stream(seed, key)`` draws, bit for bit.

    Philox is counter-based, so a key picks a stream: the iterator yields
    one Generator, whose Philox is re-keyed before each yield, so a yielded
    generator draws its key's stream only until the next one is taken.  The
    keys of every stream are hashed in one vectorised pass: the seed's
    entropy pool is numpy's own (``SeedSequence(seed).pool``, whatever the
    seed's width), the spawn-key words are mixed into it as numpy mixes
    them, and the pool gives the Philox key as ``generate_state(2, uint64)``
    does.  The keys must have one length, and their elements must lie in
    [0, 2**32), one word each; a negative seed or a key outside that range
    raises ConfigError.
    """
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    words = np.asarray(keys)
    if words.size and (words.ndim != 2 or words.dtype.kind not in "iu"
                       or words.min() < 0 or words.max() > _MASK32):
        raise ConfigError("stream keys must be tuples of one length, "
                          f"of integers in [0, 2**32), got {keys!r}")
    pool = np.tile(np.random.SeedSequence(seed).pool, (len(words), 1))
    # the seed's words, padded to the pool size, took four hashes each, and
    # the pool's all-pairs mixing twelve more
    seed_words = max(4, -(-int(seed).bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 4 * seed_words, 1 << 32) & _MASK32
    for word in words.astype(np.uint32).T:
        for i in range(4):
            h = word ^ np.uint32(hash_const)
            hash_const = hash_const * _MULT_A & _MASK32
            h *= np.uint32(hash_const)
            h ^= h >> 16
            mixed = _MIX_L * pool[:, i] - _MIX_R * h
            pool[:, i] = mixed ^ (mixed >> 16)
    hash_const = _INIT_B
    for i in range(4):
        pool[:, i] ^= np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        pool[:, i] *= np.uint32(hash_const)
        pool[:, i] ^= pool[:, i] >> 16
    # two 32-bit words to a 64-bit key word, the low word first
    philox_keys = pool[:, 0::2].astype(np.uint64) | pool[:, 1::2].astype(np.uint64) << 32
    bitgen = np.random.Philox(seed)
    gen = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)

    def rekeyed() -> Iterator[np.random.Generator]:
        for key in philox_keys:
            # a fresh Philox's state: counter 0 and an empty buffer
            bitgen.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            yield gen

    return rekeyed()


def pseudo_data(dataset: Dataset, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Surrogates with extra noise: z + sqrt(lam) v, v ~ N(0, sigma_u) rowwise.

    ``v`` is ``rng``'s standard normal (n, p) draw times the transposed root
    of sigma_u (its one entry at p = 1).  Classical SIMEX does not call this
    per set: it draws its sets in groups, with the same arithmetic in the
    same order, bit for bit (see :func:`_replicate_solves`).
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ConfigError(f"lam must be finite and nonnegative, got {lam}")
    if lam == 0:
        return np.array(dataset.z)
    v = rng.standard_normal((dataset.n, dataset.p))
    # at p = 1 the product is one multiplication per draw, so a scalar
    # scale gives its bits without the matrix product's overhead
    v = v * dataset.sigma_root[0, 0] if dataset.p == 1 else v @ dataset.sigma_root.T
    return dataset.z + np.sqrt(lam) * v


def _replicate_solves(
    model: ModelSpec, dataset: Dataset, cfg: SimexConfig, starts: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The naive solves of every pseudo-data set (k, b), k >= 1, each
    warm-started at ``starts[k]``.

    Returns the estimates (K - 1, B, q) and the (k, b) pairs whose solve
    failed even after its retry.  The sets are taken in (k, b) order, in
    groups of ``STACK_GROUP_VALUES // (n p)``, and each group is one solve
    of :func:`row_solver` at lambda = 0, whatever the noise levels it spans,
    each row from the start of its own k.  A warm start can crawl on an
    unlucky pseudo sample, so a group's rows that did not converge are one
    more solve, from the configured start, or the family start on their
    pseudo-data, with four times the iterations.  A Dataset is built per
    pseudo-data set only for a retried row.

    Each group's pseudo-data are drawn into one (G, n, p) buffer from the
    streams of :func:`_streams` (one re-keyed Philox generator, set (k, b)
    drawing what ``_stream(seed, (k, b))`` draws) and scaled in place in
    :func:`pseudo_data`'s order: by the root of sigma_u, by sqrt(lambda_k),
    and plus z.  So each set equals its own ``pseudo_data`` call bit for bit.
    """
    lams = cfg.grid.values
    keys = [(k, b) for k in range(1, lams.size) for b in range(cfg.b)]
    n, p = dataset.n, dataset.p
    size = max(1, STACK_GROUP_VALUES // (n * p))
    streams = _streams(cfg.seed, keys)
    root, scales = dataset.sigma_root, np.sqrt(lams)
    thetas, failed = [], []
    for i in range(0, len(keys), size):
        group = keys[i : i + size]
        ks = [k for k, _ in group]
        # pseudo_data's draws and arithmetic, set by set, in place
        zs = np.empty((len(group), n, p))
        for z, rng in zip(zs, streams):
            rng.standard_normal(out=z)
            if p > 1:
                z[:] = z @ root.T
        if p == 1:
            zs *= root[0, 0]
        zs *= scales[ks, None, None]
        zs += dataset.z
        res = row_solver(model, dataset, cfg, zs)(np.arange(len(group)), 0.0, starts[ks])
        again = np.flatnonzero(~res.converged)
        if again.size:
            base = point_options(model, 0.0, None, cfg.options)
            retry = replace(cfg, options=replace(base, max_iters=4 * base.max_iters))
            retry_starts = [
                cfg.start_for(model, Dataset(y=dataset.y, z=zs[j], sigma_u=dataset.sigma_u))
                for j in again
            ]
            out = row_solver(model, dataset, retry, zs)(again, 0.0, np.stack(retry_starts))
            res.theta_hat[again] = out.theta_hat
            failed += [group[j] for j in again[~out.converged]]
        thetas.append(res.theta_hat)
    return np.concatenate(thetas).reshape(lams.size - 1, cfg.b, -1), failed


def _set_starts(
    model: ModelSpec, dataset: Dataset, cfg: SimexConfig, naive: MinimizeResult
) -> np.ndarray:
    """The start (K, q) of the pseudo-data sets of each noise level.

    The simulation-free objective at lambda_k is the conditional
    expectation of the pseudo-data objectives at lambda_k, so its minimizer
    theta(lambda_k) is where theirs cluster.  The simulation-free grid is
    solved on the observed data, from the ``naive`` solve at lambda = 0, and
    each set of lambda_k starts from theta(lambda_k).  If a grid point
    fails, every set starts from the naive estimate instead.
    """
    lams = cfg.grid.values
    grid = _grid_points(row_solver(model, dataset, cfg), np.zeros(1, dtype=int),
                        _stacked([naive]), lams)
    if all(res.converged[0] for res in grid):
        return np.concatenate([res.theta_hat for res in grid])
    return np.tile(naive.theta_hat, (lams.size, 1))


def classical_simex(
    model: ModelSpec, dataset: Dataset, config: SimexConfig | None = None
) -> EstimateResult:
    """Classical SIMEX estimate with per-lambda Monte Carlo standard errors.

    ``config`` is read as by :func:`ex_estimate`, plus ``b`` and ``seed``;
    ``force_grid`` has no effect, as for any non-pluggable family.  A grid
    too short for the extrapolant raises ConfigError before any solve.  The
    naive fit starts at ``config.start`` (or the family start), and a naive
    fit that fails raises before any other solve.  The lambda = 0 average
    equals the naive estimate exactly (no noise is added there).  The
    simulation-free grid is solved from the naive fit, and every
    pseudo-data set of lambda_k starts from its minimizer at lambda_k, or
    from the naive estimate if a grid point fails (see :func:`_set_starts`).
    Either start depends on the observed data alone, never on another
    replicate, so any evaluation order yields the same result.  A
    pseudo-data solve that does not converge is retried once, from the
    configured or family start.  Set
    (k, b) draws its noise from the Philox stream keyed by
    ``SeedSequence(entropy=seed, spawn_key=(k, b))``; every set's key is
    hashed in one pass and one generator is re-keyed per set, with the
    draws of a fresh generator per set, bit for bit.  The
    (K - 1) B pseudo-data sets are solved in (lambda, replicate) order, in
    groups of at most ``STACK_GROUP_VALUES // (n p)`` sets that may span
    noise levels.  Each group is one solve of :func:`row_solver`, and so
    are the retries of its rows that did not converge: one quasi-Newton
    batch for any family but generic, and one scalar solve per pseudo-data
    set for generic and for the simplex method (``config.options``, or a
    family that is not smooth at lambda = 0).  Each row takes the steps of
    its own scalar solve.  If a solve fails, the error names the failed
    replicates of the smallest such lambda.
    """
    cfg = config or SimexConfig()
    _check_grid_size(cfg.kind, cfg.grid.size)
    lams = cfg.grid.values
    naive = naive_estimate(model, dataset, cfg)
    starts = _set_starts(model, dataset, cfg, naive)
    q = naive.theta_hat.size
    means = np.empty((lams.size, q))
    ses = np.zeros((lams.size, q))
    means[0] = naive.theta_hat
    draws, failed = _replicate_solves(model, dataset, cfg, starts)
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
