"""Scenario-driven simulation studies with bias/variance/MSE summaries.

Replications use counter-keyed RNG streams (cell index, replication index),
so study tables are byte-identical for a fixed seed regardless of execution
order, and per-cell timing is reported separately from the tables.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, psd_factor
from .errors import ConfigError, DataError, EstimationError
from .extrapolate import (
    EstimateConfig,
    _each,
    ex_estimate,
    ex_estimate_stack,
    naive_estimate,
)
from .simex import SimexConfig, _streams, classical_simex
from .targets import STACK_GROUP_VALUES, ModelSpec, lognormal_error

CHISQ2_MEDIAN = 1.3863  # 50th percentile of chi-square with 2 df


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: data-generating design plus the estimator to run.

    ``theta0`` is the full flat true parameter (intercept first when the
    model has one, or when ``augment_intercept`` prepends an error-free
    constant column).  ``x_cov`` defaults to the identity; ``u_dist`` is
    ``normal`` or ``laplace`` (variance-matched, univariate designs only).
    Every estimator reads ``config``; classical SIMEX also takes ``simex_b``
    replicates.
    """

    name: str
    model: ModelSpec
    theta0: np.ndarray
    n: int
    sigma_u: np.ndarray
    x_cov: np.ndarray | None = None
    u_dist: str = "normal"
    eps_dist: str = "normal"
    estimator: str = "ex"
    augment_intercept: bool = False
    config: EstimateConfig | None = None
    simex_b: int = 100

    def __post_init__(self):
        object.__setattr__(self, "theta0", np.atleast_1d(np.asarray(self.theta0, dtype=float)))
        sig = np.atleast_2d(np.asarray(self.sigma_u, dtype=float))
        object.__setattr__(self, "sigma_u", sig)
        if self.u_dist not in ("normal", "laplace"):
            raise ConfigError(f"unknown u_dist {self.u_dist!r}")
        if self.eps_dist not in ("normal", "chisq2", "lognormal"):
            raise ConfigError(f"unknown eps_dist {self.eps_dist!r}")
        if self.estimator not in ("ex", "classical", "naive"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.u_dist == "laplace" and sig.shape[0] != 1:
            raise ConfigError("laplace measurement error supports p = 1 only")

    @property
    def p(self) -> int:
        return self.sigma_u.shape[0]


def _draw_eps(scenario: Scenario, rng: np.random.Generator, n: int) -> np.ndarray:
    if scenario.eps_dist == "normal":
        return rng.standard_normal(n)
    if scenario.eps_dist == "chisq2":
        return (rng.chisquare(2, n) - CHISQ2_MEDIAN) / 2.0
    return lognormal_error(rng, n)


def _draw_u(scenario: Scenario, rng: np.random.Generator, n: int) -> np.ndarray:
    if scenario.u_dist == "laplace":
        var = float(scenario.sigma_u[0, 0])
        return rng.laplace(0.0, math.sqrt(var / 2.0), (n, 1))
    root = psd_factor(scenario.sigma_u)
    return rng.standard_normal((n, scenario.p)) @ root.T


def simulate_dataset(
    scenario: Scenario, rng: np.random.Generator, return_latent: bool = False
):
    """Draw one dataset from the scenario's data-generating mechanism.

    The linear predictor is theta0[0] + design @ theta0[1:] for a model
    with an intercept and design @ theta0 otherwise, where the design is
    the latent covariates, after an error-free constant column when
    ``augment_intercept`` is set; a theta0 of any other length raises
    ConfigError.  The returned Dataset always carries the scenario's
    nominal sigma_u, even when the measurement error is actually Laplace
    (the misspecification design).  With ``return_latent`` the latent
    design matrix is returned as well (error-free oracle fits).
    """
    n, p = scenario.n, scenario.p
    theta0 = scenario.theta0
    if scenario.x_cov is None:
        x = rng.standard_normal((n, p))
    else:
        x = rng.standard_normal((n, p)) @ psd_factor(np.asarray(scenario.x_cov, dtype=float)).T
    u = _draw_u(scenario, rng, n)
    if scenario.augment_intercept:
        design = np.column_stack([np.ones(n), x])
    else:
        design = x
    simulate = scenario.model.record.simulate
    if simulate is None:
        raise ConfigError(
            f"no data-generating mechanism for family {scenario.model.family!r}"
        )
    q = design.shape[1] + scenario.model.has_intercept
    if theta0.size != q:
        raise ConfigError(f"theta0 has length {theta0.size}, expected {q}")
    eta = theta0[0] + design @ theta0[1:] if scenario.model.has_intercept else design @ theta0
    y = simulate(eta, lambda: _draw_eps(scenario, rng, n), rng)
    z = x + u
    if scenario.augment_intercept:
        z_out = np.column_stack([np.ones(n), z])
        sig = np.zeros((p + 1, p + 1))
        sig[1:, 1:] = scenario.sigma_u
    else:
        z_out = z
        sig = scenario.sigma_u
    ds = Dataset(y=y, z=z_out, sigma_u=sig)
    if return_latent:
        return ds, design
    return ds


def _replicates(
    scenario: Scenario, seed: int, keys: Sequence[tuple[int, ...]]
) -> tuple[np.ndarray, int]:
    """Simulate one dataset per stream key, each from the stream that
    ``_stream(seed, key)`` draws (all of them from one re-keyed generator,
    see :func:`simex._streams`), and run the scenario's estimator on it,
    with every setting of ``scenario.config``.  Returns the estimates
    that succeeded and the number of replicates that failed; more than 5%
    failures raise, and so does a ConfigError.

    The ex and naive estimators solve the datasets together
    (:func:`ex_estimate_stack`), in groups of ``STACK_GROUP_VALUES // n``,
    with the results of one estimate per replicate bit for bit.  Classical
    SIMEX runs one replicate at a time, with ``b = simex_b`` and a
    per-replicate seed; each fit stacks its own pseudo-data sets, in groups
    bounded by the same ``STACK_GROUP_VALUES`` (see :func:`classical_simex`).
    """
    config = scenario.config or EstimateConfig()
    model = scenario.model
    streams = _streams(seed, keys)
    if scenario.estimator == "classical":

        def fit(item: tuple[int, np.random.Generator]) -> np.ndarray:
            r, rng = item
            ds = simulate_dataset(scenario, rng)
            cfg = SimexConfig(
                **{**vars(config), "b": scenario.simex_b, "seed": seed + 7919 * (r + 1)}
            )
            return classical_simex(model, ds, cfg).theta_hat.flat_vector

        solved = _each(enumerate(streams), fit)
    else:
        solved = []
        size = max(1, STACK_GROUP_VALUES // scenario.n)
        for i in range(0, len(keys), size):
            group = keys[i : i + size]
            datasets = [simulate_dataset(scenario, rng) for _, rng in zip(group, streams)]
            solved += ex_estimate_stack(model, datasets, config, scenario.estimator == "naive")
    # a failed replicate is an error (classical) or None (stacked)
    ests = [e for e in solved if isinstance(e, np.ndarray)]
    failures = len(keys) - len(ests)
    if failures > 0.05 * len(keys):
        raise EstimationError(
            f"cell {scenario.name!r}: {failures}/{len(keys)} replications failed"
        )
    return np.asarray(ests), failures


@dataclass(frozen=True)
class SummaryRow:
    """Per-coordinate mean, bias, variance (denominator R), and MSE."""

    mean: np.ndarray
    bias: np.ndarray
    variance: np.ndarray
    mse: np.ndarray


def summarize(estimates, theta0) -> SummaryRow:
    """Summarize replication estimates against the true parameter.

    variance averages squared deviations from the replication mean with
    denominator R, so mse = bias^2 + variance holds as an identity.
    """
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    if est.shape[0] < 2:
        raise DataError("need at least two estimates to summarize")
    mean = est.mean(axis=0)
    bias = mean - theta0
    variance = np.mean((est - mean) ** 2, axis=0)
    mse = np.mean((est - theta0) ** 2, axis=0)
    return SummaryRow(mean=mean, bias=bias, variance=variance, mse=mse)


@dataclass
class CellResult:
    """Summary of one scenario cell over all successful replications."""

    scenario: Scenario
    summary: SummaryRow
    replications: int
    failures: int
    seconds: float
    estimates: np.ndarray | None = None


def run_study(
    scenarios: Sequence[Scenario],
    replications: int,
    seed: int = 0,
    keep_estimates: bool = False,
) -> list[CellResult]:
    """Run every scenario cell for R replications and summarize.

    Failed replications are excluded and counted; a cell with more than 5%
    failures raises, and so does a ConfigError.  Fixed seed implies
    identical results.  An ex or naive cell solves its R replicates
    together, stage by stage (:func:`ex_estimate_stack`): one quasi-Newton
    batch per stage with quasi-Newton options, for any family but generic,
    and one scalar solve per replicate otherwise.  ``ex_estimate`` and
    ``naive_estimate`` run the same composition on one dataset, so the
    estimates and failures are those of one such call per replicate, bit
    for bit.  Classical SIMEX runs one replicate at a time.
    """
    if replications < 2:
        raise ConfigError("need at least two replications")
    out = []
    for ci, sc in enumerate(scenarios):
        t0 = time.perf_counter()
        est, failures = _replicates(sc, seed, [(ci, r) for r in range(replications)])
        out.append(
            CellResult(
                scenario=sc,
                summary=summarize(est, sc.theta0),
                replications=len(est),
                failures=failures,
                seconds=time.perf_counter() - t0,
                estimates=est if keep_estimates else None,
            )
        )
    return out


# --------------------------------------------------------------------------
# study presets
# --------------------------------------------------------------------------


def exponential_scenarios(
    sigma2_values: Sequence[float] = (0.5, 0.25, 0.1),
    n_values: Sequence[int] = (200, 300, 500, 800),
    theta0: float = 1.0,
    estimator: str = "ex",
) -> list[Scenario]:
    """Univariate exponential-regression grid: one cell per (sigma_u^2, n)."""
    model = ModelSpec(family="exponential")
    return [
        Scenario(
            name=f"exponential n={n} su2={s2:g}",
            model=model,
            theta0=np.array([theta0]),
            n=n,
            sigma_u=np.array([[s2]]),
            estimator=estimator,
        )
        for s2 in sigma2_values
        for n in n_values
    ]


def bivariate_exponential_scenarios(
    sigma2_values: Sequence[float] = (0.25, 0.2, 0.1),
    n_values: Sequence[int] = (200, 300, 500, 800),
    theta0: Sequence[float] = (0.5, 1.0),
    estimator: str = "ex",
) -> list[Scenario]:
    """Bivariate exponential grid; errors share variance sigma^2 with
    cross-covariance 0.5 sigma^2."""
    model = ModelSpec(family="exponential")
    return [
        Scenario(
            name=f"biv-exponential n={n} su2={s2:g}",
            model=model,
            theta0=np.asarray(theta0, dtype=float),
            n=n,
            sigma_u=np.array([[s2, 0.5 * s2], [0.5 * s2, s2]]),
            estimator=estimator,
        )
        for s2 in sigma2_values
        for n in n_values
    ]


def quantile_scenario(
    n: int = 300,
    sigma_u: float = 0.1,
    eps_dist: str = "normal",
    beta0: float = 1.0,
    beta1: float = 2.0,
    tau: float = 0.5,
    estimator: str = "ex",
) -> Scenario:
    """Quantile-line design: y = beta0 + beta1 x + eps with an error-free
    intercept column prepended to the surrogate design."""
    return Scenario(
        name=f"quantile n={n} su={sigma_u:g} eps={eps_dist}",
        model=ModelSpec(family="quantile", tau=tau),
        theta0=np.array([beta0, beta1]),
        n=n,
        sigma_u=np.array([[sigma_u**2]]),
        eps_dist=eps_dist,
        estimator=estimator,
        augment_intercept=True,
    )


@dataclass(frozen=True)
class QuantileLineFit:
    replication: int
    tau: float
    estimator: str
    intercept: float
    slope: float


def quantile_lines_study(
    scenario: Scenario,
    taus: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
    seed: int = 0,
    replications: int = 1,
) -> list[QuantileLineFit]:
    """Fitted quantile lines for three estimators per level tau.

    ``ex`` extrapolates on the surrogates, ``oracle`` is standard quantile
    regression on the latent covariates, ``naive`` is standard quantile
    regression on the surrogates.  One row per (replication, tau, estimator).
    """
    if scenario.model.family != "quantile":
        raise ConfigError("quantile_lines_study requires a quantile scenario")
    if replications < 1:
        raise ConfigError("need at least one replication")
    rows = []
    streams = _streams(seed, [(0, r) for r in range(replications)])
    for r, rng in enumerate(streams):
        ds, latent = simulate_dataset(scenario, rng, return_latent=True)
        ds_oracle = Dataset(
            y=ds.y, z=latent, sigma_u=np.zeros((latent.shape[1], latent.shape[1]))
        )
        for tau in taus:
            model = ModelSpec(family="quantile", tau=float(tau))
            fit = ex_estimate(model, ds, scenario.config)
            ex, naive = fit.theta_hat.flat_vector, fit.naive.flat_vector
            oracle = naive_estimate(model, ds_oracle, scenario.config).theta_hat
            for label, est in (("ex", ex), ("oracle", oracle), ("naive", naive)):
                rows.append(
                    QuantileLineFit(
                        replication=r,
                        tau=float(tau),
                        estimator=label,
                        intercept=float(est[0]),
                        slope=float(est[1]),
                    )
                )
    return rows


# --------------------------------------------------------------------------
# misspecification study
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MisspecCell:
    """One misspecification cell; ``replications`` counts the replicates
    that were averaged (failed ones are excluded)."""

    u_dist: str
    n: int
    bias: float
    mean: float
    replications: int


@dataclass(frozen=True)
class MisspecReport:
    """Bias of the normal-theory corrected Poisson estimator when the
    measurement error is actually Laplace, against the normal control."""

    cells: list[MisspecCell]
    theta0: float
    sigma_u2: float

    def bias(self, u_dist: str, n: int) -> float:
        for c in self.cells:
            if c.u_dist == u_dist and c.n == n:
                return c.bias
        raise KeyError((u_dist, n))


def misspecification_study(
    seed: int = 0,
    theta0: float = 1.0,
    sigma_u2: float = 0.5,
    n_values: Sequence[int] = (2000, 8000),
    replications: int = 300,
) -> MisspecReport:
    """Poisson design with x ~ N(0, sigma_u^2); the corrected estimator keeps
    assuming normal measurement error.  Under Laplace error the bias persists
    as n grows; under the normal control it shrinks.  Each cell runs the
    replicate step of :func:`run_study` on its own stream keys
    (100 + error index, n index, replicate), so failures are counted and
    more than 5% of them raise."""
    if replications < 1:
        raise ConfigError("need at least one replication")
    cells = []
    model = ModelSpec(family="poisson")
    for di, u_dist in enumerate(("normal", "laplace")):
        for ni, n in enumerate(n_values):
            sc = Scenario(
                name=f"misspec {u_dist} n={n}",
                model=model,
                theta0=np.array([theta0]),
                n=n,
                sigma_u=np.array([[sigma_u2]]),
                x_cov=np.array([[sigma_u2]]),
                u_dist=u_dist,
                estimator="ex",
            )
            keys = [(100 + di, ni, r) for r in range(replications)]
            est, _ = _replicates(sc, seed, keys)
            mean = float(np.mean(est[:, 0]))
            cells.append(
                MisspecCell(
                    u_dist=u_dist,
                    n=n,
                    bias=mean - theta0,
                    mean=mean,
                    replications=len(est),
                )
            )
    return MisspecReport(cells=cells, theta0=theta0, sigma_u2=sigma_u2)


# --------------------------------------------------------------------------
# independent asymptotic-variance evaluator (linear direct estimator, p = 1)
# --------------------------------------------------------------------------


def linear_direct_asymptotic_variance(
    theta0: float, sigma_eps2: float, sigma_u2: float, ex2: float = 1.0
) -> float:
    """Plug-in asymptotic variance of sqrt(n) (theta_hat - theta0) for the
    direct bias-corrected slope estimator with a single slope-only covariate.

    ``ex2`` is E[X^2] of the latent covariate.  The numerator combines the
    residual and error variances with the fourth-moment contribution of the
    normal measurement error: sigma_eps^2 (E X^2 + sigma_u^2)
    + theta0^2 sigma_u^2 E X^2 + 2 theta0^2 sigma_u^4, divided by (E X^2)^2.
    """
    num = (
        sigma_eps2 * (ex2 + sigma_u2)
        + theta0**2 * sigma_u2 * ex2
        + 2.0 * theta0**2 * sigma_u2**2
    )
    return num / ex2**2
