"""Simulation harness: data generation, summaries, and studies."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simexfree import (
    DataError,
    EstimateConfig,
    EstimationError,
    MinimizeOptions,
    ModelSpec,
    Scenario,
    linear_direct_asymptotic_variance,
    misspecification_study,
    quantile_lines_study,
    run_study,
    simulate_dataset,
    summarize,
)
from simexfree import montecarlo
from simexfree.montecarlo import (
    CHISQ2_MEDIAN,
    _stream,
    bivariate_exponential_scenarios,
    exponential_scenarios,
    quantile_scenario,
)


def _exp_scenario(n=500, s2=0.25, estimator="ex"):
    return Scenario(
        name="exp",
        model=ModelSpec(family="exponential"),
        theta0=np.array([1.0]),
        n=n,
        sigma_u=np.array([[s2]]),
        estimator=estimator,
    )


# --------------------------------------------------------------------------
# data generation
# --------------------------------------------------------------------------


def test_simulate_zero_error_returns_latent_design():
    sc = Scenario(
        name="x",
        model=ModelSpec(family="linear", intercept=False),
        theta0=np.array([1.0]),
        n=50,
        sigma_u=np.array([[0.0]]),
    )
    ds, latent = simulate_dataset(sc, np.random.default_rng(0), return_latent=True)
    assert np.array_equal(ds.z, latent)


def test_simulate_surrogate_second_moment():
    sc = _exp_scenario(n=100_000, s2=0.25)
    ds = simulate_dataset(sc, np.random.default_rng(1))
    var_z = ds.z.var()
    # var(Z) = var(X) + sigma_u^2; moment SE ~ sqrt(2/n) * var
    assert abs(var_z - 1.25) < 3 * np.sqrt(2.0 / 100_000) * 1.25


def test_chisq_error_is_median_centered():
    sc = quantile_scenario(n=40_000, sigma_u=0.1, eps_dist="chisq2")
    ds, latent = simulate_dataset(sc, np.random.default_rng(2), return_latent=True)
    eps = ds.y - latent @ sc.theta0
    # density of the scaled error at its median is 1/2, so the sample median
    # has standard error about 1/sqrt(n)
    assert abs(np.median(eps)) < 3.0 / np.sqrt(40_000)
    assert abs(eps.var() - 1.0) < 0.05
    assert CHISQ2_MEDIAN == 1.3863


def test_poisson_scenario_counts():
    sc = Scenario(
        name="p",
        model=ModelSpec(family="poisson"),
        theta0=np.array([0.7]),
        n=500,
        sigma_u=np.array([[0.25]]),
    )
    ds = simulate_dataset(sc, np.random.default_rng(3))
    assert np.all(ds.y >= 0) and np.all(ds.y == np.floor(ds.y))


def test_laplace_error_variance_matches_nominal():
    sc = Scenario(
        name="m",
        model=ModelSpec(family="poisson"),
        theta0=np.array([1.0]),
        n=200_000,
        sigma_u=np.array([[0.5]]),
        x_cov=np.array([[0.5]]),
        u_dist="laplace",
    )
    ds, latent = simulate_dataset(sc, np.random.default_rng(4), return_latent=True)
    u = ds.z - latent
    se = np.sqrt((np.mean(u**4) - 0.25) / len(u))
    assert abs(u.var() - 0.5) < 3 * se
    # the dataset still carries the nominal (normal-theory) covariance
    assert np.isclose(ds.sigma_u[0, 0], 0.5)


# --------------------------------------------------------------------------
# summaries
# --------------------------------------------------------------------------


def test_summarize_exact_recovery():
    s = summarize(np.array([[1.0], [1.0], [1.0]]), np.array([1.0]))
    assert s.bias[0] == 0.0 and s.variance[0] == 0.0 and s.mse[0] == 0.0


def test_summarize_hand_case():
    s = summarize(np.array([[0.0], [2.0]]), np.array([1.0]))
    assert s.mean[0] == 1.0 and s.bias[0] == 0.0
    assert s.variance[0] == 1.0 and s.mse[0] == 1.0


def test_summarize_needs_two():
    with pytest.raises(DataError):
        summarize(np.array([[1.0]]), np.array([1.0]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31 - 1))
def test_summarize_mse_identity(r, seed):
    rng = np.random.default_rng(seed)
    est = rng.normal(0, 2, (r, 2))
    theta0 = rng.normal(0, 1, 2)
    s = summarize(est, theta0)
    assert np.allclose(s.mse, s.bias**2 + s.variance, atol=1e-12)


# --------------------------------------------------------------------------
# studies
# --------------------------------------------------------------------------


def test_run_study_deterministic():
    sc = _exp_scenario(n=120)
    a = run_study([sc], replications=10, seed=5)
    b = run_study([sc], replications=10, seed=5)
    assert np.array_equal(a[0].summary.mean, b[0].summary.mean)
    assert np.array_equal(a[0].summary.mse, b[0].summary.mse)


def test_zero_error_cell_ex_equals_naive_per_replication():
    ex = run_study([_exp_scenario(n=100, s2=0.0, estimator="ex")],
                   replications=8, seed=6, keep_estimates=True)[0]
    nai = run_study([_exp_scenario(n=100, s2=0.0, estimator="naive")],
                    replications=8, seed=6, keep_estimates=True)[0]
    assert np.allclose(ex.estimates, nai.estimates, atol=1e-9)


def test_run_study_reports_timing_and_counts():
    cells = run_study([_exp_scenario(n=100)], replications=5, seed=7)
    assert cells[0].replications == 5
    assert cells[0].failures == 0
    assert cells[0].seconds > 0


def test_naive_cell_uses_scenario_config():
    stalled = EstimateConfig(options=MinimizeOptions(max_iters=1))
    sc = replace(_exp_scenario(n=100, estimator="naive"), config=stalled)
    with pytest.raises(EstimationError, match="4/4 replications failed"):
        run_study([sc], replications=4, seed=8)


def test_misspecification_counts_failed_replicates(monkeypatch):
    ex_estimate = montecarlo.ex_estimate
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise EstimationError("injected")
        return ex_estimate(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ex_estimate", first_fails)
    rep = misspecification_study(seed=3, n_values=(200,), replications=20)
    assert [(c.u_dist, c.replications) for c in rep.cells] == [("normal", 19), ("laplace", 20)]
    assert all(np.isfinite(c.mean) for c in rep.cells)

    def always_fails(*args, **kwargs):
        raise EstimationError("injected")

    monkeypatch.setattr(montecarlo, "ex_estimate", always_fails)
    with pytest.raises(EstimationError, match="20/20 replications failed"):
        misspecification_study(seed=3, n_values=(200,), replications=20)


def test_preset_scenario_grids():
    t1 = exponential_scenarios()
    assert len(t1) == 12  # 3 variances x 4 sample sizes
    t23 = bivariate_exponential_scenarios()
    assert len(t23) == 12
    assert t23[0].sigma_u[0, 1] == 0.5 * t23[0].sigma_u[0, 0]


def test_quantile_lines_study_shape():
    sc = quantile_scenario(n=150, sigma_u=0.1)
    rows = quantile_lines_study(sc, seed=8, replications=1)
    assert len(rows) == 15  # 5 taus x 3 estimators
    assert {r.estimator for r in rows} == {"ex", "oracle", "naive"}
    assert len({r.tau for r in rows}) == 5


def test_quantile_lines_symmetric_error_intercept():
    # tau = 1/2 with symmetric errors: population intercept offset is zero
    sc = quantile_scenario(n=2000, sigma_u=0.1, beta0=1.0, beta1=2.0)
    rows = quantile_lines_study(sc, taus=[0.5], seed=9, replications=5)
    ints = [r.intercept for r in rows if r.estimator == "ex"]
    assert abs(np.mean(ints) - 1.0) < 0.1


def test_linear_direct_asymptotic_variance_value():
    # theta0 = 1, sigma_eps^2 = 1, sigma_u^2 = 0.25, E X^2 = 1
    assert np.isclose(
        linear_direct_asymptotic_variance(1.0, 1.0, 0.25, 1.0), 1.625
    )


def test_table1_trend_over_seed_battery():
    """Qualitative trend of the first simulation design: averaged over seeds,
    precision improves with n and degrades with the error variance.

    Checked on the columns where the corrected objective is well posed
    (sigma_u^2 <= 0.25); at sigma_u^2 = 0.5 the lambda = -1 objective loses
    its minimizer for a nontrivial share of samples and the printed source
    table is itself non-monotone in n there.
    """
    acc = {}
    for seed in range(5):
        cells = run_study(
            exponential_scenarios(sigma2_values=(0.25, 0.1)),
            replications=150,
            seed=seed,
        )
        for c in cells:
            key = (c.scenario.n, float(c.scenario.sigma_u[0, 0]))
            acc.setdefault(key, []).append(
                (abs(c.summary.bias[0]), c.summary.variance[0], c.summary.mse[0])
            )
    avg = {k: np.mean(v, axis=0) for k, v in acc.items()}
    ns = (200, 300, 500, 800)
    slack = 1e-3
    for s2 in (0.25, 0.1):
        for a, b in zip(ns, ns[1:]):
            for i in range(3):
                assert avg[(b, s2)][i] <= avg[(a, s2)][i] + slack, (s2, a, b, i)
    for n in ns:
        for i in range(3):
            assert avg[(n, 0.1)][i] <= avg[(n, 0.25)][i] + slack, (n, i)
