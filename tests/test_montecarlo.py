"""Simulation harness: data generation, summaries, and studies."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simexfree import (
    ConfigError,
    DataError,
    EstimateConfig,
    SimexfreeError,
    EstimationError,
    LambdaGrid,
    MinimizeOptions,
    ModelSpec,
    Scenario,
    ex_estimate,
    linear_direct_asymptotic_variance,
    misspecification_study,
    naive_estimate,
    quantile_lines_study,
    run_study,
    simulate_dataset,
    summarize,
)
from simexfree import montecarlo
from simexfree.montecarlo import (
    CHISQ2_MEDIAN,
    bivariate_exponential_scenarios,
    exponential_scenarios,
    quantile_scenario,
)
from simexfree.simex import _stream


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


def test_simulate_dataset_puts_the_intercept_first():
    kw = dict(name="x", n=50, sigma_u=np.array([[0.25]]))
    ds, latent = simulate_dataset(Scenario(model=ModelSpec(family="linear"), theta0=[1.5, 2.0],
                                           **kw), np.random.default_rng(5), return_latent=True)
    rng = np.random.default_rng(5)
    rng.standard_normal((100, 1))  # the latent covariates and their errors
    assert np.array_equal(ds.y, 1.5 + latent @ np.array([2.0]) + rng.standard_normal(50))
    for model, theta0, q in ((ModelSpec(family="linear"), [2.0], 2),
                             (ModelSpec(family="logistic"), [0.5, 1.0, 2.0], 2),
                             (ModelSpec(family="linear", intercept=False), [0.0, 2.0], 1),
                             (ModelSpec(family="quantile", tau=0.5), [2.0], 2)):
        sc = Scenario(model=model, theta0=theta0, augment_intercept=model.family == "quantile",
                      **kw)
        with pytest.raises(ConfigError, match=f"theta0 has length {len(theta0)}, expected {q}"):
            simulate_dataset(sc, np.random.default_rng(5))


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
    # the poisson cells solve their replicates as one stack; a None entry
    # is a replicate whose estimator failed
    ex_estimate_stack = montecarlo.ex_estimate_stack
    calls = []

    def first_fails(*args, **kwargs):
        out = ex_estimate_stack(*args, **kwargs)
        calls.append(1)
        if len(calls) == 1:
            out[0] = None
        return out

    monkeypatch.setattr(montecarlo, "ex_estimate_stack", first_fails)
    rep = misspecification_study(seed=3, n_values=(200,), replications=20)
    assert [(c.u_dist, c.replications) for c in rep.cells] == [("normal", 19), ("laplace", 20)]
    assert all(np.isfinite(c.mean) for c in rep.cells)

    def always_fails(model, datasets, *args, **kwargs):
        return [None] * len(datasets)

    monkeypatch.setattr(montecarlo, "ex_estimate_stack", always_fails)
    with pytest.raises(EstimationError, match="20/20 replications failed"):
        misspecification_study(seed=3, n_values=(200,), replications=20)


def _scalar_loop(sc, reps, seed):
    """One ex_estimate or naive_estimate per replicate, as run_study's first
    cell draws them: the estimates that succeeded and the failure count."""
    cfg = sc.config or EstimateConfig()
    ests, paths = [], []
    for r in range(reps):
        ds = simulate_dataset(sc, _stream(seed, (0, r)))
        try:
            if sc.estimator == "naive":
                ests.append(naive_estimate(sc.model, ds, cfg).theta_hat)
            else:
                res = ex_estimate(sc.model, ds, cfg)
                ests.append(res.theta_hat.flat_vector)
                paths.append(res.path)
        except (SimexfreeError, np.linalg.LinAlgError):
            pass
    return np.asarray(ests), reps - len(ests), paths


def _cell(model=None, theta0=(1.0,), n=120, s2=0.25, **kw):
    return Scenario(name="cell", model=model or ModelSpec(family="exponential"),
                    theta0=np.asarray(theta0), n=n, sigma_u=np.atleast_2d(s2), **kw)


@pytest.mark.parametrize(
    "sc",
    [
        _cell(),
        _cell(estimator="naive"),
        bivariate_exponential_scenarios((0.25,), (150,))[0],
        _cell(ModelSpec(family="poisson"), (0.7,), n=150),
        _cell(ModelSpec(family="linear"), (0.0, 2.0)),
        _cell(ModelSpec(family="linear", intercept=False), (2.0,)),
        _cell(ModelSpec(family="linear"), (0.0, 2.0), estimator="naive"),
        # branch collapses: some replicates leave the naive branch and take the grid
        _cell(n=200, s2=0.5),
        _cell(n=80, config=EstimateConfig(force_grid=True)),
        _cell(ModelSpec(family="poisson"), (0.7,), config=EstimateConfig(force_grid=True)),
        # too many failures: the cell raises
        _cell(config=EstimateConfig(options=MinimizeOptions(max_iters=1))),
        _cell(estimator="naive", config=EstimateConfig(options=MinimizeOptions(max_iters=1))),
        # kernels that broadcast over the stack (sine) or run once per set
        _cell(ModelSpec(family="sine")),
        _cell(ModelSpec(family="lpre"), (0.5,)),
        _cell(ModelSpec(family="expectile", tau=0.3), (2.0,)),
        _cell(ModelSpec(family="logistic"), (0.5, 1.0)),
        # simplex (one solve per replicate) at lambda = 0, stacked quasi-Newton
        # elsewhere on the grid
        _cell(ModelSpec(family="quantile", tau=0.5), (1.0, 2.0), augment_intercept=True),
        _cell(ModelSpec(family="lare"), (0.5,)),
        _cell(ModelSpec(family="walsh"), (1.0,), n=40),
        # one solve per replicate and stage
        _cell(config=EstimateConfig(options=MinimizeOptions(method="simplex"))),
    ],
    ids=["exponential", "exponential-naive", "exponential-p2", "poisson", "linear",
         "linear-no-intercept", "linear-naive", "branch-collapse", "force-grid",
         "poisson-force-grid", "max-iters-1", "max-iters-1-naive", "sine", "lpre",
         "expectile-t0.3", "logistic", "quantile-t0.5", "lare", "walsh",
         "exponential-simplex"],
)
def test_batched_replicates_equal_the_scalar_loop(monkeypatch, sc):
    reps, seed = 12, 21
    ests, failures, paths = _scalar_loop(sc, reps, seed)
    if sc.n == 200 and sc.sigma_u[0, 0] == 0.5:
        assert 0 < paths.count("extrapolated") < reps
    options = sc.config.options if sc.config is not None else None
    stalled = options is not None and options.max_iters == 1
    assert (failures > 0.05 * reps) == stalled

    def scalar(*args, **kwargs):
        raise AssertionError("a stacked cell ran a scalar estimate")

    monkeypatch.setattr(montecarlo, "ex_estimate", scalar)
    monkeypatch.setattr(montecarlo, "naive_estimate", scalar)
    if stalled:
        with pytest.raises(EstimationError, match=f"{failures}/{reps} replications failed"):
            run_study([sc], reps, seed=seed)
        return
    cell = run_study([sc], reps, seed=seed, keep_estimates=True)[0]
    assert np.array_equal(cell.estimates, ests)
    assert (cell.failures, cell.replications) == (failures, reps - failures)


@pytest.mark.parametrize("family", ["exponential", "sine"])
@pytest.mark.parametrize(
    "config, message",
    [
        (EstimateConfig(start=np.zeros(3)), "theta has length 3"),
        (EstimateConfig(grid=LambdaGrid([0.0, 1.0]), force_grid=True),
         "quadratic extrapolant needs at least 3 grid points"),
    ],
    ids=["start-length", "two-point-grid"],
)
def test_study_cell_raises_config_errors(family, config, message):
    sc = _cell(ModelSpec(family=family), config=config)
    with pytest.raises(ConfigError, match=message):
        run_study([sc], replications=5, seed=4)


def test_studies_need_one_replication():
    with pytest.raises(ConfigError, match="at least one replication"):
        misspecification_study(seed=0, replications=0)
    with pytest.raises(ConfigError, match="at least one replication"):
        quantile_lines_study(quantile_scenario(), seed=0, replications=0)


def test_studies_refuse_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        run_study([_exp_scenario(n=50)], replications=2, seed=-1)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        quantile_lines_study(quantile_scenario(n=50), seed=-1)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        misspecification_study(seed=-1, replications=1)


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
