"""Classical simulation-based SIMEX baseline."""

from dataclasses import fields

import numpy as np
import pytest

from simexfree import (
    ConfigError,
    Dataset,
    EstimateConfig,
    EstimationError,
    LambdaGrid,
    MinimizeOptions,
    ModelSpec,
    SimexConfig,
    classical_simex,
    direct_estimate,
    naive_estimate,
    pseudo_data,
)
from simexfree.extrapolate import extrapolation_se, minimize_target
from simexfree.simex import _stream


def _linear_data(seed=0, n=200, su=0.25, beta=1.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    z = x + rng.normal(0, np.sqrt(su), n)
    y = 1.0 + beta * x + rng.standard_normal(n)
    return Dataset(y=y, z=z, sigma_u=su)


def test_pseudo_data_zero_lambda_and_zero_sigma():
    ds = _linear_data()
    rng = np.random.default_rng(0)
    assert np.array_equal(pseudo_data(ds, 0.0, rng), ds.z)
    ds0 = Dataset(y=ds.y, z=ds.z, sigma_u=0.0)
    assert np.array_equal(pseudo_data(ds0, 1.7, rng), ds0.z)
    with pytest.raises(ConfigError):
        pseudo_data(ds, -0.5, rng)


def test_pseudo_data_noise_covariance():
    rng = np.random.default_rng(1)
    n = 100_000
    sigma = np.array([[0.3, 0.1], [0.1, 0.2]])
    ds = Dataset(y=np.zeros(n), z=np.zeros((n, 2)), sigma_u=sigma)
    lam = 1.5
    noise = pseudo_data(ds, lam, rng) - ds.z
    sample = np.cov(noise, rowvar=False)
    target = lam * sigma
    for i in range(2):
        for j in range(2):
            se = np.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / n)
            assert abs(sample[i, j] - target[i, j]) < 3 * se


def test_classical_simex_deterministic():
    ds = _linear_data(seed=2)
    model = ModelSpec(family="linear")
    cfg = SimexConfig(b=10, grid=LambdaGrid(np.linspace(0, 2, 6)), seed=42)
    a = classical_simex(model, ds, cfg)
    b = classical_simex(model, ds, cfg)
    assert np.array_equal(a.theta_hat.flat_vector, b.theta_hat.flat_vector)
    assert np.array_equal(a.grid.thetas, b.grid.thetas)


def test_classical_simex_zero_lambda_average_is_naive():
    ds = _linear_data(seed=3)
    model = ModelSpec(family="linear")
    for b in (1, 7):
        cfg = SimexConfig(b=b, grid=LambdaGrid([0.0, 0.5, 1.0, 1.5, 2.0]), seed=0)
        res = classical_simex(model, ds, cfg)
        assert np.allclose(res.grid.thetas[0], res.naive.flat_vector)
        assert np.allclose(res.mc_se[0], 0.0)


def test_classical_simex_sigma_zero_returns_naive():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(80)
    y = 1.0 + 2.0 * x + rng.standard_normal(80)
    ds = Dataset(y=y, z=x, sigma_u=0.0)
    res = classical_simex(ModelSpec(family="linear"), ds,
                          SimexConfig(b=5, seed=9))
    assert np.max(np.abs(res.theta_hat.flat_vector - res.naive.flat_vector)) < 1e-10


def test_classical_simex_agrees_with_direct_linear():
    ds = _linear_data(seed=5, n=500)
    model = ModelSpec(family="linear")
    cfg = SimexConfig(b=200, kind="rational", seed=7)
    sim = classical_simex(model, ds, cfg)
    direct = direct_estimate(model, ds)
    se = extrapolation_se(sim.extrapolant, sim.grid.grid.values, sim.mc_se)
    diff = np.abs(sim.theta_hat.flat_vector - direct.theta_hat.flat_vector)
    assert np.all(diff <= 3.0 * np.maximum(se, 1e-12) + 1e-8), (diff, se)


def test_classical_config_validation():
    with pytest.raises(ConfigError):
        SimexConfig(b=0)
    with pytest.raises(ConfigError):
        SimexConfig(kind="cubic")


def test_simex_config_is_estimate_config_plus_b_and_seed():
    inherited = {f.name for f in fields(EstimateConfig)}
    assert [f.name for f in fields(SimexConfig) if f.name not in inherited] == ["b", "seed"]
    assert isinstance(SimexConfig(), EstimateConfig)


def test_extrapolation_se_matches_simulation():
    # for polynomial trends the extrapolated value is linear in the grid
    # averages, so the propagated standard error must match simulation
    from simexfree import GridEstimates, fit_extrapolant, extrapolate_to_minus_one

    grid = LambdaGrid(np.linspace(0, 2, 9))
    truth = 1.0 + 0.5 * grid.values - 0.1 * grid.values**2
    se = 0.02 + 0.03 * grid.values  # heteroscedastic grid noise
    rng = np.random.default_rng(6)
    draws = np.empty(4000)
    fit = None
    for k in range(draws.size):
        noisy = truth + se * rng.standard_normal(grid.size)
        fit = fit_extrapolant(GridEstimates(grid=grid, thetas=noisy[:, None]),
                              "quadratic")
        draws[k] = extrapolate_to_minus_one(fit)[0]
    predicted = extrapolation_se(fit, grid.values, se[:, None])[0]
    empirical = draws.std(ddof=1)
    assert abs(predicted - empirical) < 0.08 * empirical


def _exponential_data(seed=3, n=200):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = np.exp(x) + rng.standard_normal(n)
    return Dataset(y=y, z=x + rng.normal(0, 0.5, n), sigma_u=0.25)


@pytest.mark.parametrize("family", ["exponential", "linear", "poisson", "sine", "quantile"])
def test_batched_replicates_match_one_solve_per_pseudo_data_set(family):
    # the reference: one scalar naive solve per (grid point, replicate);
    # sine and quantile solve one pseudo-data set at a time, quantile by simplex
    rng = np.random.default_rng(13)
    x = rng.standard_normal(150)
    y = {"exponential": np.exp(x) + rng.standard_normal(150),
         "linear": 1.0 + x + rng.standard_normal(150),
         "poisson": rng.poisson(np.exp(0.5 * x)).astype(float),
         "sine": np.sin(x) + 0.5 * rng.standard_normal(150),
         "quantile": 1.0 + x + rng.standard_normal(150)}[family]
    ds = Dataset(y=y, z=x + rng.normal(0, 0.5, 150), sigma_u=0.25)
    model = ModelSpec(family=family, tau=0.5 if family == "quantile" else None)
    cfg = SimexConfig(b=4, grid=LambdaGrid([0.0, 1.0, 2.0]), seed=5)
    res = classical_simex(model, ds, cfg)
    naive = naive_estimate(model, ds).theta_hat
    for k, lam in enumerate(cfg.grid.values[1:], start=1):
        draws = [
            minimize_target(model, Dataset(y=ds.y, z=pseudo_data(ds, lam, _stream(5, (k, b))),
                                           sigma_u=ds.sigma_u), 0.0, naive).theta_hat
            for b in range(cfg.b)
        ]
        np.testing.assert_allclose(res.grid.thetas[k], np.mean(draws, axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(res.mc_se[k], np.std(draws, axis=0, ddof=1) / 2.0,
                                   rtol=1e-10, atol=0)


def test_classical_failure_names_each_failed_replicate():
    ds = _exponential_data()
    model = ModelSpec(family="exponential")
    naive = naive_estimate(model, ds).theta_hat
    # the naive fit starts at its own minimizer, so only the pseudo-data
    # solves (and their retries, 4 iterations from the same start) run out
    cfg = SimexConfig(b=3, grid=LambdaGrid([0.0, 1.0, 2.0]), seed=1, start=naive,
                      options=MinimizeOptions(max_iters=1))
    with pytest.raises(EstimationError) as err:
        classical_simex(model, ds, cfg)
    assert str(err.value).endswith("lambda=1 b=0, lambda=1 b=1, lambda=1 b=2")


@pytest.mark.parametrize(
    "model",
    # batched; a per-replicate quasi-Newton loop; a per-replicate simplex loop
    [ModelSpec(family="exponential"), ModelSpec(family="sine"),
     ModelSpec(family="quantile", tau=0.5)],
    ids=["exponential", "sine", "quantile"],
)
def test_batched_classical_builds_no_dataset_per_pseudo_data_set(monkeypatch, model):
    ds = _exponential_data()
    built = []
    post_init = Dataset.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(Dataset, "__post_init__", counting)
    counts = []
    for b in (2, 8):
        built.clear()
        classical_simex(model, ds, SimexConfig(b=b, grid=LambdaGrid([0.0, 1.0, 2.0]), seed=2))
        counts.append(len(built))
    assert counts[0] == counts[1]
