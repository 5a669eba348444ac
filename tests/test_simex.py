"""Classical simulation-based SIMEX baseline."""

from dataclasses import fields

import numpy as np
import pytest

from simexfree import (
    ConfigError,
    Dataset,
    EstimateConfig,
    EstimationError,
    GridConvergenceError,
    GridEstimates,
    LambdaGrid,
    MeanFunction,
    MinimizeOptions,
    ModelSpec,
    SimexConfig,
    TargetContext,
    classical_simex,
    direct_estimate,
    extrapolate_to_minus_one,
    grid_estimate,
    naive_estimate,
    pseudo_data,
)
from simexfree import extrapolate, simex
from simexfree.extrapolate import extrapolated, extrapolation_se, minimize_target
from simexfree.montecarlo import Scenario, run_study
from simexfree.simex import _stream, _streams


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


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_pseudo_data_refuses_a_nonfinite_lambda(lam):
    ds = _linear_data()
    with pytest.raises(ConfigError, match="finite"):
        pseudo_data(ds, lam, np.random.default_rng(0))


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


@pytest.mark.parametrize(
    "setting",
    [{"b": 2.5}, {"b": True}, {"b": "3"}, {"b": np.float64(3.0)}, {"seed": 1.5}, {"seed": True},
     {"seed": np.int64(-1)}],
    ids=["b-float", "b-bool", "b-str", "b-numpy-float", "seed-float", "seed-bool",
         "seed-numpy-negative"],
)
def test_simex_config_refuses_a_non_integral_b_or_seed(setting):
    with pytest.raises(ConfigError, match=f"{next(iter(setting))} must be"):
        SimexConfig(**setting)


def test_simex_config_takes_numpy_integers():
    ds = _linear_data(n=50)
    cfg = SimexConfig(b=np.int64(3), seed=np.int64(4), grid=LambdaGrid([0.0, 1.0, 2.0]))
    res = classical_simex(ModelSpec(family="linear"), ds, cfg)
    ref = classical_simex(ModelSpec(family="linear"), ds,
                          SimexConfig(b=3, seed=4, grid=LambdaGrid([0.0, 1.0, 2.0])))
    assert np.array_equal(res.grid.thetas, ref.grid.thetas)


def test_classical_simex_refuses_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        classical_simex(ModelSpec(family="linear"), _linear_data(n=50), SimexConfig(b=2, seed=-3))


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


def _family_data(family):
    """One dataset of ``family`` (n = 150) and its model; every family has
    the same surrogates."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal(150)
    ys = {"exponential": np.exp(x) + rng.standard_normal(150),
          "linear": 1.0 + x + rng.standard_normal(150),
          "poisson": rng.poisson(np.exp(0.5 * x)).astype(float),
          "sine": np.sin(x) + 0.5 * rng.standard_normal(150),
          "quantile": 1.0 + x + rng.standard_normal(150)}
    # the other families' responses reuse these draws
    ys.update(lpre=np.exp(0.5 * ys["linear"] - 0.5), logistic=(ys["linear"] > 1.0).astype(float),
              expectile=ys["quantile"], walsh=ys["quantile"], generic=ys["linear"])
    ys["lare"] = ys["lpre"]
    ds = Dataset(y=ys[family], z=x + rng.normal(0, 0.5, 150), sigma_u=0.25)
    # a generic mean function linear in theta, an intercept and a slope
    mean_fn = MeanFunction(fn=lambda x, th: th[0] + th[1] * x[:, 0], n_params=2)
    return ds, ModelSpec(family=family, tau={"quantile": 0.5, "expectile": 0.3}.get(family),
                         mean_fn=mean_fn if family == "generic" else None)


def _pseudo_draws(model, ds, cfg, starts):
    """One scalar naive solve per (grid point, replicate), from ``starts[k]``:
    the estimates (K - 1, B, q)."""
    return np.array([
        [minimize_target(TargetContext(
            dataset=Dataset(y=ds.y, z=pseudo_data(ds, lam, _stream(cfg.seed, (k, b))),
                            sigma_u=ds.sigma_u), model=model, lam=0.0), starts[k]).theta_hat
         for b in range(cfg.b)]
        for k, lam in enumerate(cfg.grid.values[1:], start=1)
    ])


FAMILIES = ["exponential", "linear", "poisson", "sine", "quantile", "lpre", "logistic",
            "expectile", "lare", "walsh", "generic"]


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_replicates_match_one_solve_per_pseudo_data_set(family):
    # the reference: one scalar naive solve per (grid point, replicate), from
    # the simulation-free grid minimizer at its noise level; quantile, lare
    # and walsh solve one pseudo-data set at a time, by simplex, generic one
    # set at a time by Gauss-Newton, and every other family solves them as
    # one stack
    ds, model = _family_data(family)
    # logistic at two quadrature nodes keeps the reference's grid cheap
    cfg = SimexConfig(b=6, grid=LambdaGrid([0.0, 1.0, 2.0]), seed=5, nodes=2)
    res = classical_simex(model, ds, cfg)
    grid = grid_estimate(model, ds, cfg)
    draws = _pseudo_draws(model, ds, cfg, grid.thetas)
    assert np.array_equal(res.grid.thetas[0], grid.thetas[0])
    np.testing.assert_allclose(res.grid.thetas[1:], draws.mean(axis=1), rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.mc_se[1:], draws.std(axis=1, ddof=1) / np.sqrt(cfg.b),
                               rtol=1e-10, atol=0)


@pytest.mark.parametrize("family", FAMILIES)
def test_classical_agrees_with_naive_started_replicates(family):
    # the grid starts move each pseudo-data minimizer only within the
    # optimizer tolerance of the one reached from the naive estimate
    # (logistic at two quadrature nodes keeps the grid cheap)
    ds, model = _family_data(family)
    cfg = SimexConfig(b=6, grid=LambdaGrid([0.0, 0.5, 1.0, 2.0]), kind="quadratic", seed=8,
                      nodes=2)
    res = classical_simex(model, ds, cfg)
    naive = naive_estimate(model, ds).theta_hat
    draws = _pseudo_draws(model, ds, cfg, [naive] * cfg.grid.size)
    means = np.vstack([naive, draws.mean(axis=1)])
    ref = extrapolated(GridEstimates(grid=cfg.grid, thetas=means), cfg.kind,
                       model.has_intercept).theta_hat.flat_vector
    for got, want in ((res.grid.thetas, means), (res.theta_hat.flat_vector, ref)):
        assert np.all(np.abs(got - want) <= 1e-7 * (1.0 + np.abs(want))), (got, want)


def _spy_pseudo_data_solves(monkeypatch):
    """Record (max_iters, starts) of every lambda = 0 solve that classical
    SIMEX runs: the pseudo-data solves and their retries."""
    calls = []
    row_solver = simex.row_solver

    def spy(model, dataset, cfg, z=None, y=None):
        solve = row_solver(model, dataset, cfg, z, y)

        def run(rows, lam, starts):
            if lam == 0.0:
                calls.append((getattr(cfg.options, "max_iters", None), starts.copy()))
            return solve(rows, lam, starts)

        return run

    monkeypatch.setattr(simex, "row_solver", spy)
    return calls


def test_classical_starts_from_the_naive_estimate_when_the_grid_fails(monkeypatch):
    # from a start 0.01 off, four iterations solve the naive fit but not the
    # grid's lambda > 0 points, so every pseudo-data set starts from the
    # naive estimate, and a retried one from the configured start
    ds = _exponential_data()
    model = ModelSpec(family="exponential")
    start = naive_estimate(model, ds).theta_hat + 0.01
    cfg = SimexConfig(b=3, grid=LambdaGrid([0.0, 1.0, 2.0]), seed=1, start=start,
                      options=MinimizeOptions(max_iters=4))
    naive = naive_estimate(model, ds, cfg).theta_hat
    assert not np.array_equal(naive, start)
    with pytest.raises(GridConvergenceError):
        grid_estimate(model, ds, cfg)
    calls = _spy_pseudo_data_solves(monkeypatch)
    classical_simex(model, ds, cfg)
    first = [starts for iters, starts in calls if iters == 4]
    retried = [starts for iters, starts in calls if iters == 4 * 4]
    # the six sets are one group, solved from the naive estimate
    assert len(first) == 1 and len(first[0]) == 6 and retried
    for starts, want in [(first[0], naive)] + [(r, start) for r in retried]:
        assert np.array_equal(starts, np.tile(want, (len(starts), 1)))


def test_classical_starts_every_set_from_the_grid_at_the_default_quadrature(monkeypatch):
    # a logistic grid value at lambda > 0 costs 30 quadrature nodes per data
    # row, yet B = 6 sets still start from the grid's minimizers
    ds, model = _family_data("logistic")
    cfg = SimexConfig(b=6, grid=LambdaGrid([0.0, 1.0, 2.0]), seed=5)
    assert cfg.nodes == 30
    calls = _spy_pseudo_data_solves(monkeypatch)
    classical_simex(model, ds, cfg)
    (_, starts), = calls
    grid = grid_estimate(model, ds, cfg)
    assert np.array_equal(starts, np.repeat(grid.thetas[1:], cfg.b, axis=0))


def _spy_solvers(monkeypatch):
    """Record every solver that classical SIMEX builds past its naive fit:
    the grid's and the pseudo-data sets'."""
    built = []
    row_solver = simex.row_solver
    monkeypatch.setattr(simex, "row_solver",
                        lambda *args, **kwargs: built.append(args) or row_solver(*args, **kwargs))
    return built


def test_classical_raises_a_failed_naive_fit_before_any_other_solve(monkeypatch):
    ds = _exponential_data()
    model = ModelSpec(family="exponential")
    cfg = SimexConfig(b=3, grid=LambdaGrid([0.0, 1.0, 2.0]), seed=1, start=np.array([3.0]),
                      options=MinimizeOptions(max_iters=1))
    built = _spy_solvers(monkeypatch)
    with pytest.raises(EstimationError, match=r"^naive estimate did not converge \(status "):
        classical_simex(model, ds, cfg)
    assert built == []


@pytest.mark.parametrize("kind", ["quadratic", "rational"])
def test_classical_refuses_a_grid_too_short_for_the_extrapolant_before_any_solve(
    monkeypatch, kind
):
    naive = []
    monkeypatch.setattr(simex, "naive_estimate", lambda *args: naive.append(args))
    built = _spy_solvers(monkeypatch)
    cfg = SimexConfig(b=3, grid=LambdaGrid([0.0, 2.0]), kind=kind)
    with pytest.raises(ConfigError, match=f"^{kind} extrapolant needs at least 3 grid points$"):
        classical_simex(ModelSpec(family="exponential"), _exponential_data(), cfg)
    assert naive == built == []


def test_classical_failure_names_each_failed_replicate():
    ds = _exponential_data()
    model = ModelSpec(family="exponential")
    naive = naive_estimate(model, ds).theta_hat
    # the naive fit starts at its own minimizer, so only the pseudo-data
    # solves (and their retries, 4 iterations from the same start) run out
    cfg = SimexConfig(b=3, grid=LambdaGrid([0.0, 1.0, 2.0]), seed=3, start=naive,
                      options=MinimizeOptions(max_iters=1))
    with pytest.raises(EstimationError) as err:
        classical_simex(model, ds, cfg)
    assert str(err.value).endswith("lambda=1 b=0, lambda=1 b=1, lambda=1 b=2")


@pytest.mark.parametrize(
    "model",
    # a quasi-Newton stack (exponential, sine); a per-replicate simplex loop
    # (quantile)
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


def test_classical_groups_that_straddle_noise_levels_keep_every_bit(monkeypatch):
    # B = 4 on a three-point grid is 8 pseudo-data sets; groups of 3 sets
    # cut across the two noise levels (3 | 1 + 2 | 2), and at this seed and
    # iteration cap the grid converges and one row of the first group
    # (lambda = 1, b = 2) is retried
    ds = _exponential_data(seed=14)
    model = ModelSpec(family="exponential")
    cap = 5
    cfg = SimexConfig(b=4, grid=LambdaGrid([0.0, 1.0, 2.0]), seed=24,
                      options=MinimizeOptions(max_iters=cap))
    one_group = classical_simex(model, ds, cfg)
    stacks, retried = [], []
    row_solver = simex.row_solver

    def spy(model, dataset, cfg, z=None, y=None):
        solve = row_solver(model, dataset, cfg, z, y)

        def run(rows, lam, starts):
            if z is not None:  # a pseudo-data solve; the grid's have no z
                stacks.extend([len(z), rows.size])
            if cfg.options.max_iters == 4 * cap:
                retried.append(rows.size)
            return solve(rows, lam, starts)

        return run

    monkeypatch.setattr(simex, "row_solver", spy)
    monkeypatch.setattr(simex, "STACK_GROUP_VALUES", 3 * ds.n)
    grouped = classical_simex(model, ds, cfg)
    assert retried == [1]
    assert max(stacks) == max(1, simex.STACK_GROUP_VALUES // (ds.n * ds.p)) == 3
    assert np.array_equal(grouped.grid.thetas, one_group.grid.thetas)
    assert np.array_equal(grouped.mc_se, one_group.mc_se)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3, 2**200 + 11]
KEYS = [[(0,), (2**32 - 1,), (7,)],
        [(0, 0), (1, 2**32 - 1), (2**32 - 1, 0)],
        [(0, 1, 2), (2**32 - 1, 0, 2**32 - 1), (3, 2**32 - 1, 0)]]


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_keys_are_numpys_spawned_seed_sequence_keys(seed):
    # seeds of one to seven 32-bit words; keys of one to three words
    for keys in KEYS:
        got = [rng.bit_generator.state["state"]["key"].copy() for rng in _streams(seed, keys)]
        want = [np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint64)
                for key in keys]
        assert np.array_equal(got, want)


def _draws(rng):
    """One 32-bit value, which would take any half of a 64-bit draw left in
    the generator's state, a few draws of each kind a study or a fit takes,
    and two more 32-bit values, which leave such a half."""
    out = [rng.integers(0, 2**32, size=1, dtype=np.uint32), rng.standard_normal(5),
           rng.laplace(0.0, 0.3, 3), rng.chisquare(2, 3), rng.poisson(2.5, 4), rng.random(3),
           rng.integers(0, 2**32, size=2, dtype=np.uint32)]
    assert rng.bit_generator.state["has_uint32"] == 1
    return np.concatenate(out)


@pytest.mark.parametrize("seed", [0, 2**32, 2**200 + 11])
def test_streams_draw_what_a_fresh_stream_draws(seed):
    keys = [(k, b) for k in range(1, 3) for b in (0, 1, 2**32 - 1)]
    for key, rng in zip(keys, _streams(seed, keys)):
        assert np.array_equal(_draws(rng), _draws(_stream(seed, key)))


@pytest.mark.parametrize("seed, keys", [(-1, [(0, 0)]), (0, [(0, -1)]), (0, [(0, 2**32)]),
                                        (0, [(2**70, 0)])])
def test_streams_reject_a_negative_seed_and_a_key_outside_32_bits(seed, keys):
    with pytest.raises(ConfigError):
        list(_streams(seed, keys))


def _spy_pseudo_data(monkeypatch):
    """Record the pseudo-data stack of each group that classical SIMEX
    solves (a retry solves the same stack again)."""
    stacks = []
    row_solver = simex.row_solver

    def spy(model, dataset, cfg, z=None, y=None):
        if z is not None and not any(z is seen for seen in stacks):
            stacks.append(z.copy())
        return row_solver(model, dataset, cfg, z, y)

    monkeypatch.setattr(simex, "row_solver", spy)
    return stacks


@pytest.mark.parametrize("sigma_u", [
    0.25,
    [[0.25, 0.05], [0.05, 0.2]],
    [[0.3, 0.1, -0.05], [0.1, 0.2, 0.04], [-0.05, 0.04, 0.15]],
    0.0,
], ids=["p1", "p2", "p3", "sigma0"])
@pytest.mark.parametrize("group_sets", [None, 3], ids=["one_group", "straddling"])
def test_grouped_pseudo_data_equal_one_draw_per_set(monkeypatch, sigma_u, group_sets):
    # B = 4 on a three-point grid is 8 pseudo-data sets: one group, or
    # groups of 3 sets that cut across the two noise levels (3 | 1 + 2 | 2)
    sigma = np.atleast_2d(sigma_u)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((120, sigma.shape[0]))
    ds = Dataset(y=1.0 + x.sum(axis=1) + rng.standard_normal(120),
                 z=x + 0.4 * rng.standard_normal(x.shape), sigma_u=sigma)
    cfg = SimexConfig(b=4, grid=LambdaGrid([0.0, 1.0, 2.0]), seed=2**32 + 9)
    stacks = _spy_pseudo_data(monkeypatch)
    if group_sets:
        monkeypatch.setattr(simex, "STACK_GROUP_VALUES", group_sets * ds.n * ds.p)
    classical_simex(ModelSpec(family="linear"), ds, cfg)
    want = np.stack([pseudo_data(ds, lam, _stream(cfg.seed, (k, b)))
                     for k, lam in enumerate(cfg.grid.values[1:], start=1)
                     for b in range(cfg.b)])
    assert [len(z) for z in stacks] == ([3, 3, 2] if group_sets else [8])
    assert np.array_equal(np.concatenate(stacks), want)


def test_a_classical_warm_up_whose_rational_profile_falls_to_the_linear_limit(monkeypatch):
    # the benchmark study's warm-up: two classical fits (B = 2) of the
    # exponential twin at n = 500, seed 0; the second replicate's profile
    # residual sum of squares falls all the way to c = infinity, so its fit
    # stops at the linear limit and extrapolates as the straight line does
    fits = []
    fit_extrapolant = extrapolate.fit_extrapolant

    def spy(ge, kind="quadratic"):
        fit = fit_extrapolant(ge, kind)
        fits.append((fit, fit_extrapolant(ge, "linear")))
        return fit

    monkeypatch.setattr(extrapolate, "fit_extrapolant", spy)
    twin = Scenario(name="w", estimator="classical", model=ModelSpec(family="exponential"),
                    theta0=[1.0], n=500, sigma_u=[[0.25]],
                    config=EstimateConfig(kind="rational"), simex_b=2)
    run_study([twin], 2, seed=0)
    assert len(fits) == 2 and fits[0][0].status[0] in ("grad_tol", "step_tol")
    assert fits[1][0].status.tolist() == ["linear_limit"]
    rational, linear = (extrapolate_to_minus_one(fit)[0] for fit in fits[1])
    assert abs(rational - linear) <= 1e-4 * abs(linear)
