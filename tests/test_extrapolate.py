"""Direct estimation, lambda-grid estimation, and extrapolant fitting."""

from dataclasses import replace

import numpy as np
import pytest

from simexfree import (
    ConfigError,
    Dataset,
    EstimateConfig,
    FittedExtrapolant,
    GridEstimates,
    IllPosedError,
    LambdaGrid,
    MeanFunction,
    ModelSpec,
    PoleError,
    direct_estimate,
    ex_estimate,
    extrapolate_to_minus_one,
    fit_extrapolant,
    grid_estimate,
    linear_closed_form,
    linear_exact_extrapolant,
    naive_estimate,
)
from simexfree import extrapolate
from simexfree.errors import GridConvergenceError
from simexfree.optimize import MinimizeOptions, minimize, minimize_batch
from simexfree.targets import FAMILIES, naive_start


def _linear_data(seed=0, n=60, su=0.2, beta=1.5, alpha=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    z = x + rng.normal(0, np.sqrt(su), n)
    y = alpha + beta * x + rng.standard_normal(n)
    return Dataset(y=y, z=z, sigma_u=su)


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ConfigError):
        LambdaGrid([0.5, 1.0])  # must start at zero
    with pytest.raises(ConfigError):
        LambdaGrid([0.0, 1.0, 1.0])  # strictly increasing
    with pytest.raises(ConfigError):
        LambdaGrid([0.0])
    g = LambdaGrid.default()
    assert g.size == 21 and g.values[0] == 0.0 and g.values[-1] == 2.0


# --------------------------------------------------------------------------
# closed form and direct path
# --------------------------------------------------------------------------


def test_linear_closed_form_is_ols_at_lambda_zero():
    ds = _linear_data()
    flat = linear_closed_form(ds, 0.0, intercept=True)
    design = np.column_stack([np.ones(ds.n), ds.z])
    ols = np.linalg.lstsq(design, ds.y, rcond=None)[0]
    assert np.allclose(flat, ols, atol=1e-10)


def test_linear_direct_corrects_attenuation():
    ds = _linear_data(seed=1, n=4000, su=0.25, beta=2.0)
    res = direct_estimate(ModelSpec(family="linear"), ds)
    naive = res.naive.coefficients[0]
    corrected = res.theta_hat.coefficients[0]
    assert naive < corrected  # attenuation pulled the naive slope down
    assert abs(corrected - 2.0) < 0.1
    assert res.path == "direct" and res.extrapolant is None


def test_linear_direct_ill_posed_error():
    # error variance claimed larger than the surrogate variance
    rng = np.random.default_rng(2)
    z = rng.normal(0, 0.3, 30)
    y = z + rng.standard_normal(30)
    ds = Dataset(y=y, z=z, sigma_u=1.0)
    with pytest.raises(IllPosedError):
        direct_estimate(ModelSpec(family="linear"), ds)


def test_direct_refuses_grid_only_families():
    ds = _linear_data()
    with pytest.raises(ConfigError, match="grid"):
        direct_estimate(ModelSpec(family="quantile", tau=0.5), ds)


def test_direct_equals_naive_when_sigma_zero():
    rng = np.random.default_rng(3)
    cases = [
        ("linear", {}, lambda x: 1.0 + 2 * x + rng.standard_normal(40)),
        ("exponential", {}, lambda x: np.exp(0.8 * x) + rng.standard_normal(40)),
        ("sine", {}, lambda x: np.sin(1.1 * x) + 0.2 * rng.standard_normal(40)),
        ("poisson", {}, lambda x: rng.poisson(np.exp(0.5 * x)).astype(float)),
        ("lpre", {}, lambda x: np.exp(0.5 * x) * np.exp(rng.normal(-0.125, 0.5, 40))),
        ("expectile", {"tau": 0.5}, lambda x: 2 * x + rng.standard_normal(40)),
    ]
    for family, kw, make_y in cases:
        x = rng.standard_normal(40)
        ds = Dataset(y=make_y(x), z=x, sigma_u=0.0)
        model = ModelSpec(family=family, **kw)
        res = direct_estimate(model, ds)
        assert np.allclose(
            res.theta_hat.flat_vector, res.naive.flat_vector, atol=1e-9
        ), family


def test_expectile_half_direct_equals_slope_only_linear():
    ds = _linear_data(seed=4, n=300, su=0.2, beta=1.2, alpha=0.0)
    lin = direct_estimate(ModelSpec(family="linear", intercept=False), ds)
    exp_half = direct_estimate(ModelSpec(family="expectile", tau=0.5), ds)
    assert abs(
        lin.theta_hat.coefficients[0] - exp_half.theta_hat.coefficients[0]
    ) < 1e-8


# --------------------------------------------------------------------------
# grid estimation
# --------------------------------------------------------------------------


def test_linear_grid_matches_closed_form_per_lambda():
    ds = _linear_data(seed=5)
    grid = LambdaGrid(np.linspace(0, 2, 9))
    ge = grid_estimate(ModelSpec(family="linear"), ds, EstimateConfig(grid=grid))
    for k, lam in enumerate(grid.values):
        closed = linear_closed_form(ds, float(lam), intercept=True)
        assert np.max(np.abs(ge.thetas[k] - closed)) < 1e-8


def test_grid_constant_when_sigma_zero():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(50)
    y = np.exp(0.7 * x) + rng.standard_normal(50)
    ds = Dataset(y=y, z=x, sigma_u=0.0)
    cfg = EstimateConfig(grid=LambdaGrid(np.linspace(0, 2, 5)))
    ge = grid_estimate(ModelSpec(family="exponential"), ds, cfg)
    assert np.allclose(ge.thetas, ge.thetas[0], atol=1e-12)


def test_grid_failure_lists_lambdas():
    ds = _linear_data(seed=7)
    opts = MinimizeOptions(max_iters=1, grad_tol=1e-16, step_tol=1e-18)
    with pytest.raises(GridConvergenceError, match="lambda"):
        grid_estimate(ModelSpec(family="exponential"), ds,
                      EstimateConfig(grid=LambdaGrid([0.0, 1.0]), options=opts))


def test_quantile_grid_attenuates_with_lambda():
    # average slope magnitude decreases in lambda (more smoothing noise)
    taus_slope = []
    grid = LambdaGrid(np.linspace(0, 2, 11))
    model = ModelSpec(family="quantile", tau=0.5)
    reps = 100
    acc = np.zeros(grid.size)
    for r in range(reps):
        rng = np.random.default_rng(500 + r)
        n = 500
        x = rng.standard_normal(n)
        y = 1.0 + 2.0 * x + rng.standard_normal(n)
        z = x + rng.normal(0, 0.5, n)
        zq = np.column_stack([np.ones(n), z])
        sig = np.zeros((2, 2))
        sig[1, 1] = 0.25
        ds = Dataset(y=y, z=zq, sigma_u=sig)
        ge = grid_estimate(model, ds, EstimateConfig(grid=grid))
        acc += ge.thetas[:, 1]
    avg = acc / reps
    assert np.all(np.diff(avg) < 1e-3)  # non-increasing up to MC slack


def test_generic_grid_fit_factors_sigma_u_once(monkeypatch):
    rng = np.random.default_rng(33)
    x = rng.standard_normal(100)
    ds = Dataset(y=1.0 + np.tanh(x) + 0.2 * rng.standard_normal(100),
                 z=x + 0.4 * rng.standard_normal(100), sigma_u=0.16)
    mf = MeanFunction(fn=lambda x, th: th[0] + th[1] * np.tanh(x[:, 0]), n_params=2)
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    cfg = EstimateConfig(grid=LambdaGrid([0.0, 0.5, 1.0]))
    ge = grid_estimate(ModelSpec(family="generic", mean_fn=mf), ds, cfg)
    assert len(ge.diagnostics) == 3
    assert calls == [(1, 1)]


def test_generic_grid_fit_with_nonfinite_differences_names_each_lambda():
    rng = np.random.default_rng(34)
    x = rng.standard_normal(50)
    ds = Dataset(y=1.0 + x + 0.2 * rng.standard_normal(50), z=x, sigma_u=0.1)
    start = np.array([1.0, 1.0])

    def fn(x, th):
        # finite at the start, NaN at every other point within 1e-3 of it
        near = 0.0 < float(np.max(np.abs(th - start))) < 1e-3
        return np.full(x.shape[0], np.nan) if near else th[0] + th[1] * x[:, 0]

    model = ModelSpec(family="generic", mean_fn=MeanFunction(fn=fn, n_params=2))
    cfg = EstimateConfig(grid=LambdaGrid([0.0, 0.5]), start=start)
    with pytest.raises(GridConvergenceError, match="lambda = 0, 0.5$"):
        grid_estimate(model, ds, cfg)


@pytest.mark.parametrize("family", ["linear", "exponential", "lare", "walsh"])
def test_minimize_target_runs_the_kernel_once_per_trial_point(monkeypatch, family):
    rng = np.random.default_rng(35)
    x = rng.standard_normal(60)
    noise = 0.3 * rng.standard_normal(60)
    y = {"linear": 1.0 + x + noise, "exponential": np.exp(0.5 * x) + noise,
         "lare": np.exp(0.5 * x + noise), "walsh": x + noise}[family]
    ds = Dataset(y=y, z=x + 0.4 * rng.standard_normal(60), sigma_u=0.16)
    model = ModelSpec(family=family)
    start = naive_start(model, ds)
    kernel = FAMILIES[family].kernel
    events = []

    def logged(ctx, theta):
        entry = len([e for e in events if e[0] == "kernel"])
        events.append(("kernel", np.array(theta)))
        value, grad = kernel(ctx, theta)
        return value, lambda: (events.append(("own grad of", entry)), grad())[1]

    def spying(f, grad, options):
        def f_logged(th):
            events.append(("trial", np.array(th)))
            return f(th)

        def grad_logged(th):
            events.append(("gradient at", np.array(th)))
            return grad(th)

        return minimize(f_logged, grad_logged, options)

    monkeypatch.setitem(FAMILIES, family, replace(FAMILIES[family], kernel=logged))
    monkeypatch.setattr(extrapolate, "minimize", spying)
    for lam in (0.5, 1.0) + ((-1.0,) if model.pluggable else ()):
        events.clear()
        res = extrapolate.minimize_target(model, ds, lam, start)
        assert res.converged and res.iters > 1
        kinds = [e[0] for e in events]
        trials = [e[1] for e in events if e[0] == "trial"]
        # the kernel is entered once per trial point, at that point, and
        # each gradient is asked for right after a trial at the same point
        # and comes from that trial's own grad callable
        assert kinds.count("kernel") == len(trials)
        entry = -1
        for i, (kind, arg) in enumerate(events):
            if kind == "trial":
                entry += 1
                assert events[i + 1][0] == "kernel"
                assert np.array_equal(events[i + 1][1], arg)
            elif kind == "gradient at":
                assert np.array_equal(trials[entry], arg)
                assert events[i + 1] == ("own grad of", entry)
        assert kinds.count("gradient at") == kinds.count("own grad of") == res.iters + 1


@pytest.mark.parametrize("family", ["linear", "exponential", "poisson"])
def test_minimize_batch_enters_the_kernel_once_per_trial_row(monkeypatch, family):
    rng = np.random.default_rng(36)
    n, size = 80, 7
    x = rng.standard_normal((size, n))
    noise = 0.3 * rng.standard_normal((size, n))
    ys = {"linear": 1.0 + x + noise, "exponential": np.exp(0.5 * x) + noise,
          "poisson": rng.poisson(np.exp(0.5 * x)).astype(float)}[family]
    zs = (x + 0.4 * rng.standard_normal((size, n)))[..., None]
    sets = [Dataset(y=ys[b], z=zs[b], sigma_u=0.16) for b in range(size)]
    model = ModelSpec(family=family)
    starts = np.zeros((size, model.n_params(1)))
    lams = (0.0, 0.5, -0.25)
    alone = {lam: [extrapolate.minimize_target(model, d, lam, starts[b]) for b, d in enumerate(sets)]
             for lam in lams}
    kernel = FAMILIES[family].kernel
    entries = []  # per kernel entry: rows evaluated, gradients finished, solver call
    calls = []  # per solver call: its kernel entries and the rows that passed

    def logged(ctx, theta):
        entry = {"rows": theta.shape[0], "grads": 0, "call": len(calls) - 1}
        entries.append(entry)
        value, grad = kernel(ctx, theta)

        def own():
            # finished inside the solver call that made the entry
            assert calls[-1] is None and entry["call"] == len(calls) - 1
            entry["grads"] += 1
            return grad()

        return value, own

    def spying(fg, options):
        def fg_logged(theta, rows, bound):
            first = len(entries)
            calls.append(None)
            values, grads = fg(theta, rows, bound)
            calls[-1] = (rows.size, entries[first:], np.isfinite(values) & (values <= bound))
            return values, grads

        return minimize_batch(fg_logged, options)

    monkeypatch.setitem(FAMILIES, family, replace(FAMILIES[family], kernel=logged))
    monkeypatch.setattr(extrapolate, "minimize_batch", spying)
    # three sets per chunk, so one solver call spans several kernel entries
    monkeypatch.setattr(extrapolate, "STACK_CHUNK_VALUES", 3 * n)
    for lam in lams:
        entries.clear()
        calls.clear()
        res = extrapolate.minimize_stack(model, sets[0], lam, MinimizeOptions(start=starts),
                                         z=zs, y=ys)
        assert res.converged.all() and res.iters.min() > 1
        assert sum(len(mine) for _, mine, _ in calls) == len(entries)
        for rows, mine, passed in calls:
            # each trial row enters the kernel once, in chunks of at most three
            assert sum(e["rows"] for e in mine) == rows
            assert all(e["rows"] <= 3 for e in mine)
            # a chunk finishes its gradients once, from its own entry, exactly
            # when one of its trial points passed the Armijo test
            offset = 0
            for e in mine:
                assert e["grads"] == int(passed[offset : offset + e["rows"]].any())
                offset += e["rows"]
        # and every row takes the steps of its own scalar solve
        for b, one in enumerate(alone[lam]):
            assert np.array_equal(res.theta_hat[b], one.theta_hat)
            assert (res.iters[b], res.status[b]) == (one.iters, one.status)


def _alone(model, datasets, config=None):
    """ex_estimate's flat estimate on each dataset, or None where it raises."""
    out = []
    for d in datasets:
        try:
            out.append(ex_estimate(model, d, config).theta_hat.flat_vector)
        except extrapolate.ESTIMATE_ERRORS:
            out.append(None)
    return out


def test_ex_estimate_stack_validation():
    ds = _linear_data()
    other = Dataset(y=ds.y, z=ds.z, sigma_u=0.3)
    with pytest.raises(ConfigError, match="share sigma_u"):
        extrapolate.ex_estimate_stack(ModelSpec(family="linear"), [ds, other])
    # an unbatched family, and a batched one with the simplex method, solve
    # one row at a time and equal the estimate on each dataset alone
    sets = [ds, _linear_data(seed=1)]
    simplex = EstimateConfig(options=MinimizeOptions(method="simplex"))
    for model, cfg in ((ModelSpec(family="sine"), None), (ModelSpec(family="linear"), simplex)):
        stacked = extrapolate.ex_estimate_stack(model, sets, cfg)
        for got, want in zip(stacked, _alone(model, sets, cfg), strict=True):
            assert (got is None and want is None) or np.array_equal(got, want)
    assert extrapolate.ex_estimate_stack(ModelSpec(family="linear"), []) == []


# --------------------------------------------------------------------------
# extrapolant fitting
# --------------------------------------------------------------------------


def test_quadratic_fit_interpolates_exact_quadratic():
    grid = LambdaGrid(np.linspace(0, 2, 9))
    lams = grid.values
    vals = 1.3 - 0.7 * lams + 0.2 * lams**2
    ge = GridEstimates(grid=grid, thetas=vals[:, None])
    fit = fit_extrapolant(ge, "quadratic")
    assert np.allclose(fit.gamma_hat[0], [1.3, -0.7, 0.2], atol=1e-10)
    assert fit.rss[0] < 1e-18
    assert np.isclose(extrapolate_to_minus_one(fit)[0], 1.3 + 0.7 + 0.2)


def test_rational_fit_recovers_attenuation_curve():
    theta0, sx2, su2 = 2.0, 1.0, 0.25
    g = linear_exact_extrapolant(theta0, sx2, su2)
    grid = LambdaGrid.default()
    ge = GridEstimates(grid=grid, thetas=np.asarray(g(grid.values))[:, None])
    fit = fit_extrapolant(ge, "rational")
    a, b, c = fit.gamma_hat[0]
    assert abs(a - 0.0) < 1e-6
    assert abs(b - theta0 * sx2 / su2) < 1e-4
    assert abs(c - (sx2 + su2) / su2) < 1e-5
    assert abs(extrapolate_to_minus_one(fit)[0] - theta0) < 1e-6


def test_linear_fit_on_constant_points():
    grid = LambdaGrid(np.linspace(0, 2, 5))
    ge = GridEstimates(grid=grid, thetas=np.full((5, 1), 3.25))
    fit = fit_extrapolant(ge, "linear")
    assert abs(fit.gamma_hat[0][1]) < 1e-12
    assert np.isclose(extrapolate_to_minus_one(fit)[0], 3.25)


def test_extrapolate_arithmetic():
    lin = FittedExtrapolant(kind="linear", gamma_hat=np.array([[2.0, 0.5]]),
                            rss=np.zeros(1))
    assert np.isclose(extrapolate_to_minus_one(lin)[0], 1.5)
    quad = FittedExtrapolant(kind="quadratic", gamma_hat=np.array([[1.0, 1.0, 1.0]]),
                             rss=np.zeros(1))
    assert np.isclose(extrapolate_to_minus_one(quad)[0], 1.0)
    rat = FittedExtrapolant(kind="rational", gamma_hat=np.array([[0.0, 3.0, 4.0]]),
                            rss=np.zeros(1))
    assert np.isclose(extrapolate_to_minus_one(rat)[0], 1.0)


def test_rational_pole_error():
    rat = FittedExtrapolant(kind="rational", gamma_hat=np.array([[0.0, 1.0, 0.8]]),
                            rss=np.zeros(1))
    with pytest.raises(PoleError):
        extrapolate_to_minus_one(rat)


def test_rational_fit_refuses_pole_inside_range():
    # data generated from a trend whose pole sits inside the grid span
    grid = LambdaGrid(np.linspace(0, 2, 21))
    vals = 0.5 + 1.0 / (0.4 + grid.values)
    ge = GridEstimates(grid=grid, thetas=vals[:, None])
    with pytest.raises(PoleError, match="quadratic"):
        fit_extrapolant(ge, "rational")


def test_fit_needs_enough_points():
    ge = GridEstimates(grid=LambdaGrid([0.0, 1.0]), thetas=np.zeros((2, 1)))
    with pytest.raises(ConfigError):
        fit_extrapolant(ge, "quadratic")


def test_affine_scaling_commutes_with_polynomial_fits():
    rng = np.random.default_rng(8)
    grid = LambdaGrid(np.linspace(0, 2, 11))
    vals = 0.9 + 0.4 * grid.values + rng.normal(0, 0.01, 11)
    for kind in ("linear", "quadratic"):
        base = fit_extrapolant(GridEstimates(grid=grid, thetas=vals[:, None]), kind)
        scaled = fit_extrapolant(
            GridEstimates(grid=grid, thetas=(4.0 * vals)[:, None]), kind
        )
        b0 = extrapolate_to_minus_one(base)[0]
        b1 = extrapolate_to_minus_one(scaled)[0]
        assert abs(b1 - 4.0 * b0) < 1e-10 * max(1.0, abs(4 * b0))


# --------------------------------------------------------------------------
# full pipeline
# --------------------------------------------------------------------------


def test_ex_estimate_exponential_goes_direct():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(300)
    y = np.exp(x) + rng.standard_normal(300)
    z = x + rng.normal(0, 0.3, 300)
    ds = Dataset(y=y, z=z, sigma_u=0.09)
    res = ex_estimate(ModelSpec(family="exponential"), ds)
    assert res.path == "direct"
    assert res.grid is None and res.extrapolant is None


def test_ex_estimate_quantile_goes_quadratic_grid():
    rng = np.random.default_rng(10)
    n = 200
    x = rng.standard_normal(n)
    y = 2.0 * x + rng.standard_normal(n)
    z = x + rng.normal(0, 0.4, n)
    ds = Dataset(y=y, z=z, sigma_u=0.16)
    res = ex_estimate(ModelSpec(family="quantile", tau=0.5), ds)
    assert res.path == "extrapolated" and res.kind == "quadratic"
    assert res.grid is not None and res.extrapolant is not None
    # recorded naive estimate equals the lambda = 0 grid point
    assert np.array_equal(res.naive.flat_vector, res.grid.thetas[0])


def test_linear_rational_grid_path_reproduces_direct():
    # single slope: the per-lambda closed form is exactly a + b / (c + lambda)
    ds = _linear_data(seed=11, n=120, su=0.25, beta=1.8)
    model = ModelSpec(family="linear")
    direct = direct_estimate(model, ds)
    cfg = EstimateConfig(kind="rational", force_grid=True)
    via_grid = ex_estimate(model, ds, cfg)
    assert np.max(np.abs(
        via_grid.theta_hat.flat_vector - direct.theta_hat.flat_vector
    )) < 1e-6


def test_forced_grid_rational_close_to_direct_for_exponential():
    model = ModelSpec(family="exponential")
    cfg = EstimateConfig(kind="rational", force_grid=True)
    diffs = []
    for r in range(20):
        rng = np.random.default_rng(600 + r)
        n = 500
        x = rng.standard_normal(n)
        y = np.exp(x) + rng.standard_normal(n)
        z = x + rng.normal(0, np.sqrt(0.1), n)
        ds = Dataset(y=y, z=z, sigma_u=0.1)
        d = direct_estimate(model, ds).theta_hat.coefficients[0]
        g = ex_estimate(model, ds, cfg).theta_hat.coefficients[0]
        diffs.append(abs(d - g))
    assert np.mean(diffs) < 1e-2


def test_ex_estimate_logistic_grid_debiases_slope():
    rng = np.random.default_rng(13)
    n = 600
    x = rng.standard_normal(n)
    y = (rng.random(n) < 1 / (1 + np.exp(-(0.3 + 1.5 * x)))).astype(float)
    z = x + rng.normal(0, 0.6, n)
    ds = Dataset(y=y, z=z, sigma_u=0.36)
    res = ex_estimate(ModelSpec(family="logistic"), ds,
                      EstimateConfig(grid=LambdaGrid(np.linspace(0, 2, 11))))
    assert res.path == "extrapolated"
    naive_slope = res.naive.coefficients[0]
    ex_slope = res.theta_hat.coefficients[0]
    # attenuation pulls the naive slope toward zero; extrapolation undoes some
    assert 0 < naive_slope < ex_slope
    assert abs(ex_slope - 1.5) < abs(naive_slope - 1.5)


def test_ex_estimate_expectile_grid_path():
    rng = np.random.default_rng(14)
    n = 400
    x = rng.standard_normal(n)
    y = 1.8 * x + rng.standard_normal(n)
    z = x + rng.normal(0, 0.5, n)
    ds = Dataset(y=y, z=z, sigma_u=0.25)
    res = ex_estimate(ModelSpec(family="expectile", tau=0.7), ds,
                      EstimateConfig(grid=LambdaGrid(np.linspace(0, 2, 11))))
    assert res.path == "extrapolated"
    assert abs(res.theta_hat.coefficients[0] - 1.8) < abs(
        res.naive.coefficients[0] - 1.8
    )


def test_ex_estimate_walsh_grid_path():
    rng = np.random.default_rng(15)
    n = 80
    x = rng.standard_normal(n)
    y = 2.0 * x + rng.standard_normal(n)
    z = x + rng.normal(0, 0.5, n)
    ds = Dataset(y=y, z=z, sigma_u=0.25)
    res = ex_estimate(ModelSpec(family="walsh"), ds,
                      EstimateConfig(grid=LambdaGrid(np.linspace(0, 2, 6))))
    assert res.path == "extrapolated"
    assert abs(res.theta_hat.coefficients[0] - 2.0) < abs(
        res.naive.coefficients[0] - 2.0
    )


def test_naive_estimate_runs_for_every_family():
    rng = np.random.default_rng(12)
    n = 60
    x = rng.standard_normal(n)
    z = x + rng.normal(0, 0.3, n)
    cases = {
        "linear": 1.0 + x + rng.standard_normal(n),
        "exponential": np.exp(x) + rng.standard_normal(n),
        "sine": np.sin(x) + rng.standard_normal(n),
        "poisson": rng.poisson(np.exp(x)).astype(float),
        "logistic": (rng.random(n) < 1 / (1 + np.exp(-x))).astype(float),
        "lpre": np.exp(0.5 * x) * np.exp(rng.normal(-0.125, 0.5, n)),
        "lare": np.exp(0.5 * x) * np.exp(rng.normal(-0.125, 0.5, n)),
        "walsh": 2 * x + rng.standard_normal(n),
    }
    for family, y in cases.items():
        ds = Dataset(y=y, z=z, sigma_u=0.09)
        res = naive_estimate(ModelSpec(family=family), ds)
        assert np.all(np.isfinite(res.theta_hat)), family
