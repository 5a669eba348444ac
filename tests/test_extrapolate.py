"""Direct estimation, lambda-grid estimation, and extrapolant fitting."""

import gc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from simexfree.extrapolate import extrapolation_se
from simexfree.errors import (
    BranchCollapseError, EstimationError, GridConvergenceError, ModelMismatchError,
)
from simexfree.montecarlo import exponential_scenarios, simulate_dataset
from simexfree.optimize import MinimizeOptions, MinimizeResult, batch_dot, minimize, minimize_batch
from simexfree.simex import _stream
from simexfree.targets import FAMILIES, TargetContext, hessian, naive_start, target_gradient, target_value


def _linear_data(seed=0, n=60, su=0.2, beta=1.5, alpha=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    z = x + rng.normal(0, np.sqrt(su), n)
    y = alpha + beta * x + rng.standard_normal(n)
    return Dataset(y=y, z=z, sigma_u=su)


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------


@pytest.mark.parametrize("nodes", [2.5, True, 1, "30", np.float64(30.0), None])
def test_estimate_config_refuses_a_node_count_that_is_not_an_integer_of_two_or_more(nodes):
    with pytest.raises(ConfigError, match="node count"):
        EstimateConfig(nodes=nodes)


@pytest.mark.parametrize(("field", "value", "message"), [
    ("force_grid", "no", "force_grid must be a bool"),
    ("force_grid", 1, "force_grid must be a bool"),
    ("grid", [0.0, 1.0, 2.0], "grid must be a LambdaGrid"),
    ("grid", np.array([0.0, 1.0, 2.0]), "grid must be a LambdaGrid"),
    ("options", 5, "options must be a MinimizeOptions or None"),
    ("options", {"max_iters": 10}, "options must be a MinimizeOptions or None"),
])
def test_estimate_config_refuses_a_field_of_the_wrong_type(field, value, message):
    with pytest.raises(ConfigError, match=message):
        EstimateConfig(**{field: value})


def test_estimate_config_takes_its_typed_fields():
    grid = LambdaGrid([0.0, 1.0, 2.0])
    options = MinimizeOptions(max_iters=10)
    for force_grid in (True, False, np.bool_(True)):
        cfg = EstimateConfig(grid=grid, options=options, force_grid=force_grid)
        assert (cfg.grid, cfg.options, cfg.force_grid) == (grid, options, force_grid)


def test_estimate_config_takes_a_numpy_integer_node_count():
    model, ds, _ = _grid_case("logistic", None)
    cfg = EstimateConfig(nodes=np.int64(12), grid=LambdaGrid(np.array([0.0, 0.5, 1.0])))
    assert np.array_equal(grid_estimate(model, ds, cfg).thetas,
                          grid_estimate(model, ds, replace(cfg, nodes=12)).thetas)


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


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_linear_closed_form_refuses_a_nonfinite_lambda(lam):
    with pytest.raises(ConfigError, match="finite"):
        linear_closed_form(_linear_data(), lam, intercept=True)


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
        own = lambda: (events.append(("own grad of", entry)), grad())[1]  # noqa: E731
        if hasattr(grad, "hessian"):
            own.hessian = lambda: (events.append(("own hessian of", entry)), grad.hessian())[1]
        return value, own

    def spying(f, grad, options, hess=None):
        def f_logged(th):
            events.append(("trial", np.array(th)))
            return f(th)

        def grad_logged(th):
            events.append(("gradient at", np.array(th)))
            return grad(th)

        def hess_logged(th):
            events.append(("hessian at", np.array(th)))
            return hess(th)

        return minimize(f_logged, grad_logged, options, hess_logged)

    monkeypatch.setitem(FAMILIES, family, replace(FAMILIES[family], kernel=logged))
    monkeypatch.setattr(extrapolate, "minimize", spying)
    # linear, exponential, lare and walsh state second slopes where s > 0, as here
    exits = []  # the lambdas whose solve ended on its Newton decrement
    for lam in (0.5, 1.0) + ((-1.0,) if model.pluggable else ()):
        events.clear()
        res = extrapolate.minimize_target(TargetContext(dataset=ds, model=model, lam=lam), start)
        # a Newton step solves the linear family's quadratic objective at once
        assert res.converged and res.iters > (0 if family == "linear" else 1)
        kinds = [e[0] for e in events]
        trials = [e[1] for e in events if e[0] == "trial"]
        # the kernel is entered once per trial point, at that point, and
        # each gradient, and then each Hessian, is asked for right after a
        # trial at the same point and comes from that trial's own callables
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
            elif kind == "hessian at":
                assert np.array_equal(trials[entry], arg)
                assert events[i + 1] == ("own hessian of", entry)
        if res.status == "decrement":
            # the last step was taken unseen: its end point was never a
            # trial, so it has no gradient, and the last gradient is that
            # of the last trial, the point the result's value is from
            assert not any(np.array_equal(t, res.theta_hat) for t in trials)
            last = [e[1] for e in events if e[0] == "gradient at"][-1]
            assert np.array_equal(last, trials[-1])
            assert kinds.count("gradient at") == kinds.count("own grad of") == res.iters
            exits.append(lam)
        else:
            assert kinds.count("gradient at") == kinds.count("own grad of") == res.iters + 1
        # the Hessian is asked for once per step, before it
        assert kinds.count("hessian at") == res.iters
        assert kinds.count("own hessian of") == res.iters
    # at this seed the exponential solve at lambda = 1 ends on its decrement
    assert exits == ([1.0] if family == "exponential" else [])


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
    alone = {lam: [extrapolate.minimize_target(TargetContext(dataset=d, model=model, lam=lam),
                                               starts[b]) for b, d in enumerate(sets)]
             for lam in lams}
    kernel = FAMILIES[family].kernel
    entries = []  # per kernel entry: rows evaluated, gradients finished, solver call
    calls = []  # per solver call: its kernel entries and the rows that passed

    def logged(ctx, theta):
        entry = {"rows": theta.shape[0], "grads": 0, "hessians": 0, "call": len(calls) - 1}
        entries.append(entry)
        value, grad = kernel(ctx, theta)

        def own():
            # finished inside the solver call that made the entry
            assert calls[-1] is None and entry["call"] == len(calls) - 1
            entry["grads"] += 1
            return grad()

        def own_hessian():
            assert calls[-1] is None and entry["call"] == len(calls) - 1
            entry["hessians"] += 1
            return grad.hessian()

        own.hessian = own_hessian
        return value, own

    def spying(fg, options):
        def fg_logged(theta, rows, bound):
            first = len(entries)
            calls.append(None)
            values, grads, hessians = fg(theta, rows, bound)
            passed = np.isfinite(values) & (values <= bound)
            # the passing rows that take a step from here, with a gradient above grad_tol
            moving = passed & ~(np.sqrt(batch_dot(grads, grads)) <= options.grad_tol)
            calls[-1] = (rows.size, entries[first:], passed, moving)
            return values, grads, hessians

        return minimize_batch(fg_logged, options)

    monkeypatch.setitem(FAMILIES, family, replace(FAMILIES[family], kernel=logged))
    monkeypatch.setattr(extrapolate, "minimize_batch", spying)
    # three sets per chunk, so one solver call spans several kernel entries
    monkeypatch.setattr(extrapolate, "STACK_CHUNK_VALUES", 3 * n)
    for lam in lams:
        entries.clear()
        calls.clear()
        ctx = TargetContext(dataset=sets[0], model=model, lam=lam, z=zs, y=ys)
        res = extrapolate.minimize_stack(ctx, MinimizeOptions(start=starts))
        # a Newton step solves the linear family's quadratic objective at once
        assert res.converged.all() and res.iters.min() > (0 if family == "linear" else 1)
        assert sum(len(mine) for _, mine, _, _ in calls) == len(entries)
        for rows, mine, passed, moving in calls:
            # each trial row enters the kernel once, in chunks of at most three
            assert sum(e["rows"] for e in mine) == rows
            assert all(e["rows"] <= 3 for e in mine)
            # a chunk finishes its gradients once, from its own entry, exactly
            # when one of its trial points passed the Armijo test, and its
            # Hessians once when one of those takes a step from there
            offset = 0
            for e in mine:
                assert e["grads"] == int(passed[offset : offset + e["rows"]].any())
                assert e["hessians"] == int(moving[offset : offset + e["rows"]].any())
                offset += e["rows"]
        # and every row takes the steps of its own scalar solve
        for b, one in enumerate(alone[lam]):
            assert np.array_equal(res.theta_hat[b], one.theta_hat)
            assert (res.iters[b], res.status[b]) == (one.iters, one.status)


def _grid_case(family, tau):
    """One seeded dataset, model and config for a family."""
    rng = np.random.default_rng(41)
    n = 100 if family == "walsh" else 300
    x = rng.standard_normal(n)
    z = x + rng.normal(0.0, 0.5, n)
    eps = rng.standard_normal(n)
    cfg = EstimateConfig()
    if family == "generic":
        y = 1.0 + 2.0 / (1.0 + np.exp(2.0 * (x - 0.2))) + 0.3 * eps

        def fn(x, th):
            return th[0] + th[1] / (1.0 + np.exp(th[2] * (x[:, 0] - th[3])))

        model = ModelSpec(family="generic", mean_fn=MeanFunction(fn=fn, n_params=4))
        cfg = EstimateConfig(start=np.array([1.0, 2.0, 1.0, 0.0]))
    else:
        y = {"lare": np.exp(x + 0.5 * eps - 0.125),
             "logistic": (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.5 + x)))).astype(float),
             "lpre": np.exp(x + 0.5 * eps - 0.125),
             "exponential": np.exp(x) + eps,
             "poisson": np.round(np.exp(0.5 * x + 0.1 * eps)),
             }.get(family, x + eps)
        model = ModelSpec(family=family, tau=tau)
    return model, Dataset(y=y, z=z, sigma_u=0.25), cfg


@pytest.mark.parametrize(
    "family, tau",
    [("quantile", 0.5), ("expectile", 0.3), ("lare", None), ("logistic", None),
     ("walsh", None), ("generic", None)],
)
def test_grid_predicted_starts_cost_no_more_than_a_chain(monkeypatch, family, tau):
    model, ds, cfg = _grid_case(family, tau)
    kernel = FAMILIES[family].kernel
    values = [0]

    def counting(ctx, theta):
        values[0] += 1
        return kernel(ctx, theta)

    monkeypatch.setitem(FAMILIES, family, replace(FAMILIES[family], kernel=counting))
    ge = grid_estimate(model, ds, cfg)
    predicted = values[0]
    # the chain that starts every point from its neighbour's theta alone
    values[0] = 0
    chain = [naive_estimate(model, ds, cfg).theta_hat]
    for lam in cfg.grid.values[1:]:
        ctx = TargetContext(dataset=ds, model=model, lam=float(lam), nodes=cfg.nodes)
        res = extrapolate.minimize_target(ctx, chain[-1])
        assert res.converged
        chain.append(res.theta_hat)
    chain = np.array(chain)
    assert np.all(np.abs(ge.thetas - chain) <= 1e-6 * (1.0 + np.abs(chain)))
    assert predicted <= values[0]


GRID_FAMILIES = [("quantile", 0.5), ("expectile", 0.3), ("lare", None), ("logistic", None),
                 ("walsh", None), ("generic", None)]
UNEVEN = LambdaGrid(np.array([0.0, 0.05, 0.2, 0.5, 1.0, 2.0]))


@pytest.mark.parametrize("family, tau", GRID_FAMILIES)
def test_predicted_grid_matches_cold_solves_on_an_uneven_grid(family, tau):
    model, ds, cfg = _grid_case(family, tau)
    cfg = replace(cfg, grid=UNEVEN)
    ge = grid_estimate(model, ds, cfg)
    # one cold solve per lambda, from the naive estimate
    naive = naive_estimate(model, ds, cfg).theta_hat
    cold = [naive]
    for lam in UNEVEN.values[1:]:
        ctx = TargetContext(dataset=ds, model=model, lam=float(lam), nodes=cfg.nodes)
        res = extrapolate.minimize_target(ctx, naive)
        assert res.converged
        cold.append(res.theta_hat)
    cold = np.array(cold)
    assert np.all(np.abs(ge.thetas - cold) <= 1e-6 * (1.0 + np.abs(cold)))


def test_grid_row_after_a_failed_point_starts_from_its_previous_minimizer(monkeypatch):
    model, ds, cfg = _grid_case("expectile", 0.3)
    cfg = replace(cfg, grid=UNEVEN)
    sets = [ds, Dataset(y=ds.y[::-1].copy(), z=ds.z[::-1].copy(), sigma_u=0.25)]
    lams = UNEVEN.values
    solves = {}
    inner = extrapolate.row_solver

    def spied(*args, **kwargs):
        solve = inner(*args, **kwargs)

        def recorded(rows, lam, starts):
            res = solve(rows, lam, starts)
            if lam == lams[1]:
                res.converged[1] = False  # as if row 1 failed at the second point
            solves[lam] = (starts.copy(), res.theta_hat.copy())
            return res

        return recorded

    monkeypatch.setattr(extrapolate, "row_solver", spied)
    out = extrapolate.ex_estimate_stack(model, sets, cfg)
    assert out[1] is None  # its failed point fails its estimate
    theta = {lam: solves[lam][1] for lam in lams}

    def secant(k, row):
        ratio = (lams[k] - lams[k - 1]) / (lams[k - 1] - lams[k - 2])
        prev = theta[lams[k - 1]][row]
        return prev + ratio * (prev - theta[lams[k - 2]][row])

    def quadratic(k, row):
        # the Lagrange weights of lams[k - 3 : k] at lams[k]
        x, (a, b, c) = lams[k], lams[k - 3 : k]
        return ((x - a) * (x - b) / ((c - a) * (c - b)) * theta[c][row]
                + (x - a) * (x - c) / ((b - a) * (b - c)) * theta[b][row]
                + (x - b) * (x - c) / ((a - b) * (a - c)) * theta[a][row])

    # row 0 starts from the naive estimate, then the secant, then the quadratic
    want = {0: [theta[0.0][0], secant(2, 0)] + [quadratic(k, 0) for k in range(3, lams.size)],
            # row 1 failed at the second point: it starts from its previous
            # minimizer until two points in a row converged, then from the
            # secant until three did
            1: [theta[0.0][1], theta[lams[1]][1], theta[lams[2]][1], secant(4, 1), quadratic(5, 1)]}
    for row, starts in want.items():
        for k, start in enumerate(starts, start=1):
            assert np.array_equal(solves[lams[k]][0][row], start), (row, k)
    # each rule moved the start away from the rule before it
    assert not np.array_equal(secant(2, 0), theta[lams[1]][0])
    assert not np.array_equal(quadratic(3, 0), secant(3, 0))
    assert not np.array_equal(secant(4, 1), theta[lams[3]][1])
    assert not np.array_equal(quadratic(5, 1), secant(5, 1))


def _where_prediction(results, lams):
    """The prediction rule of ``extrapolate._predicted``, written with
    ``np.where`` over every row, as the reference for its bits."""
    prev = results[-1].theta_hat
    if len(results) < 2:
        return prev
    two = results[-2].converged & results[-1].converged
    x = float(lams[-1])
    ratio = (x - float(lams[-2])) / float(lams[-2] - lams[-3])
    with np.errstate(over="ignore", invalid="ignore"):
        start = np.where(two[:, None], prev + ratio * (prev - results[-2].theta_hat), prev)
        if len(results) < 3:
            return start
        three = two & results[-3].converged
        a, b, c = (float(v) for v in lams[-4:-1])
        quadratic = ((x - a) * (x - b) / ((c - a) * (c - b)) * prev
                     + (x - a) * (x - c) / ((b - a) * (b - c)) * results[-2].theta_hat
                     + (x - b) * (x - c) / ((a - b) * (a - c)) * results[-3].theta_hat)
        return np.where(three[:, None], quadratic, start)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3), st.booleans())
def test_predictions_keep_their_bits_with_and_without_a_failed_row(seed, points, rows, fail):
    rng = np.random.default_rng(seed)
    # an increasing grid, or the continuation's decreasing steps
    steps = rng.uniform(0.01, 0.5, points + 1)
    lams = np.cumsum(steps) if rng.random() < 0.5 else -np.cumsum(steps)
    results = []
    for _ in range(points):
        theta = rng.normal(0.0, 2.0, (rows, 2))
        results.append(MinimizeResult(theta, np.zeros(rows), np.zeros(rows),
                                      np.ones(rows, dtype=int), np.ones(rows, dtype=bool),
                                      np.array(["grad_tol"] * rows)))
    if fail:
        # one row fails at one point, where it may hold inf
        res = results[rng.integers(points)]
        r = rng.integers(rows)
        res.converged[r] = False
        res.theta_hat[r, 0] = np.inf if rng.random() < 0.5 else res.theta_hat[r, 0]
    got = extrapolate._predicted(results, lams)
    want = _where_prediction(results, lams)
    assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


def test_default_configs_share_one_read_only_grid():
    a, b = EstimateConfig(), EstimateConfig(kind="linear")
    assert a.grid is b.grid is extrapolate.DEFAULT_GRID
    assert np.array_equal(a.grid.values, LambdaGrid.default().values)
    with pytest.raises(ValueError):
        a.grid.values[0] = 1.0


@pytest.mark.parametrize(
    "family, tau",
    [("linear", None), ("exponential", None), ("poisson", None), ("sine", None),
     ("lpre", None), ("logistic", None), ("lare", None), ("quantile", 0.5), ("walsh", None),
     ("expectile", 0.3), ("expectile", 0.5), ("generic", None)],
)
def test_row_solver_stacks_every_quasi_newton_solve_of_several_rows(monkeypatch, family, tau):
    model, ds, cfg = _grid_case(family, tau)
    zs = ds.z + 0.1 * np.random.default_rng(44).standard_normal((3,) + ds.z.shape)
    starts = np.tile(cfg.start_for(model, ds), (3, 1))
    lams = (0.0, 0.5, -0.25) if model.pluggable else (0.0, 0.5)
    alone = {lam: [extrapolate.minimize_target(
                       TargetContext(dataset=ds, model=model, lam=lam, nodes=cfg.nodes, z=zs[b]),
                       starts[b]) for b in range(3)] for lam in lams}
    scalar = extrapolate.minimize_target
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].lam)
        return scalar(*args, **kwargs)

    monkeypatch.setattr(extrapolate, "minimize_target", counted)
    solve = extrapolate.row_solver(model, ds, cfg, zs)
    for lam in lams:
        calls.clear()
        res = solve(np.arange(3), lam, starts)
        # only a simplex solve (a nonsmooth family at lambda = 0) or the
        # generic family, which has no analytic gradient, runs per row
        per_row = family == "generic" or (lam == 0.0 and not FAMILIES[family].smooth_at_zero)
        assert calls == ([lam] * 3 if per_row else [])
        for b, one in enumerate(alone[lam]):
            assert np.array_equal(res.theta_hat[b], one.theta_hat)
            assert (res.iters[b], res.status[b]) == (one.iters, one.status)
    # a single row is always a scalar solve
    calls.clear()
    solve(np.array([1]), 0.5, starts[:1])
    assert calls == [0.5]


def test_row_solver_frees_its_stack_without_the_garbage_collector():
    # a reference cycle through solve would hold every stacked data set of a
    # study cell until the collector runs, and raise the peak memory
    rng = np.random.default_rng(43)
    zs = rng.standard_normal((3, 40, 1))
    ys = np.exp(zs[..., 0]) + rng.standard_normal((3, 40))
    model = ModelSpec(family="exponential")
    gc.disable()
    try:
        solve = extrapolate.row_solver(model, Dataset(y=ys[0], z=zs[0], sigma_u=0.25),
                                       EstimateConfig(), zs, ys)
        solve(np.arange(3), 0.0, np.zeros((3, 1)))
        alive = weakref.ref(zs)
        del solve, zs
        assert alive() is None
    finally:
        gc.enable()


def _alone(model, datasets, config=None):
    """ex_estimate's flat estimate on each dataset, or None where it raises."""
    out = []
    for d in datasets:
        try:
            out.append(ex_estimate(model, d, config).theta_hat.flat_vector)
        except extrapolate.ESTIMATE_ERRORS:
            out.append(None)
    return out


def _line(seed, noise, scale=1.0, sigma_u=0.0, n=60):
    """y = 2 z + noise; without noise every objective is minimal at its start."""
    rng = np.random.default_rng(seed)
    z = scale * rng.standard_normal(n)
    return Dataset(y=2.0 * z + noise * rng.standard_normal(n), z=z, sigma_u=sigma_u)


def _curve(seed, flat=False, n=60):
    """y = exp(z) + noise, or y = 1, the exponential fit at its start 0."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    y = np.ones(n) if flat else np.exp(z) + rng.standard_normal(n)
    return Dataset(y=y, z=z, sigma_u=0.0)


def _sine_data(seed, n=100):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    z = x + rng.normal(0.0, 0.7, n)
    return Dataset(y=np.sin(2.0 * x) + rng.standard_normal(n), z=z, sigma_u=0.49)


def _counts(seed, negative=False, n=60):
    """Poisson counts of mean exp(0.5 + 0.3 x), or with a negative first one."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.poisson(np.exp(0.5 + 0.3 * x)).astype(float)
    if negative:
        y[0] = -1.0
    return Dataset(y=y, z=x + rng.normal(0.0, 0.3, n), sigma_u=0.09)


# (model, a dataset that estimates, one that fails, config, its error and message)
_STALLED = MinimizeOptions(max_iters=1)
_FAILURES = {
    "naive, pluggable": (
        ModelSpec(family="exponential"), _curve(0, flat=True), _curve(1),
        EstimateConfig(options=_STALLED),
        EstimationError, "naive estimate did not converge (status max_iters)",
    ),
    # sigma_u = 0, so s = 0 at every lambda, where the check loss offers no
    # curvature and one quasi-Newton step stalls
    "naive, grid only": (
        ModelSpec(family="quantile", tau=0.3), _line(0, 0.0), _line(1, 1.0),
        EstimateConfig(grid=LambdaGrid([0.0, 1.0, 2.0]), options=_STALLED),
        GridConvergenceError, "grid minimization failed to converge at lambda = 0, 1, 2",
    ),
    "linear ill-posed": (
        ModelSpec(family="linear"), _line(0, 1.0, 10.0, 4.0), _line(1, 1.0, 1.0, 4.0), None,
        IllPosedError,
        "corrected second-moment matrix is not positive definite; the "
        "measurement-error correction is ill-posed for these data",
    ),
    # a stacked solve checks only the responses of the rows it solves
    "response domain": (
        ModelSpec(family="poisson"), _counts(0), _counts(1, negative=True), None,
        ModelMismatchError, "poisson family requires nonnegative integer responses",
    ),
    # the sine branch collapses, and the rational fit of its grid has a pole
    "rational pole": (
        ModelSpec(family="sine"), _sine_data(0), _sine_data(70), EstimateConfig(kind="rational"),
        PoleError,
        "rational extrapolant pole falls inside the extrapolation range; "
        "try the quadratic extrapolant",
    ),
}


def test_ex_estimate_stack_validation():
    ds = _linear_data()
    other = Dataset(y=ds.y, z=ds.z, sigma_u=0.3)
    with pytest.raises(ConfigError, match="share sigma_u"):
        extrapolate.ex_estimate_stack(ModelSpec(family="linear"), [ds, other])
    for family, data in (("exponential", _curve), ("sine", _sine_data)):
        with pytest.raises(ConfigError, match="stacked datasets must share one shape"):
            extrapolate.ex_estimate_stack(ModelSpec(family=family),
                                          [data(0, n=50), data(1, n=60)])
    # a stacked quasi-Newton family, and one solved a row at a time by the
    # simplex method, equal the estimate on each dataset alone
    sets = [ds, _linear_data(seed=1)]
    simplex = EstimateConfig(options=MinimizeOptions(method="simplex"))
    for model, cfg in ((ModelSpec(family="sine"), None), (ModelSpec(family="linear"), simplex)):
        stacked = extrapolate.ex_estimate_stack(model, sets, cfg)
        for got, want in zip(stacked, _alone(model, sets, cfg), strict=True):
            assert (got is None and want is None) or np.array_equal(got, want)
    assert extrapolate.ex_estimate_stack(ModelSpec(family="linear"), []) == []
    # each failure keeps its type and message alone, and is None in a stack
    # at exactly its own row
    for name, (model, good, bad, cfg, error, message) in _FAILURES.items():
        with pytest.raises(error) as info:
            ex_estimate(model, bad, cfg)
        assert (type(info.value), str(info.value)) == (error, message), name
        want = ex_estimate(model, good, cfg).theta_hat.flat_vector
        stacked = extrapolate.ex_estimate_stack(model, [good, bad, good], cfg)
        assert stacked[1] is None, name
        assert all(np.array_equal(s, want) for s in stacked[::2]), name


def test_fallback_fit_solves_lambda_zero_once(monkeypatch):
    # a replicate of the exponential study cell n = 200, sigma_u^2 = .5
    # whose direct branch collapses
    scenario = exponential_scenarios(sigma2_values=(0.5,), n_values=(200,))[0]
    ds = simulate_dataset(scenario, _stream(0, (0, 4)))
    lams = []
    minimize_target = extrapolate.minimize_target

    def counted(ctx, *args, **kwargs):
        lams.append(ctx.lam)
        return minimize_target(ctx, *args, **kwargs)

    monkeypatch.setattr(extrapolate, "minimize_target", counted)
    res = ex_estimate(scenario.model, ds)
    assert res.path == "extrapolated"
    assert lams.count(0.0) == 1


def _fine_continuation(solve, rows, first, steps=64):
    """The lambda at which each row leaves its branch (NaN where it stays),
    and the minimizers of the rows that stay, down ``steps`` even steps to
    lambda = -1.  Each step starts from the previous minimizer and applies
    the branch test of ``extrapolate._continue``."""
    left_at = np.full(rows.size, np.nan)
    live, cur = np.arange(rows.size), first.theta_hat
    for lam in -np.arange(1, steps + 1) / steps:
        res = solve(rows[live], float(lam), cur)
        radius = 0.5 * (1.0 + np.abs(cur).max(axis=1))
        stay = res.converged & ~(np.abs(res.theta_hat - cur).max(axis=1) > radius)
        left_at[live[~stay]] = lam
        live, cur = live[stay], res.theta_hat[stay]
    return left_at, cur


def test_continuation_folds_exactly_where_a_fine_continuation_does():
    # the first 100 replicates of the exponential study cell n = 200,
    # sigma_u^2 = .5 at seed 1 (acceptance 1), among them replicates 1, 47
    # and 89, which four steps from the previous minimizer called folded
    # although their branches reach lambda = -1
    scenario = exponential_scenarios(sigma2_values=(0.5,), n_values=(200,))[0]
    datasets = [simulate_dataset(scenario, _stream(1, (0, r))) for r in range(100)]
    cfg = EstimateConfig()
    solve = extrapolate.row_solver(scenario.model, datasets[0], cfg,
                                   np.stack([d.z for d in datasets]),
                                   np.stack([d.y for d in datasets]))
    rows = np.arange(len(datasets))
    first = solve(rows, 0.0, np.stack([cfg.start_for(scenario.model, d) for d in datasets]))
    assert first.converged.all()
    left_at, last = extrapolate._continue(solve, rows, first)
    fine_left_at, fine_last = _fine_continuation(solve, rows, first)
    folded = ~np.isnan(left_at)
    assert np.array_equal(folded, ~np.isnan(fine_left_at))
    assert 0 < folded.sum() < rows.size and not folded[[1, 47, 89]].any()
    np.testing.assert_allclose(last.theta_hat, fine_last, rtol=0, atol=1e-7)


def test_stacked_continuation_with_ragged_exits_keeps_every_bit():
    # exponential replicates at sigma_u^2 = 0.6, n = 60: rows 17 and 43
    # leave the branch at lambda = -0.5, 3 and 7 at -0.75, 2 and 8 at -1,
    # and 0, 1 and 4 reach lambda = -1, so each step drops rows from the
    # middle of the stack and its predictor history
    scenario = exponential_scenarios(sigma2_values=(0.6,), n_values=(60,))[0]
    exits = {0: None, 17: -0.5, 3: -0.75, 1: None, 2: -1.0, 43: -0.5, 7: -0.75, 4: None, 8: -1.0}
    datasets = [simulate_dataset(scenario, _stream(0, (0, r))) for r in exits]
    for d, lam in zip(datasets, exits.values()):
        if lam is None:
            assert direct_estimate(scenario.model, d).path == "direct"
        else:
            with pytest.raises(BranchCollapseError, match=f"at lambda = {lam};"):
                direct_estimate(scenario.model, d)
    stacked = extrapolate.ex_estimate_stack(scenario.model, datasets)
    for got, want in zip(stacked, _alone(scenario.model, datasets), strict=True):
        assert np.array_equal(got, want)


# --------------------------------------------------------------------------
# extrapolant fitting
# --------------------------------------------------------------------------


def test_each_extrapolant_coordinate_reports_its_fit_status():
    grid = LambdaGrid(np.linspace(0, 2, 9))
    lams = grid.values
    ge = GridEstimates(grid=grid, thetas=np.column_stack([1.0 - 1.0 / (2.0 + lams),
                                                          2.0 + 3.0 / (4.0 + lams)]))
    for kind in ("linear", "quadratic"):
        assert fit_extrapolant(ge, kind).status.tolist() == ["closed_form", "closed_form"]
    # the rational search converges on both coordinates
    fit = fit_extrapolant(ge, "rational")
    assert set(fit.status.tolist()) <= {"grad_tol", "step_tol"} and fit.status.shape == (2,)
    # a fit built by hand has none
    hand = FittedExtrapolant(kind="linear", gamma_hat=np.ones((1, 2)), rss=np.zeros(1))
    assert hand.status is None


def test_a_rational_fit_at_its_linear_limit_has_the_quadratic_standard_error():
    # exactly linear values: the rational profile is best at its largest c,
    # where the delta method's limit is the quadratic extrapolant's, not the
    # linear one's
    grid = LambdaGrid.default()
    lams = grid.values
    ge = GridEstimates(grid=grid, thetas=(1.0 - 0.1 * lams)[:, None])
    se = np.full((grid.size, 1), 0.01)
    fits = {kind: fit_extrapolant(ge, kind) for kind in ("rational", "linear", "quadratic")}
    assert fits["rational"].status.tolist() == ["linear_limit"]
    got = {kind: float(extrapolation_se(fit, lams, se)[0]) for kind, fit in fits.items()}
    assert got["rational"] == got["quadratic"] == pytest.approx(0.0254, abs=5e-5)
    assert got["linear"] == pytest.approx(0.00753, abs=5e-6)


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


# 0 or at least 1e-150 in size, so that its products with the grid are
# normal floats, which carry full precision
_COEF = st.floats(min_value=-5.0, max_value=5.0).filter(lambda x: x == 0.0 or abs(x) > 1e-150)
# a grid of 5 to 25 evenly spaced noise levels from 0 to 1, ..., 3
_GRIDS = st.builds(lambda k, top: LambdaGrid(np.linspace(0.0, top, k)),
                   st.integers(min_value=5, max_value=25), st.floats(min_value=1.0, max_value=3.0))


@settings(max_examples=200, deadline=None)
@given(_GRIDS, _COEF, _COEF, st.floats(min_value=1.05, max_value=50.0))
def test_rational_fit_of_exact_rational_values_extrapolates_exactly(grid, a, b, c):
    ge = GridEstimates(grid=grid, thetas=(a + b / (c + grid.values))[:, None])
    fit = fit_extrapolant(ge, "rational")
    want = a + b / (c - 1.0)
    # relative to the size of the terms, for a + b / (c - 1) may cancel
    assert abs(extrapolate_to_minus_one(fit)[0] - want) <= 1e-9 * (abs(a) + abs(b) / (c - 1.0))


@settings(max_examples=100, deadline=None)
@given(_GRIDS, _COEF, _COEF)
def test_rational_fit_of_exact_linear_values_stops_at_the_linear_limit(grid, a, b):
    ge = GridEstimates(grid=grid, thetas=(a + b * grid.values)[:, None])
    fit = fit_extrapolant(ge, "rational")
    assert fit.status.tolist() == ["linear_limit"]
    linear = extrapolate_to_minus_one(fit_extrapolant(ge, "linear"))[0]
    assert abs(extrapolate_to_minus_one(fit)[0] - linear) <= 1e-4 * (abs(a) + abs(b))


@settings(max_examples=100, deadline=None)
@given(_GRIDS, _COEF, st.floats(min_value=0.1, max_value=5.0), st.booleans(),
       st.floats(min_value=0.05, max_value=1.0))
def test_rational_fit_refuses_every_pole_between_minus_one_and_the_grid(grid, a, b, rising, c):
    # a pole at lambda = -c in [-1, -0.05]: no c > 1 fits so steep a trend;
    # b is bounded away from 0, where no pole shows
    vals = a + (b if rising else -b) / (c + grid.values)
    with pytest.raises(PoleError, match="quadratic"):
        fit_extrapolant(GridEstimates(grid=grid, thetas=vals[:, None]), "rational")


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


# --------------------------------------------------------------------------
# the contract of a solve: no warnings, theta checked at entry, responses once
# --------------------------------------------------------------------------

# one case per family, and both expectile branches
_EVERY_FAMILY = [
    ("linear", None), ("exponential", None), ("sine", None), ("poisson", None),
    ("logistic", None), ("lpre", None), ("lare", None), ("quantile", 0.5), ("walsh", None),
    ("expectile", 0.3), ("expectile", 0.5), ("generic", None),
]
# the families whose loss broadcasts over a stack
_BROADCAST = [("linear", None), ("exponential", None), ("sine", None), ("poisson", None),
              ("lpre", None), ("expectile", 0.5)]


@pytest.mark.parametrize("family, tau", _EVERY_FAMILY)
def test_solves_leak_no_warnings(family, tau):
    # every solve runs in one error state: the simplex at lambda = 0 (lare,
    # quantile and walsh) as well as the quasi-Newton and Newton steps, from
    # a start where the objective overflows and from the family start
    model, ds, cfg = _grid_case(family, tau)
    start = cfg.start_for(model, ds)
    huge = np.full(start.shape, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (0.0, 0.5):
            ctx = TargetContext(dataset=ds, model=model, lam=lam, nodes=cfg.nodes)
            for th in (huge, start):
                res = extrapolate.minimize_target(ctx, th)
                assert res.status in ("grad_tol", "step_tol", "infeasible", "nonfinite",
                                      "line_search", "max_iters", "decrement")
            assert res.converged


@pytest.mark.parametrize("family, tau", _BROADCAST)
def test_stacked_solves_leak_no_warnings(family, tau):
    model, ds, cfg = _grid_case(family, tau)
    start = cfg.start_for(model, ds)
    zs = ds.z + 0.1 * np.random.default_rng(45).standard_normal((3,) + ds.z.shape)
    starts = np.stack([start, np.full(start.shape, 1e200), -start])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = TargetContext(dataset=ds, model=model, lam=0.5, nodes=cfg.nodes, z=zs)
        res = extrapolate.minimize_stack(ctx, MinimizeOptions(start=starts))
    assert res.converged[0]


@pytest.mark.parametrize("family, tau", _EVERY_FAMILY)
def test_a_theta_of_the_wrong_length_is_refused_everywhere(family, tau):
    model, ds, cfg = _grid_case(family, tau)
    q = model.n_params(ds.p)
    wrong = np.zeros(q + 1)
    message = f"theta has length {q + 1}, expected {q}"
    ctx = TargetContext(dataset=ds, model=model, lam=0.5, nodes=cfg.nodes)
    stacked = TargetContext(dataset=ds, model=model, lam=0.5, nodes=cfg.nodes,
                            z=np.stack([ds.z, ds.z]))
    calls = [
        lambda: target_value(ctx, wrong),
        lambda: target_gradient(ctx, wrong),
        lambda: hessian(ctx, wrong),
        lambda: extrapolate.minimize_target(ctx, wrong),
        lambda: extrapolate.minimize_stack(stacked, MinimizeOptions(start=np.stack([wrong] * 2))),
        lambda: ex_estimate(model, ds, replace(cfg, start=wrong)),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match=message):
            call()


def test_responses_are_checked_once_per_estimate(monkeypatch):
    checks = []
    validate_y = ModelSpec.validate_y

    def counted(self, y):
        checks.append(self.family)
        return validate_y(self, y)

    monkeypatch.setattr(ModelSpec, "validate_y", counted)
    model, ds, _ = _grid_case("poisson", None)
    assert ex_estimate(model, ds).path == "direct"
    assert len(checks) <= 1
    checks.clear()
    model, ds, cfg = _grid_case("lpre", None)
    assert cfg.grid.size == 21
    grid_estimate(model, ds, cfg)
    assert len(checks) <= 1
