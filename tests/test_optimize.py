"""Quasi-Newton and simplex minimization engine."""

import numpy as np
import pytest

from simexfree import (
    ConfigError,
    Dataset,
    EstimationError,
    MinimizeOptions,
    ModelSpec,
    TargetContext,
    finite_difference_gradient,
    minimize,
    minimize_batch,
    linear_closed_form,
    target_linear,
    target_poisson_negloglik,
)
from simexfree.simex import _stream, pseudo_data
from simexfree.targets import target_gradient, target_value


def test_quadratic_bowl():
    res = minimize(lambda th: float((th[0] - 3.0) ** 2),
                   options=MinimizeOptions(start=np.array([0.0])))
    assert res.converged
    assert abs(res.theta_hat[0] - 3.0) < 1e-8


def test_linear_target_matches_closed_form_at_minus_one():
    rng = np.random.default_rng(11)
    n = 50
    x = rng.standard_normal(n)
    z = x + rng.normal(0, 0.4, n)
    y = 0.5 + 1.5 * x + rng.standard_normal(n)
    ds = Dataset(y=y, z=z, sigma_u=0.16)
    model = ModelSpec(family="linear")
    ctx = TargetContext(dataset=ds, model=model, lam=-1.0)
    closed = linear_closed_form(ds, -1.0, intercept=True)
    res = minimize(lambda th: target_linear(ctx, th)[0],
                   options=MinimizeOptions(start=np.zeros(2)))
    assert res.converged
    assert np.max(np.abs(res.theta_hat - closed)) < 1e-8


def test_rosenbrock():
    def rosen(th):
        return float(100.0 * (th[1] - th[0] ** 2) ** 2 + (1.0 - th[0]) ** 2)

    res = minimize(rosen, options=MinimizeOptions(start=np.array([-1.2, 1.0])))
    assert res.converged
    assert res.iters <= 500
    assert np.max(np.abs(res.theta_hat - 1.0)) < 1e-6


def test_infeasible_start():
    res = minimize(lambda th: float("inf"),
                   options=MinimizeOptions(start=np.array([0.0])))
    assert not res.converged
    assert res.status == "infeasible"
    assert res.iters == 0


def _values_by_budget(f, **opts):
    """The value returned with max_iters = 1, ..., K, where K is the length of
    the unlimited run: runs are deterministic, so these are its accepted
    values in order."""
    full = minimize(f, options=MinimizeOptions(**opts))
    assert full.converged and full.iters >= 20
    return [
        minimize(f, options=MinimizeOptions(max_iters=k, **opts)).value
        for k in range(1, full.iters + 1)
    ]


def test_accepted_values_non_increasing():
    values = _values_by_budget(
        lambda th: float((th[0] - 3.0) ** 4 + th[1] ** 2),
        start=np.array([10.0, -4.0]),
    )
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_simplex_accepted_values_non_increasing():
    values = _values_by_budget(
        lambda th: float(abs(th[0] - 1.0) + abs(th[1] + 2.0)),
        start=np.array([4.0, 4.0]), method="simplex", step_tol=1e-9,
    )
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_simplex_on_nonsmooth_objective():
    res = minimize(
        lambda th: float(abs(th[0] - 2.0) + 0.5 * abs(th[1])),
        options=MinimizeOptions(start=np.array([0.0, 1.0]), method="simplex",
                                max_iters=4000, step_tol=1e-9),
    )
    assert res.converged
    assert np.max(np.abs(res.theta_hat - [2.0, 0.0])) < 1e-6
    assert np.isnan(res.grad_norm)


def test_deterministic_repeat():
    def f(th):
        return float(np.sin(th[0]) + th[0] ** 2 / 10 + (th[1] - 1) ** 2)

    a = minimize(f, options=MinimizeOptions(start=np.array([2.0, -1.0])))
    b = minimize(f, options=MinimizeOptions(start=np.array([2.0, -1.0])))
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert a.value == b.value and a.iters == b.iters


def test_scaling_invariance_of_argmin():
    def f(th):
        return float((th[0] - 1.0) ** 2 + 2.0 * (th[1] + 0.5) ** 2)

    a = minimize(f, options=MinimizeOptions(start=np.array([5.0, 5.0])))
    b = minimize(lambda th: 37.0 * f(th), options=MinimizeOptions(start=np.array([5.0, 5.0])))
    assert np.max(np.abs(a.theta_hat - b.theta_hat)) < 1e-7


def test_options_validation():
    with pytest.raises(ConfigError):
        MinimizeOptions(method="newton")
    with pytest.raises(ConfigError):
        MinimizeOptions(max_iters=0)
    with pytest.raises(ConfigError):
        MinimizeOptions(grad_tol=0.0)
    with pytest.raises(ConfigError):
        minimize(lambda th: 0.0, options=MinimizeOptions())


def test_fd_gradient_linear_form_exact():
    c = np.array([2.0, -3.0, 0.5])
    g = finite_difference_gradient(lambda th: float(c @ th), np.array([1.0, 1.0, 1.0]))
    assert np.max(np.abs(g - c)) < 1e-10


def test_fd_gradient_quadratic_form():
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    th = np.array([0.7, -1.2])
    g = finite_difference_gradient(lambda t: float(t @ a @ t), th)
    assert np.max(np.abs(g - 2 * a @ th)) < 1e-6


def test_fd_gradient_matches_analytic_poisson():
    rng = np.random.default_rng(21)
    n = 80
    x = rng.standard_normal((n, 2))
    lam0 = np.exp(x @ [0.4, 0.6])
    y = rng.poisson(lam0).astype(float)
    z = x + rng.normal(0, 0.3, (n, 2))
    ds = Dataset(y=y, z=z, sigma_u=0.09 * np.eye(2))
    ctx = TargetContext(dataset=ds, model=ModelSpec(family="poisson"), lam=1.0)
    for _ in range(10):
        th = rng.normal(0, 0.5, 2)
        fd = finite_difference_gradient(lambda t: target_poisson_negloglik(ctx, t)[0], th)
        an = target_poisson_negloglik(ctx, th)[1]()
        assert np.max(np.abs(fd - an)) < 1e-6


def test_fd_gradient_error_names_coordinate():
    def f(th):
        return float("nan") if th[1] > 0.5 else float(th @ th)

    with pytest.raises(EstimationError, match="coordinate 1"):
        finite_difference_gradient(f, np.array([0.0, 0.5]))


def test_nonfinite_finite_difference_ends_the_run_not_converged():
    # the first step from 0 lands exactly on 1, where the value is finite
    # but every central difference around it is not
    def f(th):
        return float("nan") if 0.0 < abs(th[0] - 1.0) < 1e-3 else float((th[0] - 3.0) ** 2)

    res = minimize(f, options=MinimizeOptions(start=np.zeros(1)))
    assert (res.status, res.converged, res.iters) == ("nonfinite", False, 1)
    assert res.theta_hat[0] == 1.0 and res.value == 4.0
    assert np.isnan(res.grad_norm)


def test_exhausted_line_search_is_not_converged():
    # a cusp: every trial point along the reported descent direction is
    # higher than the start, however short the step
    res = minimize(lambda th: float(np.sqrt(abs(th[0]))), lambda th: np.ones(1),
                   MinimizeOptions(start=np.zeros(1)))
    assert res.status == "line_search"
    assert not res.converged
    assert res.theta_hat[0] == 0.0 and res.iters == 1


def test_nonfinite_gradient_status():
    res = minimize(lambda th: float(th @ th), lambda th: np.full(1, np.nan),
                   MinimizeOptions(start=np.ones(1)))
    assert res.status == "nonfinite"
    assert not res.converged
    assert res.iters == 0


def _rowwise(f, g):
    """Batch callables from per-row scalar ones: row r is f(theta, r)."""
    return (
        lambda th, rows: np.array([f(t, r) for t, r in zip(th, rows)]),
        lambda th, rows: np.array([g(t, r) for t, r in zip(th, rows)]),
    )


def test_minimize_batch_statuses_per_row():
    # one row per exit: grad_tol, line_search, nonfinite, infeasible, max_iters
    fs = [
        lambda t: float((t[0] - 3.0) ** 2),
        lambda t: float(np.sqrt(abs(t[0]))),
        lambda t: float(t @ t),
        lambda t: float("inf"),
        lambda t: float(100.0 * (t[0] - 1.0) ** 4),
    ]
    gs = [
        lambda t: 2.0 * (t - 3.0),
        lambda t: np.ones(1),
        lambda t: np.full(1, np.nan),
        lambda t: np.zeros(1),
        lambda t: 400.0 * (t - 1.0) ** 3,
    ]
    f, g = _rowwise(lambda t, r: fs[r](t), lambda t, r: gs[r](t))
    starts = np.array([[0.0], [0.0], [1.0], [0.0], [5.0]])
    res = minimize_batch(f, g, MinimizeOptions(start=starts, max_iters=3))
    assert list(res.status) == ["grad_tol", "line_search", "nonfinite", "infeasible", "max_iters"]
    assert list(res.converged) == [True, False, False, False, False]
    for r in range(5):
        one = minimize(fs[r], gs[r], MinimizeOptions(start=starts[r], max_iters=3))
        assert (one.status, one.iters) == (res.status[r], res.iters[r])
        assert np.array_equal(one.theta_hat, res.theta_hat[r])


def _pseudo_stack(rows=5, lam=1.0):
    rng = _stream(17, (0, 0))
    x = rng.standard_normal(300)
    ds = Dataset(y=np.exp(x) + rng.standard_normal(300), z=x + rng.normal(0, 0.5, 300),
                 sigma_u=0.25)
    zs = np.stack([pseudo_data(ds, lam, _stream(100, (1, b))) for b in range(rows)])
    return ds, zs


def _stack_solve(ds, zs, start, seen=None):
    model = ModelSpec(family="exponential")

    def kernel(fn):
        def call(th, rows):
            if seen is not None:
                seen.append(rows.copy())
            return fn(TargetContext(dataset=ds, model=model, lam=0.0, z=zs[rows]), th)
        return call

    return minimize_batch(kernel(target_value), kernel(target_gradient),
                          MinimizeOptions(start=start))


def test_minimize_batch_rows_match_lone_solves():
    ds, zs = _pseudo_stack()
    start = np.zeros((len(zs), 1))
    together = _stack_solve(ds, zs, start)
    assert together.converged.all()
    model = ModelSpec(family="exponential")
    for r in range(len(zs)):
        alone = _stack_solve(ds, zs[r : r + 1], start[r : r + 1])
        for field in ("theta_hat", "value", "grad_norm"):
            np.testing.assert_allclose(getattr(together, field)[r], getattr(alone, field)[0],
                                       rtol=1e-12, atol=0)
        assert together.iters[r] == alone.iters[0]
        # and the scalar solve on the same pseudo-data takes the same steps
        ctx = TargetContext(dataset=Dataset(y=ds.y, z=zs[r], sigma_u=ds.sigma_u),
                            model=model, lam=0.0)
        scalar = minimize(lambda th: target_value(ctx, th), lambda th: target_gradient(ctx, th),
                          MinimizeOptions(start=start[r]))
        np.testing.assert_allclose(together.theta_hat[r], scalar.theta_hat, rtol=1e-12, atol=0)
        assert together.iters[r] == scalar.iters


def test_minimize_batch_exited_row_is_not_evaluated_again():
    ds, zs = _pseudo_stack()
    first = _stack_solve(ds, zs, np.zeros((len(zs), 1)))
    # row 2 starts at its own minimizer and exits before the first step
    start = np.zeros((len(zs), 1))
    start[2] = first.theta_hat[2]
    seen = []
    res = _stack_solve(ds, zs, start, seen)
    assert res.status[2] == "grad_tol" and res.iters[2] == 0
    assert np.array_equal(res.theta_hat[2], first.theta_hat[2])
    assert res.iters.max() > 5
    # the first value call and the first gradient call cover every row
    assert all(2 not in rows for rows in seen[2:])
    np.testing.assert_allclose(res.theta_hat, first.theta_hat, rtol=1e-12, atol=0)


def test_minimize_batch_validation():
    f, g = _rowwise(lambda t, r: float(t @ t), lambda t, r: 2.0 * t)
    with pytest.raises(ConfigError):
        minimize_batch(f, g, MinimizeOptions(start=np.zeros(2)))
    with pytest.raises(ConfigError):
        minimize_batch(f, g, MinimizeOptions(start=np.zeros((2, 1)), method="simplex"))
    with pytest.raises(ConfigError):
        minimize_batch(f, g, MinimizeOptions())
