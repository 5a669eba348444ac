"""Quasi-Newton and simplex minimization engine."""

import warnings

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
    target_exponential,
    target_linear,
    target_poisson_negloglik,
)
from simexfree import targets
from simexfree.extrapolate import minimize_stack, minimize_target
from simexfree.optimize import newton_directions
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
    # an iteration budget is an integer and not a bool; tolerances are finite
    for iters in (2.5, True, 3.0):
        with pytest.raises(ConfigError, match="max_iters"):
            MinimizeOptions(max_iters=iters)
    for tol in (np.nan, np.inf, -1.0):
        for name in ("grad_tol", "step_tol"):
            with pytest.raises(ConfigError, match="tolerances"):
                MinimizeOptions(**{name: tol})
    assert MinimizeOptions(max_iters=np.int64(7)).max_iters == 7


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
    """The batch callable of per-row scalar ones: row r is f(theta, r), and
    only the rows that pass their bound get a gradient."""

    def fg(th, rows, bound):
        values = np.array([f(t, r) for t, r in zip(th, rows)])
        grads = np.full(th.shape, np.nan)
        for i, (t, r) in enumerate(zip(th, rows)):
            if np.isfinite(values[i]) and values[i] <= bound[i]:
                grads[i] = g(t, r)
        return values, grads

    return fg


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
    fg = _rowwise(lambda t, r: fs[r](t), lambda t, r: gs[r](t))
    starts = np.array([[0.0], [0.0], [1.0], [0.0], [5.0]])
    res = minimize_batch(fg, MinimizeOptions(start=starts, max_iters=3))
    assert list(res.status) == ["grad_tol", "line_search", "nonfinite", "infeasible", "max_iters"]
    assert list(res.converged) == [True, False, False, False, False]
    for r in range(5):
        one = minimize(fs[r], gs[r], MinimizeOptions(start=starts[r], max_iters=3))
        assert (one.status, one.iters) == (res.status[r], res.iters[r])
        assert np.array_equal(one.theta_hat, res.theta_hat[r])


def test_a_quasi_newton_step_that_rounding_hides_stops_at_step_tol_without_more_halvings():
    # the gradient is 2e-8, just above grad_tol, and every point but the
    # start evaluates one rounding unit higher, as where the rounding of f
    # hides the decrease of so short a step
    start = np.array([1.0])

    def f(t):
        return 1.0 if t[0] == start[0] else float(np.nextafter(1.0, 2.0))

    def g(t):
        return np.full(1, 2e-8)

    trials = []

    def counted(t, r=0):
        trials.append(r)
        return f(t)

    one = minimize(counted, g, MinimizeOptions(start=start))
    assert (one.status, one.converged, one.iters) == ("step_tol", True, 1)
    assert one.theta_hat[0] == 1.0 and one.value == 1.0
    # the start, then the unit step of length 2e-8 and its halvings down to
    # 1/128; at 1/256 it would be within step_tol = 1e-10, and the run stops
    assert len(trials) == 1 + 8
    # a batch row stops the same way, beside a row that converges
    trials.clear()
    fg = _rowwise(lambda t, r: counted(t, r) if r == 0 else float((t[0] - 3.0) ** 2),
                  lambda t, r: g(t) if r == 0 else 2.0 * (t - 3.0))
    res = minimize_batch(fg, MinimizeOptions(start=np.array([[1.0], [0.0]])))
    assert list(res.status) == ["step_tol", "grad_tol"] and res.iters[0] == 1
    assert np.array_equal(res.theta_hat[0], one.theta_hat) and len(trials) == 1 + 8


def test_a_gradient_whose_norm_overflows_ends_nonfinite_without_a_warning():
    # row 0's gradient is 1e160 at the start; row 1's is finite there, and
    # its first step lands where it is about 2e156: each norm overflows
    fs = [lambda t: float(1e160 * t[0]), lambda t: float(-1e100 * np.exp(125.0 * t[0]))]
    gs = [lambda t: np.full(1, 1e160), lambda t: np.full(1, -1.25e102 * np.exp(125.0 * t[0]))]
    starts = np.zeros((2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize_batch(_rowwise(lambda t, r: fs[r](t), lambda t, r: gs[r](t)),
                             MinimizeOptions(start=starts))
        ones = [minimize(fs[r], gs[r], MinimizeOptions(start=starts[r])) for r in range(2)]
    assert list(res.status) == ["nonfinite", "nonfinite"] and list(res.iters) == [0, 1]
    for r, one in enumerate(ones):
        assert (one.status, one.iters) == (res.status[r], res.iters[r])
        assert np.array_equal(one.theta_hat, res.theta_hat[r]) and np.isinf(one.grad_norm)


def _pseudo_stack(rows=5, lam=1.0):
    rng = _stream(17, (0, 0))
    x = rng.standard_normal(300)
    ds = Dataset(y=np.exp(x) + rng.standard_normal(300), z=x + rng.normal(0, 0.5, 300),
                 sigma_u=0.25)
    zs = np.stack([pseudo_data(ds, lam, _stream(100, (1, b))) for b in range(rows)])
    return ds, zs


def _stack_solve(ds, zs, start, seen=None, lam=0.0):
    model = ModelSpec(family="exponential")

    def fg(th, rows, bound):
        if seen is not None:
            seen.append(rows.copy())
        value, grad = target_exponential(
            TargetContext(dataset=ds, model=model, lam=lam, z=zs[rows]), th
        )
        return value, grad()

    return minimize_batch(fg, MinimizeOptions(start=start))


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
    # each row goes on to the next noise level from its minimizer, as the
    # lambda grid does, and takes the steps of its lone solve from there
    warm = _stack_solve(ds, zs, together.theta_hat, lam=0.5)
    assert warm.converged.all()
    for r in range(len(zs)):
        ctx = TargetContext(dataset=Dataset(y=ds.y, z=zs[r], sigma_u=ds.sigma_u),
                            model=model, lam=0.5)
        scalar = minimize(lambda th: target_value(ctx, th), lambda th: target_gradient(ctx, th),
                          MinimizeOptions(start=together.theta_hat[r]))
        for field in ("theta_hat", "value", "grad_norm", "iters", "status"):
            assert np.array_equal(getattr(warm, field)[r], getattr(scalar, field)), field
    # rows that mix Newton and quasi-Newton steps and exit at different
    # iterations, one of them line_search, keep the bits of their lone solves
    fs, gs, hs, starts = _mixed_rows()
    # the second batch takes Newton steps only until row 0 turns quasi-Newton,
    # so its inverse Hessians first exist at a later iteration
    for rows in (np.arange(len(fs)), np.array([0, 2, 4])):
        res = minimize_batch(_rowwise_curved(fs, gs, hs, rows), MinimizeOptions(start=starts[rows]))
        for i, r in enumerate(rows):
            newton = []  # per iterate, whether its Hessian is positive definite

            def hess(t, r=r):
                h = hs[r](t)
                newton.append(h is not None and bool(np.all(np.linalg.eigvalsh(h) > 0.0)))
                return h

            alone = minimize(fs[r], gs[r], MinimizeOptions(start=starts[r]), hess)
            for field in ("theta_hat", "value", "grad_norm", "iters", "status"):
                assert np.array_equal(getattr(res, field)[i], getattr(alone, field)), field
            if r in (0, 1):
                # row 0 turns from Newton to quasi-Newton steps, row 1 the other way
                assert newton[0] == (r == 0) and newton[-1] == (r == 1)
        if rows.size == 5:
            assert list(res.status) == ["grad_tol"] * 3 + ["line_search", "grad_tol"]
            assert list(res.iters) == [6, 6, 21, 1, 1]


def _mixed_rows():
    """Values, gradients, Hessians (None where a row offers none) and starts
    of five objectives in two parameters: log cosh bowls whose Hessian is
    offered only far from (row 0) or only near (row 1) the minimizer,
    Rosenbrock's function, a cusp whose stated gradient never descends, so
    its line search fails, and a quadratic that one Newton step solves."""
    c0, c1 = np.array([3.0, -2.0]), np.array([-1.0, 1.0])
    a, m = np.array([[3.0, 1.0], [1.0, 2.0]]), np.array([1.0, 2.0])

    def bowl(c, offered):
        f = lambda t: float(np.sum(np.log(np.cosh(t - c))) + 0.1 * (t @ t))  # noqa: E731
        g = lambda t: np.tanh(t - c) + 0.2 * t  # noqa: E731
        h = lambda t: (np.diag(1.0 / np.cosh(t - c) ** 2 + 0.2)  # noqa: E731
                       if offered(np.abs(t - c).max()) else None)
        return f, g, h

    rows = [
        bowl(c0, lambda u: u > 1.0),
        bowl(c1, lambda u: u < 1.0),
        (lambda t: float(100.0 * (t[1] - t[0] ** 2) ** 2 + (1.0 - t[0]) ** 2),
         lambda t: np.array([-400.0 * t[0] * (t[1] - t[0] ** 2) - 2.0 * (1.0 - t[0]),
                             200.0 * (t[1] - t[0] ** 2)]),
         lambda t: np.array([[1200.0 * t[0] ** 2 - 400.0 * t[1] + 2.0, -400.0 * t[0]],
                             [-400.0 * t[0], 200.0]])),
        (lambda t: float(np.sqrt(abs(t[0])) + np.sqrt(abs(t[1]))), lambda t: np.ones(2),
         lambda t: None),
        (lambda t: float((t - m) @ a @ (t - m)), lambda t: 2.0 * a @ (t - m), lambda t: 2.0 * a),
    ]
    starts = np.array([[0.0, 0.0], [2.0, -2.0], [-1.2, 1.0], [0.0, 0.0], [4.0, -3.0]])
    return [f for f, _, _ in rows], [g for _, g, _ in rows], [h for _, _, h in rows], starts


def _rowwise_curved(fs, gs, hs, rows):
    """The batch callable whose row i is objective ``rows[i]`` of the lists
    ``fs``, ``gs`` and ``hs``, with a NaN Hessian where a row offers none."""

    def fg(th, idx, bound):
        values = np.array([fs[rows[i]](t) for t, i in zip(th, idx)])
        grads, hess = np.full(th.shape, np.nan), np.full(th.shape + th.shape[-1:], np.nan)
        for k, (t, i) in enumerate(zip(th, idx)):
            if np.isfinite(values[k]) and values[k] <= bound[k]:
                grads[k] = gs[rows[i]](t)
                h = hs[rows[i]](t)
                if h is not None:
                    hess[k] = h
        return values, grads, hess

    return fg


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
    # the first call, for the values and gradients at the starts, covers every row
    assert 2 in seen[0]
    assert all(2 not in rows for rows in seen[1:])
    np.testing.assert_allclose(res.theta_hat, first.theta_hat, rtol=1e-12, atol=0)


def test_a_quasi_newton_run_caps_its_first_step_at_unit_length():
    # the identity knows nothing of the scale: without the cap the first
    # trial from (3, 4) would move by |g| = 5e4
    def f(th):
        return float(0.5e4 * th @ th)

    def g(th):
        return 1e4 * th

    start = np.array([3.0, 4.0])
    one = minimize(f, g, MinimizeOptions(start=start, max_iters=1))
    np.testing.assert_allclose(one.theta_hat, [2.4, 3.2], rtol=1e-15)
    res = minimize_batch(_rowwise(lambda t, r: f(t), lambda t, r: g(t)),
                         MinimizeOptions(start=start[None], max_iters=1))
    assert np.array_equal(res.theta_hat[0], one.theta_hat)
    # and the rescaled identity then finishes the quadratic in one more step
    assert minimize(f, g, MinimizeOptions(start=start)).iters == 2


def test_minimize_batch_stops_once_every_row_has_exited():
    # every row ends by step_tol, the last exit test of an iteration
    calls = []

    def fg(th, rows, bound):
        calls.append(rows.size)
        return (th[:, 0] - 3.0) ** 4, 4.0 * (th - 3.0) ** 3

    res = minimize_batch(fg, MinimizeOptions(start=np.array([[0.0], [1.0]]), grad_tol=1e-14,
                                             step_tol=1e-4))
    assert list(res.status) == ["step_tol", "step_tol"]
    assert all(calls)


def test_minimize_batch_validation():
    fg = _rowwise(lambda t, r: float(t @ t), lambda t, r: 2.0 * t)
    with pytest.raises(ConfigError):
        minimize_batch(fg, MinimizeOptions(start=np.zeros(2)))
    with pytest.raises(ConfigError):
        minimize_batch(fg, MinimizeOptions(start=np.zeros((2, 1)), method="simplex"))
    with pytest.raises(ConfigError):
        minimize_batch(fg, MinimizeOptions())


def test_newton_directions_solve_positive_definite_rows_and_refuse_the_others():
    h = np.array([[[4.0, 1.0], [1.0, 3.0]], [[1.0, 2.0], [2.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
                  [[2.0, 0.0], [0.0, np.nan]], [[0.0, 0.0], [0.0, 1.0]]])
    g = np.array([[1.0, -2.0]] * 5)
    d = newton_directions(h, g)
    np.testing.assert_allclose(d[0], -np.linalg.solve(h[0], g[0]), rtol=1e-15)
    # indefinite, infinite, NaN and singular matrices give NaN directions
    assert np.isnan(d[1:]).all(axis=1).all()
    # a row has the bits of its own one-row call
    for i in range(5):
        assert np.array_equal(newton_directions(h[i:i + 1], g[i:i + 1])[0], d[i], equal_nan=True)


def _steep_exponential(rows=4, n=200):
    """Exponential data sets whose Hessian is negative at the family's flat
    start: the mean exp(1.5 x) lies far above exp(0) = 1 for large x."""
    rng = np.random.default_rng(23)
    x = rng.standard_normal((rows, n))
    ys = np.exp(1.5 * x) + 0.5 * rng.standard_normal((rows, n))
    zs = (x + 0.5 * rng.standard_normal((rows, n)))[..., None]
    return Dataset(y=ys[0], z=zs[0], sigma_u=0.25), zs, ys


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_an_indefinite_start_falls_back_to_quasi_newton_and_stacks_bit_for_bit(lam):
    ds, zs, ys = _steep_exponential()
    model = ModelSpec(family="exponential")
    starts = np.zeros((len(zs), 1))
    stacked = TargetContext(dataset=ds, model=model, lam=lam, z=zs, y=ys)
    assert (targets.hessian(stacked, starts) < 0.0).all()
    together = minimize_stack(stacked, MinimizeOptions(start=starts))
    for b in range(len(zs)):
        ctx = TargetContext(dataset=ds, model=model, lam=lam, z=zs[b], y=ys[b])

        seen = []  # the Hessian at each iterate the solver asked at

        def hess(th):
            seen.append(targets.hessian(ctx, th))
            return seen[-1]

        def run(opts, curvature=True):
            return minimize(lambda th: target_value(ctx, th), lambda th: target_gradient(ctx, th),
                            opts, hess if curvature else None)

        # the first step is the quasi-Newton one, with or without curvature
        one = run(MinimizeOptions(start=starts[b], max_iters=1))
        assert np.array_equal(one.theta_hat, run(MinimizeOptions(start=starts[b], max_iters=1),
                                                 curvature=False).theta_hat)
        # the solve converges where the quasi-Newton one does, and its
        # Hessian turns positive definite on the way, for Newton steps
        seen.clear()
        newton = run(MinimizeOptions(start=starts[b]))
        quasi = run(MinimizeOptions(start=starts[b]), curvature=False)
        assert newton.converged and quasi.converged
        np.testing.assert_allclose(newton.theta_hat, quasi.theta_hat, rtol=1e-7)
        assert seen[0][0, 0] < 0.0 < seen[-1][0, 0]
        # and each stacked row has the bits of its lone solve
        alone = minimize_target(ctx, starts[b])
        for field in ("theta_hat", "value", "grad_norm", "iters", "status"):
            assert np.array_equal(getattr(together, field)[b], getattr(alone, field)), field
            assert np.array_equal(getattr(newton, field), getattr(alone, field)), field
