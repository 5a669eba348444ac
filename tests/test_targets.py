"""Closed-form conditional-expectation objectives for every family."""

import copy
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import product

from scipy.integrate import quad

from helpers import SINE_OFFSET, mc_conditional_expectation

from simexfree import (
    CapacityError,
    ConfigError,
    Dataset,
    MeanFunction,
    MinimizeOptions,
    ModelMismatchError,
    ModelSpec,
    TargetContext,
    direct_estimate,
    minimize,
    normal_pdf,
    target_expectile,
    target_exponential,
    target_generic_ls,
    target_gradient,
    target_lare,
    target_linear,
    target_logistic,
    target_lpre,
    target_poisson_negloglik,
    target_quantile,
    target_sine,
    target_value,
    target_walsh,
)
from simexfree.data import psd_factor
from simexfree import targets
from simexfree.gaussian import hermite_rule, normal_cdf
from simexfree.optimize import finite_difference_gradient
from simexfree.targets import (
    FAMILIES,
    GENERIC_CHUNK_ROWS,
    GENERIC_TENSOR_NODES,
    STACK_CHUNK_VALUES,
    _softplus,
    _walsh_pairs,
    _walsh_weights,
)


def _make_dataset(seed=0, n=20, p=1, su=0.25, family="linear", theta0=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    sigma = su * np.eye(p)
    z = x + rng.standard_normal((n, p)) @ np.linalg.cholesky(sigma).T
    theta0 = np.full(p, 0.8) if theta0 is None else np.asarray(theta0, dtype=float)
    if family in ("linear", "quantile", "walsh", "expectile"):
        y = x @ theta0 + rng.standard_normal(n)
    elif family == "exponential":
        y = np.exp(x @ theta0) + rng.standard_normal(n)
    elif family == "sine":
        y = np.sin(x @ theta0) + rng.standard_normal(n)
    elif family == "poisson":
        y = rng.poisson(np.exp(x @ theta0)).astype(float)
    elif family == "logistic":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x @ theta0)))).astype(float)
    else:  # positive responses for the multiplicative families
        y = np.exp(x @ theta0) * np.exp(rng.normal(-0.125, 0.5, n))
    return Dataset(y=y, z=z, sigma_u=sigma)


def _ctx(ds, family, lam, **model_kw):
    return TargetContext(dataset=ds, model=ModelSpec(family=family, **model_kw), lam=lam)


# --------------------------------------------------------------------------
# context validation
# --------------------------------------------------------------------------


def test_context_rejects_lambda_below_minus_one():
    ds = _make_dataset()
    with pytest.raises(ConfigError):
        _ctx(ds, "linear", -1.5)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_context_rejects_a_nonfinite_lambda(lam):
    ds = _make_dataset(family="sine")
    with pytest.raises(ConfigError, match="finite"):
        _ctx(ds, "sine", lam)


@pytest.mark.parametrize("p", [1, 2])
def test_an_overflowing_noise_term_warns_nothing(p):
    # beta' sigma_u beta overflows, and the objective is mean(y^2) + 1
    ds = _make_dataset(seed=3, p=p, family="sine")
    ctx = _ctx(ds, "sine", 0.5)
    theta = np.full(p, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = target_value(ctx, theta)
        grad = target_gradient(ctx, theta)
    assert value == pytest.approx(np.mean(ds.y**2) + 1.0, rel=1e-15)
    assert grad.shape == (p,)


@pytest.mark.parametrize(
    "family,kw",
    [
        ("logistic", {}),
        ("lare", {}),
        ("quantile", {"tau": 0.5}),
        ("walsh", {}),
        ("expectile", {"tau": 0.3}),
    ],
)
def test_grid_only_families_forbid_negative_lambda(family, kw):
    ds = _make_dataset(family=family if family != "expectile" else "linear")
    if family in ("logistic",):
        ds = _make_dataset(family="logistic")
    if family == "lare":
        ds = _make_dataset(family="lare")
    with pytest.raises(ConfigError, match="forbids negative"):
        _ctx(ds, family, -0.5, **kw)


def test_expectile_half_allows_minus_one():
    ds = _make_dataset()
    ctx = _ctx(ds, "expectile", -1.0, tau=0.5)
    assert np.isfinite(target_expectile(ctx, np.array([0.3]))[0])


def test_context_validates_y_domain():
    ds = _make_dataset()  # real-valued responses
    with pytest.raises(ModelMismatchError):
        _ctx(ds, "poisson", 0.0)
    with pytest.raises(ModelMismatchError):
        _ctx(ds, "lpre", 0.0)


def test_targets_are_deterministic():
    ds = _make_dataset(family="lare")
    ctx = _ctx(ds, "lare", 1.2)
    th = np.array([0.6])
    assert target_lare(ctx, th)[0] == target_lare(ctx, th)[0]


# --------------------------------------------------------------------------
# linear
# --------------------------------------------------------------------------


def test_linear_lambda_zero_is_ols_criterion():
    ds = _make_dataset(seed=1)
    ctx = _ctx(ds, "linear", 0.0)
    th = np.array([0.2, 0.9])
    r = ds.y - 0.2 - ds.z[:, 0] * 0.9
    assert np.isclose(target_linear(ctx, th)[0], np.mean(r**2))


def test_linear_sigma_zero_lambda_free():
    rng = np.random.default_rng(2)
    ds = Dataset(y=rng.standard_normal(10), z=rng.standard_normal(10), sigma_u=0.0)
    th = np.array([0.1, 0.5])
    vals = {target_linear(_ctx(ds, "linear", lam), th)[0] for lam in (-1.0, 0.0, 2.0)}
    assert len(vals) == 1


def test_linear_gradient_matches_fd():
    ds = _make_dataset(seed=3)
    ctx = _ctx(ds, "linear", 1.5)
    th = np.array([0.4, -0.7])
    fd = finite_difference_gradient(lambda t: target_linear(ctx, t)[0], th)
    an = target_gradient(ctx, th)
    assert np.max(np.abs(fd - an)) < 1e-8


# --------------------------------------------------------------------------
# exponential
# --------------------------------------------------------------------------


def test_exponential_sigma_zero_is_nls():
    rng = np.random.default_rng(4)
    z = rng.standard_normal(15)
    y = np.exp(0.8 * z) + rng.standard_normal(15)
    ds = Dataset(y=y, z=z, sigma_u=0.0)
    th = np.array([0.6])
    val = target_exponential(_ctx(ds, "exponential", -1.0), th)[0]
    nls = np.mean((y - np.exp(z * 0.6)) ** 2)
    assert np.isclose(val, nls, atol=1e-12)


def test_exponential_single_point_closed_form():
    su = 0.49
    ds = Dataset(y=[1.0], z=[0.0], sigma_u=su)
    ctx = _ctx(ds, "exponential", -1.0)
    for th in (0.3, 1.1):
        val = target_exponential(ctx, np.array([th]))[0]
        expected = 1.0 - 2.0 * math.exp(-su * th * th / 2) + math.exp(-2 * su * th * th)
        assert np.isclose(val, expected)


def test_exponential_population_stationarity_at_truth():
    # with a standard normal latent covariate the limiting stationarity
    # condition (t + t0) e^((t+t0)^2/2) - 2 t e^(2 t^2) = 0 holds at t = t0 = 1
    t = t0 = 1.0
    lhs = (t + t0) * math.exp((t + t0) ** 2 / 2)
    rhs = 2 * t * math.exp(2 * t**2)
    assert np.isclose(lhs, rhs)
    assert np.isclose(lhs, 2 * math.e**2)


def test_exponential_gradient_matches_fd():
    ds = _make_dataset(seed=5, n=30, p=2, family="exponential")
    rng = np.random.default_rng(6)
    for lam in (-1.0, 1.0):
        ctx = _ctx(ds, "exponential", lam)
        for _ in range(5):
            th = rng.normal(0, 0.5, 2)
            fd = finite_difference_gradient(lambda t: target_exponential(ctx, t)[0], th)
            an = target_exponential(ctx, th)[1]()
            assert np.max(np.abs(fd - an)) < 1e-6


def test_exponential_gradient_small_at_minimizer():
    ds = _make_dataset(seed=7, n=200, family="exponential", theta0=[1.0])
    res = direct_estimate(ModelSpec(family="exponential"), ds)
    ctx = _ctx(ds, "exponential", -1.0)
    g = target_exponential(ctx, res.theta_hat.coefficients)[1]()
    assert np.linalg.norm(g) < 1e-6


def test_exponential_overflow_returns_inf():
    ds = Dataset(y=[1.0], z=[500.0], sigma_u=0.0)
    assert target_exponential(_ctx(ds, "exponential", 0.0), np.array([5.0]))[0] == np.inf


# --------------------------------------------------------------------------
# sine
# --------------------------------------------------------------------------


def test_sine_sigma_zero_is_ls_plus_half():
    rng = np.random.default_rng(8)
    z = rng.standard_normal(20)
    y = np.sin(1.2 * z) + rng.standard_normal(20)
    ds = Dataset(y=y, z=z, sigma_u=0.0)
    for lam in (-1.0, 0.7):
        val = target_sine(_ctx(ds, "sine", lam), np.array([1.2]))[0]
        ls = np.mean((y - np.sin(1.2 * z)) ** 2)
        assert abs(val - (ls + 0.5)) < 1e-10


def test_sine_at_zero_theta():
    ds = _make_dataset(seed=9, family="sine")
    val = target_sine(_ctx(ds, "sine", -1.0), np.array([0.0]))[0]
    assert np.isclose(val, np.mean(ds.y**2) + 0.5)


def test_sine_population_minimum_at_truth():
    # the large-n limit at lam = -1 is 1/2 + var(eps) + E[sin(x t0) - sin(x t)]^2
    rng = np.random.default_rng(10)
    n = 200_000
    x = rng.standard_normal(n)
    y = np.sin(1.0 * x) + rng.standard_normal(n)
    z = x + rng.normal(0, 0.5, n)
    ds = Dataset(y=y, z=z, sigma_u=0.25)
    ctx = _ctx(ds, "sine", -1.0)
    at_truth = target_sine(ctx, np.array([1.0]))[0]
    assert abs(at_truth - 1.5) < 0.02  # 1/2 + sigma_eps^2 = 1.5
    for other in (0.6, 1.4):
        assert target_sine(ctx, np.array([other]))[0] > at_truth


def _sine_by_numpy(y, z, sigma, lam, beta):
    """Value, gradient and Hessian of the sine objective of one set, on
    ``np.sin`` and ``np.cos``: the mean of y^2 - 2 y e^{-s/2} sin(eta) -
    e^{-2s} cos(2 eta) / 2, plus 1, with eta = z beta and s = lam beta' sigma beta."""
    n = y.size
    eta = z @ beta
    s = lam * (beta @ sigma @ beta)
    e1, e2 = np.exp(-0.5 * s), np.exp(-2.0 * s)
    sin, cos, sin2, cos2 = np.sin(eta), np.cos(eta), np.sin(2.0 * eta), np.cos(2.0 * eta)
    value = np.mean(y * y - 2.0 * y * e1 * sin - 0.5 * e2 * cos2) + 1.0
    u = 2.0 * lam * sigma @ beta  # ds / dbeta
    d_eta = -2.0 * y * e1 * cos + e2 * sin2
    d_s = np.mean(y * e1 * sin + e2 * cos2)
    d_eta2 = 2.0 * y * e1 * sin + 2.0 * e2 * cos2
    d_eta_s = y * e1 * cos - 2.0 * e2 * sin2
    d_s2 = np.mean(-0.5 * y * e1 * sin - 2.0 * e2 * cos2)
    a = z.T @ d_eta_s / n
    hess = (z.T * d_eta2) @ z / n + np.outer(a, u) + np.outer(u, a) + d_s2 * np.outer(u, u)
    return value, z.T @ d_eta / n + d_s * u, hess + d_s * 2.0 * lam * sigma


@pytest.mark.parametrize("lam", [0.0, 0.5, -0.5])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("stack", [False, True])
def test_sine_kernel_matches_a_numpy_reference(lam, p, stack):
    rng = np.random.default_rng(31 + p)
    n = 300
    sigma = np.array([[0.25, 0.05], [0.05, 0.2]])[:p, :p]
    x = rng.standard_normal((n, p))
    z = x + rng.standard_normal((n, p)) @ np.linalg.cholesky(sigma).T
    ds = Dataset(y=np.sin(x @ np.full(p, 0.9)) + rng.standard_normal(n), z=z, sigma_u=sigma)
    zs = z + 0.4 * rng.standard_normal((3, n, p)) if stack else z
    thetas = rng.uniform(-1.5, 1.5, (3, p)) if stack else np.array([1.3, -0.4][:p])
    ctx = TargetContext(dataset=ds, model=ModelSpec(family="sine"), lam=lam, z=zs)
    value, finish = target_sine(ctx, thetas)
    got = (value, finish(), targets.hessian(ctx, thetas))
    refs = [_sine_by_numpy(ds.y, zb, sigma, lam, th)
            for zb, th in zip(zs if stack else [zs], thetas if stack else [thetas])]
    for k, part in enumerate(got):
        ref = np.array([r[k] for r in refs])
        part = np.reshape(part, ref.shape)
        # within 1e-14 of the size of each set's entries
        size = np.abs(ref).reshape(ref.shape[0], -1).max(axis=1)
        assert np.all(np.abs(part - ref) <= 1e-14 * size.reshape((-1,) + (1,) * (ref.ndim - 1)))


# --------------------------------------------------------------------------
# poisson
# --------------------------------------------------------------------------


def test_poisson_lambda_zero_is_plain_negloglik():
    ds = _make_dataset(seed=11, family="poisson")
    th = np.array([0.5])
    val = target_poisson_negloglik(_ctx(ds, "poisson", 0.0), th)[0]
    plain = -np.mean(ds.y * (ds.z[:, 0] * 0.5) - np.exp(ds.z[:, 0] * 0.5))
    assert np.isclose(val, plain)


def test_poisson_minus_one_exponent_shift():
    su = 0.36
    ds = Dataset(y=[2.0, 0.0, 1.0], z=[0.3, -0.2, 1.0], sigma_u=su)
    th = 0.7
    val = target_poisson_negloglik(_ctx(ds, "poisson", -1.0), np.array([th]))[0]
    z = ds.z[:, 0]
    manual = -np.mean(ds.y * z * th - np.exp(z * th - su * th * th / 2))
    assert np.isclose(val, manual)


def test_poisson_estimate_consistency():
    rng = np.random.default_rng(12)
    n, theta0, su = 2000, 0.7, 0.25
    x = rng.standard_normal(n)
    y = rng.poisson(np.exp(theta0 * x)).astype(float)
    z = x + rng.normal(0, math.sqrt(su), n)
    ds = Dataset(y=y, z=z, sigma_u=su)
    res = direct_estimate(ModelSpec(family="poisson"), ds)
    assert abs(res.theta_hat.coefficients[0] - theta0) < 0.05


# --------------------------------------------------------------------------
# logistic
# --------------------------------------------------------------------------


def test_logistic_lambda_zero_is_plain_negloglik():
    ds = _make_dataset(seed=13, family="logistic")
    th = np.array([0.2, 0.8])
    val = target_logistic(_ctx(ds, "logistic", 0.0), th)[0]
    eta = 0.2 + ds.z[:, 0] * 0.8
    plain = -np.mean(ds.y * eta - np.logaddexp(0, eta))
    assert np.isclose(val, plain)


def test_logistic_zero_slope_exact_for_any_lambda():
    ds = _make_dataset(seed=14, family="logistic")
    for lam in (0.0, 0.5, 2.0):
        val = target_logistic(_ctx(ds, "logistic", lam), np.array([0.4, 0.0]))[0]
        expected = -np.mean(ds.y * 0.4 - math.log1p(math.exp(0.4)))
        assert np.isclose(val, expected, atol=1e-12)


def test_logistic_integral_matches_adaptive_quadrature():
    ds = _make_dataset(seed=15, family="logistic", n=12)
    th = np.array([0.3, 0.9])
    lam = 1.0
    val = target_logistic(_ctx(ds, "logistic", lam), th)[0]
    s = lam * 0.9 * ds.sigma_u[0, 0] * 0.9
    acc = 0.0
    for i in range(ds.n):
        eta = 0.3 + ds.z[i, 0] * 0.9
        part, _ = quad(
            lambda u: float(np.logaddexp(0, eta + u)) * float(normal_pdf(u, 0, s)),
            -12 * math.sqrt(s),
            12 * math.sqrt(s),
            limit=200,
        )
        acc += ds.y[i] * eta - part
    assert abs(val - (-acc / ds.n)) < 1e-8


# --------------------------------------------------------------------------
# lpre
# --------------------------------------------------------------------------


def test_lpre_sigma_zero_plain_criterion():
    ds = _make_dataset(seed=16, family="lpre")
    th = np.array([0.6])
    val = target_lpre(_ctx(ds, "lpre", 0.0), th)[0]
    zt = ds.z[:, 0] * 0.6
    plain = np.mean(ds.y * np.exp(-zt) + np.exp(zt) / ds.y)
    assert np.isclose(val, plain)


def test_lpre_single_point():
    su = 0.25
    ds = Dataset(y=[1.0], z=[0.0], sigma_u=su)
    for lam in (-1.0, 0.0, 1.3):
        val = target_lpre(_ctx(ds, "lpre", lam), np.array([0.9]))[0]
        assert np.isclose(val, 2.0 * math.exp(lam * su * 0.81 / 2))


def test_lpre_debias_beats_naive_most_of_the_time():
    from simexfree import naive_estimate

    theta0, su, n, reps = 0.5, 0.25, 1000, 200
    model = ModelSpec(family="lpre")
    wins = 0
    for r in range(reps):
        rng = np.random.default_rng(1000 + r)
        x = rng.standard_normal(n)
        y = np.exp(theta0 * x) * np.exp(rng.normal(-0.125, 0.5, n))
        z = x + rng.normal(0, math.sqrt(su), n)
        ds = Dataset(y=y, z=z, sigma_u=su)
        ex = direct_estimate(model, ds).theta_hat.coefficients[0]
        naive = naive_estimate(model, ds).theta_hat[0]
        if abs(ex - theta0) < abs(naive - theta0):
            wins += 1
    assert wins >= 0.8 * reps


# --------------------------------------------------------------------------
# lare
# --------------------------------------------------------------------------


def test_lare_small_s_matches_plain_criterion():
    ds = _make_dataset(seed=17, family="lare")
    th = np.array([0.7])
    su = ds.sigma_u[0, 0]
    lam = 1e-10 / (0.49 * su)  # makes s = lam * th' sigma th = 1e-10
    val = target_lare(_ctx(ds, "lare", lam), th)[0]
    zt = ds.z[:, 0] * 0.7
    dev = np.abs(ds.y - np.exp(zt))
    plain = np.mean(dev / ds.y + np.exp(-zt) * dev)
    assert abs(val - plain) < 1e-6


def test_lare_zero_log_ratio_matches_quadrature():
    # responses sit exactly on the fitted curve: l_i = 0 for every row
    rng = np.random.default_rng(18)
    z = rng.standard_normal(6)
    th = 0.8
    y = np.exp(th * z)
    su = 0.25
    ds = Dataset(y=y, z=z, sigma_u=su)
    lam = 1.5
    s = lam * th * su * th
    val = target_lare(_ctx(ds, "lare", lam), np.array([th]))[0]
    acc = 0.0
    for i in range(ds.n):
        a = math.exp(th * z[i])

        def integrand(v, yi=y[i], ai=a):
            dev = abs(yi - ai * math.exp(v))
            return (dev / yi + math.exp(-v) / ai * dev) * float(normal_pdf(v, 0, s))

        per, _ = quad(integrand, -14 * math.sqrt(s), 14 * math.sqrt(s), limit=300)
        acc += per
    assert abs(val - acc / ds.n) < 1e-8


def test_lare_perfect_fit_single_point():
    ds = Dataset(y=[1.0], z=[0.0], sigma_u=0.25)
    assert target_lare(_ctx(ds, "lare", 0.0), np.array([0.0]))[0] == 0.0


# --------------------------------------------------------------------------
# quantile
# --------------------------------------------------------------------------


def test_quantile_lambda_zero_is_check_loss():
    ds = _make_dataset(seed=19)
    for tau in (0.25, 0.5, 0.9):
        ctx = _ctx(ds, "quantile", 0.0, tau=tau)
        th = np.array([0.5])
        xi = ds.y - ds.z[:, 0] * 0.5
        assert np.isclose(target_quantile(ctx, th)[0], np.mean(xi * (tau - (xi < 0))))


def test_quantile_zero_residual_unit_s():
    # y = z beta makes every xi zero; with s = 1 each term is phi(0; 0, 1)
    z = np.array([1.0, -2.0, 0.5])
    beta = 1.0
    ds = Dataset(y=z * beta, z=z, sigma_u=1.0)
    val = target_quantile(_ctx(ds, "quantile", 1.0, tau=0.3), np.array([beta]))[0]
    assert np.isclose(val, 1.0 / math.sqrt(2 * math.pi))


def test_quantile_fd_gradient_continuous_through_zero_residual():
    # path beta(t) moving one residual through zero; with s > 0 the FD
    # gradient must vary continuously (no check-loss kink)
    rng = np.random.default_rng(20)
    z = rng.standard_normal(10)
    y = z * 1.0 + rng.standard_normal(10) * 0.1
    ds = Dataset(y=y, z=z, sigma_u=0.25)
    ctx = _ctx(ds, "quantile", 1.0, tau=0.5)
    crossing = y[0] / z[0]
    grads = []
    for db in np.linspace(-1e-3, 1e-3, 9):
        grads.append(target_gradient(ctx, np.array([crossing + db]))[0])
    diffs = np.abs(np.diff(grads))
    assert np.max(diffs) < 1e-2  # smooth: no jump across the crossing


# --------------------------------------------------------------------------
# walsh
# --------------------------------------------------------------------------


def test_walsh_lambda_zero_is_plain_pairwise_criterion():
    ds = _make_dataset(seed=21, n=12)
    th = np.array([0.4])
    val = target_walsh(_ctx(ds, "walsh", 0.0), th)[0]
    xi = ds.y - ds.z[:, 0] * 0.4
    acc = sum(
        abs(xi[i] + xi[j]) for i in range(12) for j in range(i, 12)
    )
    assert np.isclose(val, acc / (2 * 12 * 13))


def test_walsh_two_point_hand_case():
    # xi = (0, 0) and s = 1: diagonal 2 * 2 * 2 phi(0;0,1), pair 4 phi(0;0,2)
    ds = Dataset(y=[1.0, -1.0], z=[1.0, -1.0], sigma_u=1.0)
    val = target_walsh(_ctx(ds, "walsh", 1.0), np.array([1.0]))[0]
    expected = (
        2 * 2 * (2 * float(normal_pdf(0, 0, 1))) + 4 * float(normal_pdf(0, 0, 2))
    ) / (2 * 2 * 3)
    assert np.isclose(val, expected)


def test_walsh_capacity_cap():
    n = 5001
    ds = Dataset(y=np.zeros(n), z=np.zeros((n, 1)), sigma_u=[[0.1]])
    with pytest.raises(CapacityError):
        target_walsh(_ctx(ds, "walsh", 0.0), np.array([0.0]))


def test_walsh_scaling_does_not_move_argmin():
    ds = _make_dataset(seed=22, n=40)
    ctx = _ctx(ds, "walsh", 1.0)
    scale = 2 * ds.n * (ds.n + 1)
    a = minimize(
        lambda th: target_walsh(ctx, th)[0],
        options=MinimizeOptions(start=np.array([0.0])),
    )
    b = minimize(
        lambda th: scale * target_walsh(ctx, th)[0],
        options=MinimizeOptions(start=np.array([0.0])),
    )
    assert abs(a.theta_hat[0] - b.theta_hat[0]) < 1e-7


def _pair_terms(x, s):
    """Smoothed |x| of a pair sum, as the pair objective first defined it."""
    if s == 0.0:
        return np.abs(x)
    return x * (2.0 * normal_cdf(x, 0.0, 2.0 * s) - 1.0) + 4.0 * s * normal_pdf(x, 0.0, 2.0 * s)


def _pairs_by_double_loop(xi, s):
    """Value, xi-gradient and s-derivative of the pair sum, pair by pair."""
    total, dxi, ds = 0.0, np.zeros(xi.size), 0.0
    for i in range(xi.size):
        x = xi[i] + xi[i + 1 :]  # every j > i
        total += float(np.sum(_pair_terms(x, s)))
        slope = np.sign(x) if s == 0.0 else 2.0 * normal_cdf(x, 0.0, 2.0 * s) - 1.0
        dxi[i] += slope.sum()
        dxi[i + 1 :] += slope
        if s > 0.0:
            ds += 2.0 * float(np.sum(normal_pdf(x, 0.0, 2.0 * s)))
    return total, dxi, ds


def _weights_by_double_loop(xi, s, cols):
    """W @ cols for the pair weights w_ij = 2 phi(xi_i + xi_j; 0, 2 s),
    i != j, pair by pair."""
    out = np.zeros(cols.shape)
    for i in range(xi.size):
        w = 2.0 * normal_pdf(xi[i] + xi[i + 1 :], 0.0, 2.0 * s)  # every j > i
        out[i] += w @ cols[i + 1 :]
        out[i + 1 :] += w[:, None] * cols[i]
    return out


def _pairs_full_minus_diagonal(xi, s):
    """The former formula: the full ordered double sum less its diagonal, halved."""
    full = _pair_terms(xi[:, None] + xi[None, :], s)
    return 0.5 * (float(np.sum(full)) - float(np.sum(_pair_terms(2.0 * xi, s))))


def test_softplus_matches_logaddexp():
    x = np.linspace(-750.0, 750.0, 300_001)
    np.testing.assert_allclose(_softplus(x), np.logaddexp(0.0, x), rtol=1e-15, atol=0.0)


# finite values of every scale, multiples of pi/4 and pi/2, signed zeros
# and subnormals
_ANGLES = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-50.0, 50.0),
    st.integers(-10**6, 10**6).map(lambda k: k * math.pi / 4),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.pi / 2, -math.pi, 1e300]),
)


@settings(max_examples=200, deadline=None)
@given(eta=st.lists(_ANGLES, min_size=1, max_size=40), stacked=st.booleans())
def test_trig_from_half_angle_tangent_matches_numpy(eta, stacked):
    eta = np.array(eta * 3 if stacked else eta)
    if stacked:
        eta = eta.reshape(3, -1)
    sin, cos, cos2 = targets._trig(eta)
    assert sin.shape == cos.shape == cos2.shape == eta.shape
    assert np.all(np.abs(sin - np.sin(eta)) <= 2.3e-16)
    assert np.all(np.abs(cos - np.cos(eta)) <= 2.3e-16)
    assert np.all(np.abs(cos2 - np.cos(2.0 * eta)) <= 8.9e-16)


def test_trig_of_nonfinite_angles_is_nan():
    with np.errstate(invalid="ignore"):
        parts = targets._trig(np.array([[np.inf, -np.inf, np.nan], [0.5, np.nan, 1.0]]))
    for part in parts:
        assert np.array_equal(np.isnan(part), [[True] * 3, [False, True, False]])


# (n, rows per block) of the walsh pair passes, the last two the default,
# STACK_CHUNK_VALUES // n rows per block
_PAIR_BLOCKS = [(1, 8), (8, 8), (9, 8), (21, 8), (1, 256), (256, 256), (257, 256), (549, 256),
                (500, None), (1200, None)]


@pytest.mark.parametrize("n,block", _PAIR_BLOCKS)
@pytest.mark.parametrize("s", [0.0, 0.3])
def test_walsh_upper_pairs_match_double_loop(n, block, s):
    xi = np.random.default_rng(n).standard_normal(n)
    total, dxi, ds = _pairs_by_double_loop(xi, s)
    got, got_dxi, got_ds = _walsh_pairs(xi, s, block=block)
    assert got == pytest.approx(total, rel=1e-12, abs=1e-300)
    assert got == pytest.approx(_pairs_full_minus_diagonal(xi, s), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(got_dxi, dxi, rtol=1e-12, atol=1e-12 * n)
    assert got_ds == pytest.approx(ds, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("n,block", _PAIR_BLOCKS)
def test_walsh_pair_weights_match_double_loop(n, block):
    rng = np.random.default_rng(n)
    xi = rng.standard_normal(n)
    cols = np.column_stack((np.ones(n), xi, rng.standard_normal((n, 2))))
    want = _weights_by_double_loop(xi, 0.3, cols)
    got = _walsh_weights(xi, 0.3, cols, block=block)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * n)


@pytest.mark.parametrize("n", [1, 200, 500, 1200])
def test_walsh_blocks_keep_their_temporaries_within_a_stack_chunk(monkeypatch, n):
    blocks = []
    upper_blocks = targets._upper_blocks

    def spying(xi, block):
        blocks.append(block)
        return upper_blocks(xi, block)

    monkeypatch.setattr(targets, "_upper_blocks", spying)
    _walsh_pairs(np.zeros(n), 0.3)
    assert blocks == [max(1, STACK_CHUNK_VALUES // n)]
    assert min(blocks[0], n) * n <= STACK_CHUNK_VALUES
    # the Hessian's pair pass holds one block rectangle of at most a stack
    # chunk, numpy's transient copy of it while adding, and O(n) vectors
    cols = np.ones((n, 3))
    _walsh_weights(np.zeros(n), 0.3, cols)  # untraced: lazy set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _walsh_weights(np.zeros(n), 0.3, cols)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (3 * STACK_CHUNK_VALUES + 16 * n)


def test_a_walsh_call_holds_no_pair_matrix_after_its_hessian():
    # n^2 = 4e6 pair values; a kernel call, its gradient and its Hessian,
    # all still referenced, hold O(n) values once they return
    n = 2000
    rng = np.random.default_rng(44)
    x = rng.standard_normal(n)
    ds = Dataset(y=x + rng.standard_normal(n), z=x + 0.5 * rng.standard_normal(n), sigma_u=0.25)
    ctx, th = _ctx(ds, "walsh", 0.5), np.array([0.8])
    target_walsh(ctx, th)[1].hessian()  # untraced: lazy set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value, grad = target_walsh(ctx, th)
        slope, curvature = grad(), grad.hessian()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert callable(grad.hessian) and curvature.shape == (1, 1) and slope.shape == (1,)
    assert held <= 8 * (2 * STACK_CHUNK_VALUES + 8 * n)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", [60, 300])
def test_walsh_hessian_matches_central_differences_of_the_gradient(p, n):
    # n = 60 is one block; n = 300 is six blocks of 54 rows, the last of 30
    assert n == 60 or n % (STACK_CHUNK_VALUES // n) == 30
    rng = np.random.default_rng(45 + p)
    sigma = 0.2 * np.eye(p) + 0.05  # correlated errors
    x = rng.standard_normal((n, p))
    z = x + rng.standard_normal((n, p)) @ np.linalg.cholesky(sigma).T
    y = x @ np.linspace(0.8, -0.4, p) + rng.standard_normal(n)
    ds = Dataset(y=y, z=z, sigma_u=sigma)
    th = np.linspace(0.7, -0.5, p)
    for lam in (0.05, 0.5, 2.0):
        ctx = _ctx(ds, "walsh", lam)
        h = targets.hessian(ctx, th)
        assert h.shape == (p, p) and np.array_equal(h, h.T)
        fd = np.array([
            finite_difference_gradient(lambda t: target_gradient(ctx, t)[i], th) for i in range(p)
        ])
        np.testing.assert_allclose(h, fd, rtol=1e-6, atol=1e-8 * np.abs(h).max(),
                                   err_msg=f"lam={lam}")


@settings(max_examples=100, deadline=None)
@given(xi=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=40),
       s=st.floats(0.01, 4.0), seed=st.integers(0, 2**32 - 1))
def test_walsh_s_slopes_are_the_s_differences_of_its_slopes(xi, s, seed):
    # each central difference in s, with step h, is checked to a millionth,
    # less a rounding term of 1e-13 times the size of what it differences,
    # over h
    xi = np.array(xi)
    n, h = xi.size, 1e-6 * s

    def near(diff, want, size):
        return abs(diff - want) <= 1e-6 * np.abs(want) + 1e-13 * (1.0 + size) / h

    # the pair sum: ds is the central difference in s of its total, and the
    # sum over the pairs of 2 phi(xi_i + xi_j; 0, 2 s)
    total, dxi, ds = _walsh_pairs(xi, s)
    (up, dxi_up, _), (down, dxi_down, _) = _walsh_pairs(xi, s + h), _walsh_pairs(xi, s - h)
    pairs = (xi[:, None] + xi[None, :])[np.triu_indices(n, 1)]
    assert ds == pytest.approx(float(np.sum(2.0 * normal_pdf(pairs, 0.0, 2.0 * s))), rel=1e-12)
    assert near((up - down) / (2.0 * h), ds, total)
    # its mixed slope, the s-derivative of its xi-gradient
    w = _walsh_weights(xi, s, np.column_stack((np.ones(n), xi)))
    mixed = -(xi * w[:, 0] + w[:, 1]) / (2.0 * s)
    assert np.all(near((dxi_up - dxi_down) / (2.0 * h), mixed, n))
    # the loss: its s-slope, mixed slope and second s-slope are the central
    # differences in s of its value, its eta-slope and its s-slope
    z = np.random.default_rng(seed).standard_normal((n, 2))
    ctx = _ctx(Dataset(y=xi, z=z, sigma_u=0.25 * np.eye(2)), "walsh", 1.0)
    eta = np.zeros(n)
    value, slopes, second = targets._walsh_loss(ctx, eta, s)
    (v_up, slopes_up), (v_down, slopes_down) = (targets._walsh_loss(ctx, eta, s + h)[:2],
                                               targets._walsh_loss(ctx, eta, s - h)[:2])
    (deta_up, ds_up), (deta_down, ds_down) = slopes_up(), slopes_down()
    deta, ds_loss = slopes()
    _, dx, dss, ds_second = second(True)
    assert ds_second == ds_loss
    assert near((v_up - v_down) / (2.0 * h), ds_loss, value)
    # the eta-slopes and dx are per row times n, as the kernel divides by n
    assert np.all(near((deta_up - deta_down) / (2.0 * h), dx, np.abs(deta).max()))
    assert near((ds_up - ds_down) / (2.0 * h), dss, ds_loss)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_walsh_signed_ranks_match_the_double_loop_with_ties(data):
    # a few values, their negatives and zero, drawn again and again, so that
    # ties, exact zeros and pairs with xi_j = -xi_i are common
    base = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
    pool = base + [-v for v in base] + [0.0]
    xi = np.array(data.draw(st.lists(st.one_of(st.sampled_from(pool), st.floats(-1e3, 1e3)),
                                     min_size=2, max_size=60)))
    got, got_dxi, got_ds = _walsh_pairs(xi, 0.0)
    total, _, _ = _pairs_by_double_loop(xi, 0.0)
    assert abs(got - total) <= 1e-13 * total
    pairs = np.sign(xi[:, None] + xi[None, :])
    assert np.array_equal(got_dxi, pairs.sum(axis=1) - np.diag(pairs))
    assert got_ds == 0.0


# --------------------------------------------------------------------------
# expectile
# --------------------------------------------------------------------------


def test_expectile_half_is_penalized_ls():
    ds = _make_dataset(seed=23)
    for lam in (-1.0, 0.0, 1.0):
        ctx = _ctx(ds, "expectile", lam, tau=0.5)
        th = np.array([0.6])
        xi = ds.y - ds.z[:, 0] * 0.6
        s = lam * 0.6 * ds.sigma_u[0, 0] * 0.6
        assert np.isclose(target_expectile(ctx, th)[0], 0.5 * np.mean(xi**2 + s))


def test_expectile_small_s_matches_asymmetric_ls():
    ds = _make_dataset(seed=24)
    tau = 0.7
    th = np.array([0.6])
    su = ds.sigma_u[0, 0]
    lam = 1e-10 / (0.36 * su)
    val = target_expectile(_ctx(ds, "expectile", lam, tau=tau), th)[0]
    xi = ds.y - ds.z[:, 0] * 0.6
    plain = np.mean(np.where(xi < 0, 1 - tau, tau) * xi**2)
    assert abs(val - plain) < 1e-6


# --------------------------------------------------------------------------
# generic least squares
# --------------------------------------------------------------------------


def test_generic_lambda_zero_residuals():
    ds = _make_dataset(seed=25)
    mf = MeanFunction(fn=lambda x, th: x @ th, n_params=1)
    model = ModelSpec(family="generic", mean_fn=mf)
    ctx = TargetContext(dataset=ds, model=model, lam=0.0)
    th = np.array([0.4])
    r = ds.y - ds.z @ th
    assert np.isclose(target_generic_ls(ctx, th)[0], np.mean(r**2))


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_generic_linear_mean_equals_linear_target(lam):
    ds = _make_dataset(seed=26, p=2)
    mf = MeanFunction(fn=lambda x, th: x @ th, n_params=2)
    gen = TargetContext(
        dataset=ds, model=ModelSpec(family="generic", mean_fn=mf), lam=lam
    )
    lin = TargetContext(
        dataset=ds, model=ModelSpec(family="linear", intercept=False), lam=lam
    )
    th = np.array([0.7, -0.3])
    assert abs(target_generic_ls(gen, th)[0] - target_linear(lin, th)[0]) < 1e-10


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_generic_exponential_mean_equals_exponential_target(lam):
    ds = _make_dataset(seed=27, family="exponential")
    mf = MeanFunction(fn=lambda x, th: np.exp(x @ th), n_params=1)
    gen = TargetContext(
        dataset=ds, model=ModelSpec(family="generic", mean_fn=mf), lam=lam
    )
    exp = _ctx(ds, "exponential", lam)
    th = np.array([0.8])
    assert abs(target_generic_ls(gen, th)[0] - target_exponential(exp, th)[0]) < 1e-8


def _generic_by_node_loop(ctx, theta):
    """The former objective: one mean-function call per tensor node."""
    d = ctx.dataset
    m = ctx.model.mean_fn.fn
    scale = math.sqrt(2.0) * math.sqrt(ctx.lam) * psd_factor(d.sigma_u)
    t, w = hermite_rule(GENERIC_TENSOR_NODES)
    acc = 0.0
    for combo in product(range(GENERIC_TENSOR_NODES), repeat=d.p):
        u = scale @ t[list(combo)]
        wt = math.prod(w[k] for k in combo)
        r = d.y - np.asarray(m(d.z + u, theta), dtype=float)
        acc += wt * float(r @ r)
    return acc / (d.n * math.pi ** (d.p / 2.0))


@pytest.mark.parametrize("p,n", [(1, 300), (2, 400), (3, 50)])
def test_generic_stacked_call_equals_node_loop(p, n):
    rng = np.random.default_rng(31 + p)
    z = rng.standard_normal((n, p))
    y = np.tanh(z.sum(axis=1)) + 0.1 * rng.standard_normal(n)
    su = 0.2 * np.eye(p) + 0.05  # correlated errors: a full Cholesky factor
    ds = Dataset(y=y, z=z, sigma_u=su)
    calls = []

    def fn(x, th):
        calls.append(x.shape[0])
        return th[0] + np.tanh(x @ th[1:])

    mf = MeanFunction(fn=fn, n_params=p + 1)
    ctx = TargetContext(dataset=ds, model=ModelSpec(family="generic", mean_fn=mf), lam=0.7)
    th = np.linspace(0.3, -0.4, p + 1)
    got = target_generic_ls(ctx, th)[0]
    nodes = GENERIC_TENSOR_NODES**p
    # stacked calls, each within the chunk budget, covering every node once
    assert sum(calls) == nodes * n
    assert len(calls) == -(-nodes // max(1, GENERIC_CHUNK_ROWS // n))
    assert got == pytest.approx(_generic_by_node_loop(ctx, th), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize(
    "fn",
    [lambda x, th: th[0] * x,  # (m, 1): one column, not one mean per row
     lambda x, th: th[0] * x[:5, 0],  # too few rows
     lambda x, th: th[0]],  # a scalar
)
def test_generic_mean_function_with_wrong_rows_is_a_config_error(fn, lam):
    ds = _make_dataset(seed=32)
    mf = MeanFunction(fn=fn, n_params=1)
    ctx = TargetContext(dataset=ds, model=ModelSpec(family="generic", mean_fn=mf), lam=lam)
    with pytest.raises(ConfigError, match="one mean per row"):
        target_generic_ls(ctx, np.array([0.5]))


def test_generic_capacity_cap():
    rng = np.random.default_rng(28)
    ds = Dataset(y=rng.standard_normal(5), z=rng.standard_normal((5, 4)),
                 sigma_u=0.1 * np.eye(4))
    mf = MeanFunction(fn=lambda x, th: x @ th, n_params=4)
    ctx = TargetContext(dataset=ds, model=ModelSpec(family="generic", mean_fn=mf), lam=0.5)
    with pytest.raises(CapacityError):
        target_generic_ls(ctx, np.zeros(4))


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("length", [3, 5])
def test_generic_refuses_theta_of_another_length(lam, length):
    ds = _make_dataset(seed=33)
    def curve(x, th):
        return th[0] + th[1] / (1.0 + np.exp(th[2] * (x[:, 0] - th[3])))

    sigmoid = MeanFunction(fn=curve, n_params=4)
    ctx = TargetContext(dataset=ds, model=ModelSpec(family="generic", mean_fn=sigmoid), lam=lam)
    with pytest.raises(ConfigError, match=f"theta has length {length}, expected 4"):
        target_generic_ls(ctx, np.ones(length))
    # without a declared count, any length the mean function takes is accepted
    free = MeanFunction(fn=lambda x, th: th.sum() * x[:, 0])
    ctx = TargetContext(dataset=ds, model=ModelSpec(family="generic", mean_fn=free), lam=lam)
    assert math.isfinite(target_generic_ls(ctx, np.ones(length))[0])


def _generic_case(p=1, n=60, lam=0.5, seed=34):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    y = np.tanh(z.sum(axis=1)) + 0.1 * rng.standard_normal(n)
    calls = []

    def fn(x, th):
        calls.append(x.shape[0])
        return th[0] + np.tanh(x @ th[1:])

    model = ModelSpec(family="generic", mean_fn=MeanFunction(fn=fn, n_params=p + 1))
    ds = Dataset(y=y, z=z, sigma_u=0.2 * np.eye(p) + 0.05)
    return TargetContext(dataset=ds, model=model, lam=lam), calls


def _count_designs(monkeypatch):
    """Count the generic design builds: each reads the tensor rule once."""
    builds = []
    rule = targets.tensor_hermite_rule

    def counted(*args):
        builds.append(args)
        return rule(*args)

    monkeypatch.setattr(targets, "tensor_hermite_rule", counted)
    return builds


def _fresh(ctx, lam=None, z=None):
    return TargetContext(dataset=ctx.dataset, model=ctx.model,
                         lam=ctx.lam if lam is None else lam, z=z)


def test_generic_gradient_builds_its_design_once(monkeypatch):
    ctx, calls = _generic_case()
    builds = _count_designs(monkeypatch)
    th = np.array([0.3, -0.4])
    target_gradient(ctx, th)
    # one value, then the 2q values of central differences, on one design
    assert len(calls) == 1 + 2 * th.size
    assert len(builds) == 1


def test_generic_kept_design_keeps_every_bit():
    ctx, _ = _generic_case(p=2, n=40)
    for th in np.random.default_rng(35).standard_normal((5, 3)):
        assert target_generic_ls(ctx, th)[0] == target_generic_ls(_fresh(ctx), th)[0]


def test_generic_copies_never_reuse_another_contexts_design(monkeypatch):
    ctx, _ = _generic_case()
    zs = ctx.z + 0.1 * np.random.default_rng(36).standard_normal((2,) + ctx.z.shape)
    stack = TargetContext(dataset=ctx.dataset, model=ctx.model, lam=ctx.lam, z=zs)
    th = np.array([0.2, 0.7])
    first, second = stack.take(0), stack.take(1)
    assert target_generic_ls(first, th)[0] == target_generic_ls(_fresh(ctx, z=zs[0]), th)[0]
    assert target_generic_ls(second, th)[0] == target_generic_ls(_fresh(ctx, z=zs[1]), th)[0]
    # copies of a context that keeps a design, at another lambda and on other surrogates
    at_other_lam = copy.copy(first)
    object.__setattr__(at_other_lam, "lam", 1.3)
    on_other_z = copy.copy(first)
    object.__setattr__(on_other_z, "z", zs[1])
    builds = _count_designs(monkeypatch)
    fresh = target_generic_ls(_fresh(ctx, 1.3, zs[0]), th)[0]
    assert target_generic_ls(at_other_lam, th)[0] == fresh
    assert target_generic_ls(on_other_z, th)[0] == target_generic_ls(_fresh(ctx, z=zs[1]), th)[0]
    assert len(builds) == 4
    # the context the design was built for still reuses it
    target_generic_ls(first, th)
    assert len(builds) == 4


def test_generic_design_of_more_than_one_chunk_is_not_kept(monkeypatch):
    ctx, calls = _generic_case(n=100)
    monkeypatch.setattr(targets, "GENERIC_CHUNK_ROWS", 500)
    builds = _count_designs(monkeypatch)
    th = np.array([0.3, -0.4])
    values = [target_generic_ls(ctx, th)[0] for _ in range(2)]
    # 15 nodes of 100 rows, 5 per chunk: three calls, and a new design, per value
    assert calls == [500] * 6
    assert len(builds) == 2
    assert "_generic_design" not in vars(ctx)
    assert values[0] == values[1] == target_generic_ls(_fresh(ctx), th)[0]


def _sshape_ctx(lam, n=80, seed=37):
    """The S-curve b0 + b1 / (1 + exp(b2 (x - b3))) on data drawn from it."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = 1.0 + 2.0 / (1.0 + np.exp(2.0 * (x - 0.2))) + 0.3 * rng.standard_normal(n)

    def fn(x, th):
        return th[0] + th[1] / (1.0 + np.exp(th[2] * (x[:, 0] - th[3])))

    model = ModelSpec(family="generic", mean_fn=MeanFunction(fn=fn, n_params=4))
    ds = Dataset(y=y, z=x + 0.5 * rng.standard_normal(n), sigma_u=0.25)
    return TargetContext(dataset=ds, model=model, lam=lam)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_generic_gradient_matches_central_differences_of_its_value(lam):
    ctx = _sshape_ctx(lam)
    rng = np.random.default_rng(38)
    for th in np.array([1.0, 2.0, 2.0, 0.2]) + 0.5 * rng.standard_normal((5, 4)):
        g = target_gradient(ctx, th)
        fd = finite_difference_gradient(lambda t: target_generic_ls(ctx, t)[0], th)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)


def _linear_in_theta(lam):
    """A mean function linear in theta and not in x, at p = 2: there the
    objective is quadratic in theta and Gauss-Newton is its Hessian."""
    rng = np.random.default_rng(39)
    z = rng.standard_normal((50, 2))
    y = 0.5 + np.tanh(z[:, 0]) - 0.3 * z[:, 1] ** 2 + 0.2 * rng.standard_normal(50)

    def fn(x, th):
        return th[0] + th[1] * np.tanh(x[:, 0]) + th[2] * x[:, 1] ** 2

    model = ModelSpec(family="generic", mean_fn=MeanFunction(fn=fn, n_params=3))
    ds = Dataset(y=y, z=z, sigma_u=np.array([[0.25, 0.05], [0.05, 0.2]]))
    return TargetContext(dataset=ds, model=model, lam=lam)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_generic_curvature_is_the_hessian_of_a_mean_linear_in_theta(lam):
    ctx = _linear_in_theta(lam)
    th = np.array([0.4, 0.8, -0.2])
    h = targets.hessian(ctx, th)
    # second central differences of the value, exact for a quadratic up to rounding
    step, eye = 1e-3, np.eye(3)

    def f(t):
        return target_generic_ls(ctx, t)[0]

    fd = np.array([[(f(th + step * (eye[j] + eye[k])) - f(th + step * (eye[j] - eye[k]))
                     - f(th - step * (eye[j] - eye[k])) + f(th - step * (eye[j] + eye[k])))
                    / (4.0 * step * step) for k in range(3)] for j in range(3)])
    np.testing.assert_allclose(h, fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_generic_curvature_is_symmetric_bit_for_bit_in_any_chunking(monkeypatch, lam):
    ctx = _linear_in_theta(lam)
    th = np.array([0.3, -0.7, 1.1])
    g, h = target_gradient(ctx, th), targets.hessian(ctx, th)
    assert np.array_equal(h, h.T)
    # 225 nodes of 50 rows, 10 per chunk: 23 chunks agree with one to rounding
    monkeypatch.setattr(targets, "GENERIC_CHUNK_ROWS", 500)
    chunked = TargetContext(dataset=ctx.dataset, model=ctx.model, lam=lam)
    hc = targets.hessian(chunked, th)
    assert np.array_equal(hc, hc.T)
    np.testing.assert_allclose(target_gradient(chunked, th), g, rtol=1e-12)
    np.testing.assert_allclose(hc, h, rtol=1e-12)


def test_generic_nonfinite_mean_gives_a_nonfinite_gradient():
    ctx = _sshape_ctx(0.5)
    fn = ctx.model.mean_fn.fn
    start = np.array([1.0, 2.0, 2.0, 0.2])

    def nan_off_start(x, th):
        return fn(x, th) if np.array_equal(th, start) else np.full(x.shape[0], np.nan)

    model = ModelSpec(family="generic", mean_fn=MeanFunction(fn=nan_off_start, n_params=4))
    off = TargetContext(dataset=ctx.dataset, model=model, lam=0.5)
    value, grad = target_generic_ls(off, start)
    assert math.isfinite(value) and np.isinf(grad()).all()


# --------------------------------------------------------------------------
# Monte Carlo oracle equivalence for every closed-form family
# --------------------------------------------------------------------------

_ORACLE_CASES = [
    ("linear", {}, {}),
    ("exponential", {}, {}),
    ("sine", {}, {}),
    ("poisson", {}, {}),
    ("logistic", {}, {}),
    ("lpre", {}, {}),
    ("lare", {}, {}),
    ("quantile", {"tau": 0.3}, {}),
    ("walsh", {}, {"n": 8}),
    ("expectile", {"tau": 0.7}, {}),
]


@pytest.mark.parametrize("family,model_kw,data_kw", _ORACLE_CASES)
def test_target_equals_mc_conditional_expectation(family, model_kw, data_kw):
    n = data_kw.get("n", 10)
    ds = _make_dataset(seed=sum(map(ord, family)), n=n, family=family)
    model = ModelSpec(family=family, **model_kw)
    rng = np.random.default_rng(29)
    for k in range(10):
        lam = float(rng.uniform(0.05, 2.0))
        theta = rng.normal(0.5, 0.3, model.n_params(ds.p))
        ctx = TargetContext(dataset=ds, model=model, lam=lam)
        val = target_value(ctx, theta)
        if family == "sine":
            val -= SINE_OFFSET
        mc, se = mc_conditional_expectation(
            model, ds, theta, lam, draws=60_000, seed=30 + k
        )
        assert abs(val - mc) <= 3.0 * se, (family, k, lam, val, mc, se)


# --------------------------------------------------------------------------
# stacked surrogates: every family with an analytic gradient
# --------------------------------------------------------------------------


def _mean_form(ctx, theta):
    """Value and gradient of linear, exponential or poisson in (eta, s),
    written with ``np.mean``: the reference that the kernels' ``sum / n``
    row means match bit for bit."""
    d, lam = ctx.dataset, ctx.lam
    th = np.asarray(theta, dtype=float)
    beta = th[1:] if ctx.model.has_intercept else th
    eta = float(th[0]) + d.z @ beta if ctx.model.has_intercept else d.z @ beta
    s = lam * float(beta @ d.sigma_u @ beta)
    family = ctx.model.family
    if family == "linear":
        r = d.y - eta
        value = float(r @ r) / d.n + s
        deta, ds = -2.0 * r, 1.0
    elif family == "exponential" and lam == 0.0:
        # the classical loss from the one residual r = y - e^eta
        e = np.exp(eta)
        r = d.y - e
        value = float(np.mean(r * r))
        deta, ds = -2.0 * e * r, 0.0
    elif family == "exponential":
        e1 = np.exp(eta + 0.5 * s)
        e2 = np.exp(2.0 * eta + 2.0 * s)
        value = float(np.mean(d.y * d.y - 2.0 * d.y * e1 + e2))
        deta, ds = 2.0 * (e2 - d.y * e1), 2.0 * np.mean(e2) - np.mean(d.y * e1)
    else:
        mu = np.exp(eta + 0.5 * s)
        value = -float(np.mean(d.y * eta - mu))
        deta, ds = mu - d.y, 0.5 * np.mean(mu)
    grad = d.z.T @ deta / d.n + ds * 2.0 * lam * (d.sigma_u @ beta)
    if ctx.model.has_intercept:
        grad = np.concatenate(([np.mean(deta)], grad))
    return value, grad


MEAN_FORM = [("linear", {}), ("linear", {"intercept": False}), ("exponential", {}), ("poisson", {})]
# every family but generic, whose user mean function has no analytic gradient
STACKED = MEAN_FORM + [
    ("sine", {}), ("logistic", {}), ("logistic", {"intercept": False}), ("lpre", {}),
    ("lare", {}), ("quantile", {"tau": 0.3}), ("walsh", {}), ("expectile", {"tau": 0.3}),
    ("expectile", {"tau": 0.5}),
]


def test_stacked_cases_cover_every_family_but_generic():
    assert {f for f, _ in STACKED} == set(FAMILIES) - {"generic"}


def _lams(model):
    """The noise levels the model admits, lambda = -1 only when pluggable."""
    return (0.0, 0.5, -1.0) if model.pluggable else (0.0, 0.5)


@pytest.mark.parametrize("family,kw", STACKED)
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_an_overflowing_theta_warns_nothing(family, kw, p, sign):
    # theta = +-1e308 overflows eta, the quadratic form and the losses; the
    # value, the gradient and the Hessian, where offered, warn nothing at any
    # admissible lambda (walsh at lam = 0 and n = 30 among them)
    ds = _make_dataset(seed=5, n=30, p=p, family=family)
    model = ModelSpec(family=family, **kw)
    theta = np.full(model.n_params(p), sign * 1e308)
    for lam in _lams(model):
        ctx = TargetContext(dataset=ds, model=model, lam=lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            target_value(ctx, theta)
            target_gradient(ctx, theta)
            if hasattr(FAMILIES[family].kernel(ctx, theta)[1], "hessian"):
                targets.hessian(ctx, theta)


def test_exponential_at_lambda_zero_keeps_the_digits_of_its_residuals():
    # y within 1e-3 of e^eta = 1e3: y^2 - 2 y e^eta + e^(2 eta) would cancel
    # to r^2 and lose most of its digits; the residual form keeps them.  z
    # times theta = 1 is exact, so the 50-digit reference takes eta = z.
    rng = np.random.default_rng(41)
    n = 50
    eta = math.log(1e3) + rng.uniform(-1e-3, 1e-3, n)
    y = np.exp(eta) + rng.uniform(-1e-3, 1e-3, n)
    ctx = _ctx(Dataset(y=y, z=eta[:, None], sigma_u=0.25), "exponential", 0.0)
    value, grad = target_exponential(ctx, np.array([1.0]))
    with mpmath.workdps(50):
        e = [mpmath.exp(mpmath.mpf(t)) for t in eta]
        r = [mpmath.mpf(yi) - ei for yi, ei in zip(y, e)]
        want_value = sum(ri * ri for ri in r) / n
        want_grad = sum(-2 * ri * ei * mpmath.mpf(t) for ri, ei, t in zip(r, e, eta)) / n
        assert abs((value - want_value) / want_value) <= 1e-9
        assert abs((grad()[0] - want_grad) / want_grad) <= 1e-9


@pytest.mark.parametrize("family,kw", MEAN_FORM)
@pytest.mark.parametrize("p", [1, 2])
def test_row_means_keep_the_mean_form_bits(family, kw, p):
    ds = _make_dataset(seed=7, n=500, p=p, family=family)
    for lam in (0.0, 0.5, -1.0):
        ctx = _ctx(ds, family, lam, **kw)
        theta = np.linspace(0.2, 0.6, ctx.model.n_params(p))
        value, grad = _mean_form(ctx, theta)
        assert target_value(ctx, theta) == value
        assert type(target_value(ctx, theta)) is float
        assert np.array_equal(target_gradient(ctx, theta), grad)


@pytest.mark.parametrize("family,kw", STACKED)
@pytest.mark.parametrize("p", [1, 2])
def test_stacked_rows_equal_their_own_objectives(family, kw, p):
    ds = _make_dataset(seed=8, n=60, p=p, family=family)
    rng = np.random.default_rng(9)
    zs = ds.z + 0.4 * rng.standard_normal((3, ds.n, p))
    model = ModelSpec(family=family, **kw)
    thetas = rng.uniform(0.1, 0.7, (3, model.n_params(p)))
    # no slope in row 1: its smoothing variance s is 0 at lam > 0, the others' is not
    thetas[1, int(model.has_intercept):] = 0.0
    for lam in _lams(model):
        stacked = TargetContext(dataset=ds, model=model, lam=lam, z=zs)
        values, finish = FAMILIES[family].kernel(stacked, thetas)
        grads = finish()
        assert values.shape == (3,) and grads.shape == thetas.shape
        for b in range(3):
            own = TargetContext(dataset=Dataset(y=ds.y, z=zs[b], sigma_u=ds.sigma_u),
                                model=model, lam=lam)
            value, grad = FAMILIES[family].kernel(own, thetas[b])
            assert type(value) is float and values[b] == value
            assert np.array_equal(grads[b], grad())


# the cases whose kernels state second slopes
CURVED = [(f, kw) for f, kw in STACKED
          if f in ("linear", "exponential", "sine", "poisson", "lpre") or kw.get("tau") == 0.5]


@pytest.mark.parametrize("family,kw", CURVED)
@pytest.mark.parametrize("p", [1, 2])
def test_stacked_hessian_rows_equal_their_own(family, kw, p):
    ds = _make_dataset(seed=8, n=60, p=p, family=family)
    sigma = np.array([[0.25, 0.05], [0.05, 0.2]])[:p, :p]
    ds = Dataset(y=ds.y, z=ds.z, sigma_u=sigma)
    rng = np.random.default_rng(9)
    zs = ds.z + 0.4 * rng.standard_normal((4, ds.n, p))
    ys = np.stack([ds.y] * 4)
    ys[1:] = ys[1:][:, rng.permutation(ds.n)]
    model = ModelSpec(family=family, **kw)
    thetas = rng.uniform(-0.7, 0.7, (4, model.n_params(p)))
    # no slope in row 1: its smoothing variance s is 0 at lam != 0, the others' is not
    thetas[1, int(model.has_intercept):] = 0.0
    for lam in _lams(model) + (2.0,):
        for y in (None, ys):
            stacked = TargetContext(dataset=ds, model=model, lam=lam, z=zs, y=y)
            for idx in (np.arange(4), np.array([0, 2, 3])):
                part = stacked if idx.size == 4 else stacked.take(idx)
                hs = targets.hessian(part, thetas[idx])
                assert hs.shape == (idx.size,) + 2 * thetas.shape[1:]
                for i, b in enumerate(idx):
                    own = TargetContext(dataset=ds, model=model, lam=lam, z=zs[b],
                                        y=None if y is None else ys[b])
                    alone = targets.hessian(own, thetas[b])
                    assert np.array_equal(hs[i], alone) and np.array_equal(alone, alone.T)


# the cases whose losses run set by set and state second slopes where they
# have curvature: logistic and expectile at every lambda, quantile, lare and
# walsh where s > 0
BY_SET_CURVED = [("logistic", {}), ("logistic", {"intercept": False}), ("lare", {}),
                 ("quantile", {"tau": 0.3}), ("expectile", {"tau": 0.3}), ("walsh", {})]


@pytest.mark.parametrize("family,kw", BY_SET_CURVED)
@pytest.mark.parametrize("p", [1, 2])
def test_set_by_set_hessian_rows_equal_their_own(family, kw, p):
    ds = _make_dataset(seed=8, n=60, p=p, family=family)
    sigma = np.array([[0.25, 0.05], [0.05, 0.2]])[:p, :p]
    ds = Dataset(y=ds.y, z=ds.z, sigma_u=sigma)
    rng = np.random.default_rng(9)
    zs = ds.z + 0.4 * rng.standard_normal((4, ds.n, p))
    ys = np.stack([ds.y] * 4)
    ys[1:] = ys[1:][:, rng.permutation(ds.n)]
    model = ModelSpec(family=family, **kw)
    thetas = rng.uniform(-0.7, 0.7, (4, model.n_params(p)))
    # no slope in row 1: its s is 0 at every lambda, where it offers no curvature
    thetas[1, int(model.has_intercept):] = 0.0
    offered = 0
    for lam in (0.0, 0.5, 2.0):
        for y in (None, ys):
            stacked = TargetContext(dataset=ds, model=model, lam=lam, z=zs, y=y)
            for idx in (np.arange(4), np.array([0, 2, 3]), np.array([1])):
                part = stacked if idx.size == 4 else stacked.take(idx)
                alone = []
                for b in idx:
                    own = TargetContext(dataset=ds, model=model, lam=lam, z=zs[b],
                                        y=None if y is None else ys[b])
                    try:
                        alone.append(targets.hessian(own, thetas[b]))
                    except ConfigError:
                        alone.append(None)
                if all(h is None for h in alone):
                    # a stack of sets without curvature offers none either
                    with pytest.raises(ConfigError, match="no analytic second slopes"):
                        targets.hessian(part, thetas[idx])
                    continue
                hs = targets.hessian(part, thetas[idx])
                assert hs.shape == (idx.size,) + 2 * thetas.shape[1:]
                for i, h in enumerate(alone):
                    # a NaN row where the set offers none, else its own bits
                    assert np.isnan(hs[i]).all() if h is None else np.array_equal(hs[i], h)
                    offered += h is not None
    # which sets offer curvature: all but row 1 at lambda > 0 (3 + 3 of the
    # rows above), and at lambda = 0 every row of logistic and expectile and
    # none of the others, for two lambdas > 0 and two kinds of responses
    smooth = family in ("logistic", "expectile")
    assert offered == 2 * 2 * (3 + 3) + (2 * (4 + 3 + 1) if smooth else 0)


@pytest.mark.parametrize("family,kw", STACKED)
def test_stacked_responses_equal_their_own_objectives(family, kw):
    model = ModelSpec(family=family, **kw)
    sets = [_make_dataset(seed=20 + b, n=50, p=2, family=family) for b in range(5)]
    zs, ys = np.stack([d.z for d in sets]), np.stack([d.y for d in sets])
    thetas = np.random.default_rng(10).uniform(0.1, 0.7, (5, model.n_params(2)))
    rows = np.array([0, 2, 3])  # a copy; rows 2 and 3 alone are a view
    for lam in _lams(model):
        stacked = TargetContext(dataset=sets[0], model=model, lam=lam, z=zs, y=ys)
        for idx in (np.arange(5), rows, rows[1:]):
            part = stacked if idx.size == 5 else stacked.take(idx)
            values, finish = FAMILIES[family].kernel(part, thetas[idx])
            grads = finish()
            for i, b in enumerate(idx):
                own = _ctx(sets[b], family, lam, **kw)
                assert values[i] == target_value(own, thetas[b])
                assert np.array_equal(grads[i], target_gradient(own, thetas[b]))
    shared = TargetContext(dataset=sets[0], model=model, lam=0.0, z=zs)
    view = shared.take(np.array([1, 2]))
    assert np.shares_memory(view.z, zs) and view.y is sets[0].y
    assert shared.take(np.arange(5)) is shared


_BY_SET = {("logistic", None), ("lare", None), ("quantile", 0.3), ("expectile", 0.3),
           ("walsh", None)}


@pytest.mark.parametrize("family,kw", STACKED)
def test_only_losses_that_branch_on_s_or_sum_pairs_run_set_by_set(monkeypatch, family, kw):
    calls = []

    def spy(kernel, ctx, theta):
        calls.append(theta.shape)
        return by_set(kernel, ctx, theta)

    by_set = targets._by_set
    monkeypatch.setattr(targets, "_by_set", spy)
    ds = _make_dataset(seed=11, n=40, p=2, family=family)
    model = ModelSpec(family=family, **kw)
    zs = ds.z + 0.3 * np.random.default_rng(12).standard_normal((3, ds.n, 2))
    thetas = np.full((3, model.n_params(2)), 0.4)
    values, finish = FAMILIES[family].kernel(
        TargetContext(dataset=ds, model=model, lam=0.5, z=zs), thetas)
    assert values.shape == (3,) and finish().shape == thetas.shape
    expected = [thetas.shape] if (family, kw.get("tau")) in _BY_SET else []
    assert calls == expected


@pytest.mark.parametrize("family,kw", STACKED)
def test_a_lambda_zero_call_forms_no_smoothing_term(monkeypatch, family, kw):
    ds = _make_dataset(seed=13, n=40, p=2, family=family)
    model = ModelSpec(family=family, **kw)
    rng = np.random.default_rng(14)
    zs = ds.z + 0.3 * rng.standard_normal((3, ds.n, 2))
    thetas = rng.uniform(0.1, 0.7, (3, model.n_params(2)))
    contexts = [(TargetContext(dataset=ds, model=model, lam=0.0, z=zs), thetas),
                (_ctx(ds, family, 0.0, **kw), thetas[0])]
    plain = [(FAMILIES[family].kernel(ctx, th)[1](), _curvature(ctx, th))
             for ctx, th in contexts]

    def refuse(ctx, beta):
        raise AssertionError("a lambda = 0 call formed beta' sigma_u beta")

    kernel = targets._kernel

    def nan_s_slope(ctx, theta, loss, per_set=False):
        # the loss's slope in s is NaN: a gradient that chained it would not be finite
        def wrapped(c, eta, s):
            value, slopes, *second = loss(c, eta, s)
            return (value, lambda: (slopes()[0], np.nan), *second)

        return kernel(ctx, theta, wrapped, per_set)

    monkeypatch.setattr(targets, "_quad", refuse)
    monkeypatch.setattr(targets, "_kernel", nan_s_slope)
    for (ctx, th), (grad, hess) in zip(contexts, plain):
        value, finish = FAMILIES[family].kernel(ctx, th)
        assert np.all(np.isfinite(value)) and np.array_equal(finish(), grad)
        h = _curvature(ctx, th)
        assert h is hess is None or np.array_equal(h, hess, equal_nan=True)


def _curvature(ctx, theta):
    """The Hessian where the family offers one, else None."""
    try:
        return targets.hessian(ctx, theta)
    except ConfigError:
        return None


def _classical(model, y, eta):
    """The plain classical loss of a non-generic family and its slope in
    eta, in plain numpy: the value, the size of the terms it sums, and the
    per-row slope of which the gradient is x' slope / n.  Walsh sums its
    pairs i <= j; every other family is a mean over rows.  Where a loss
    has a kink, the slope is the one-sided one of the data's side of it."""
    family, tau = model.family, model.tau
    if family == "walsh":
        n, pairs = y.size, (y - eta)[:, None] + (y - eta)[None, :]
        scale = 2.0 * n * (n + 1.0)
        total = 0.5 * (np.abs(pairs).sum() + np.abs(np.diag(pairs)).sum())
        slope = -(np.sign(pairs).sum(axis=1) + np.sign(y - eta)) * n / scale
        return total / scale, total / scale, slope
    if family in ("linear", "expectile", "quantile"):
        xi = y - eta
        weight = np.where(xi < 0, 1.0 - tau, tau) if family == "expectile" else 1.0
        if family == "quantile":
            loss, slope = xi * (tau - (xi < 0)), -(tau - (xi < 0.0))
        else:
            loss, slope = weight * xi * xi, -2.0 * weight * xi
    elif family in ("exponential", "sine"):
        mean = np.exp(eta) if family == "exponential" else np.sin(eta)
        dmean = mean if family == "exponential" else np.cos(eta)
        loss, slope = (y - mean) ** 2, -2.0 * (y - mean) * dmean
        if family == "sine":
            loss = loss + SINE_OFFSET
    elif family == "poisson":
        loss, slope = np.exp(eta) - y * eta, np.exp(eta) - y
    elif family == "logistic":
        loss, slope = np.logaddexp(0.0, eta) - y * eta, 1.0 / (1.0 + np.exp(-eta)) - y
    elif family == "lpre":
        loss, slope = y / np.exp(eta) + np.exp(eta) / y, np.exp(eta) / y - y / np.exp(eta)
    else:  # lare
        dev = y - np.exp(eta)
        loss = np.abs(dev) * (1.0 / y + 1.0 / np.exp(eta))
        slope = -np.sign(dev) * (np.exp(eta) / y + y / np.exp(eta))
    return float(np.mean(loss)), float(np.mean(np.abs(loss))), slope


@pytest.mark.parametrize("family,kw", STACKED + [("quantile", {"tau": 0.5})])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 60), p=st.integers(1, 2),
       data=st.data())
def test_lambda_zero_objectives_are_the_classical_losses(family, kw, seed, n, p, data):
    ds = _make_dataset(seed=seed, n=n, p=p, family=family)
    model = ModelSpec(family=family, **kw)
    theta = np.array(data.draw(st.lists(st.floats(-1.5, 1.5), min_size=model.n_params(p),
                                        max_size=model.n_params(p))))
    x = np.column_stack([np.ones(n), ds.z]) if model.has_intercept else ds.z
    value, size, slope = _classical(model, ds.y, x @ theta)
    got, finish = FAMILIES[family].kernel(_ctx(ds, family, 0.0, **kw), theta)
    assert abs(got - value) <= 1e-13 * size
    # each gradient entry against the size of the terms it sums
    sizes = np.abs(x).T @ np.abs(slope) / n
    assert np.all(np.abs(finish() - x.T @ slope / n) <= 1e-13 * sizes)


def test_stacked_surrogates_validation():
    ds = _make_dataset(n=10, family="linear")
    zs = np.zeros((3, 10, 1))
    # every family takes a stack
    assert TargetContext(dataset=ds, model=ModelSpec(family="sine"), lam=0.0, z=zs).z is zs
    for bad in (np.zeros((3, 9, 1)), np.zeros(10), np.zeros((3, 10, 2))):
        with pytest.raises(ConfigError, match="stacked surrogates have shape"):
            TargetContext(dataset=ds, model=ModelSpec(family="linear"), lam=0.0, z=bad)
    with pytest.raises(ConfigError, match=r"responses have shape \(3, 9\), expected \(3, 10\)"):
        TargetContext(dataset=ds, model=ModelSpec(family="linear"), lam=0.0, z=zs,
                      y=np.zeros((3, 9)))
    with pytest.raises(ConfigError, match=r"responses have shape \(10,\), expected \(3, 10\)"):
        TargetContext(dataset=ds, model=ModelSpec(family="linear"), lam=0.0, z=zs, y=ds.y)
    with pytest.raises(ModelMismatchError):
        TargetContext(dataset=ds, model=ModelSpec(family="poisson"), lam=0.0, z=zs,
                      y=np.full((3, 10), 0.5))
    with pytest.raises(ConfigError, match=r"surrogates have shape \(9, 1\), expected \(10, 1\)"):
        TargetContext(dataset=ds, model=ModelSpec(family="sine"), lam=0.0, z=np.zeros((9, 1)))
    assert _ctx(ds, "linear", 0.0).z is ds.z
    # one set of surrogates, shaped like the dataset's, suits every family
    one = np.ones((10, 1))
    assert TargetContext(dataset=ds, model=ModelSpec(family="sine"), lam=0.0, z=one).z is one
