"""Closed-form conditional-expectation objectives for every family."""

import math

import numpy as np
import pytest
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
from simexfree.gaussian import hermite_rule, normal_cdf
from simexfree.optimize import finite_difference_gradient
from simexfree.targets import (
    FAMILIES,
    GENERIC_CHUNK_ROWS,
    GENERIC_TENSOR_NODES,
    WALSH_BLOCK,
    _softplus,
    _walsh_pairs,
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


def _pairs_full_minus_diagonal(xi, s):
    """The former formula: the full ordered double sum less its diagonal, halved."""
    full = _pair_terms(xi[:, None] + xi[None, :], s)
    return 0.5 * (float(np.sum(full)) - float(np.sum(_pair_terms(2.0 * xi, s))))


def test_softplus_matches_logaddexp():
    x = np.linspace(-750.0, 750.0, 300_001)
    np.testing.assert_allclose(_softplus(x), np.logaddexp(0.0, x), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "n,block",
    [(1, 8), (8, 8), (9, 8), (21, 8),
     (1, WALSH_BLOCK), (WALSH_BLOCK, WALSH_BLOCK), (WALSH_BLOCK + 1, WALSH_BLOCK),
     (2 * WALSH_BLOCK + 37, WALSH_BLOCK)],
)
@pytest.mark.parametrize("s", [0.0, 0.3])
def test_walsh_upper_pairs_match_double_loop(n, block, s):
    xi = np.random.default_rng(n).standard_normal(n)
    total, dxi, ds = _pairs_by_double_loop(xi, s)
    got, got_dxi, got_ds = _walsh_pairs(xi, s, block=block)
    assert got == pytest.approx(total, rel=1e-12, abs=1e-300)
    assert got == pytest.approx(_pairs_full_minus_diagonal(xi, s), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(got_dxi, dxi, rtol=1e-12, atol=1e-12 * n)
    assert got_ds == pytest.approx(ds, rel=1e-12, abs=1e-300)


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
# stacked surrogates: the batched families
# --------------------------------------------------------------------------


def _mean_form(ctx, theta):
    """Value and gradient of a batched family written with ``np.mean``: the
    reference that the kernels' ``sum / n`` row means match bit for bit."""
    d, lam = ctx.dataset, ctx.lam
    th = np.asarray(theta, dtype=float)
    family = ctx.model.family
    if family == "linear":
        alpha, beta = (float(th[0]), th[1:]) if ctx.model.has_intercept else (0.0, th)
        r = d.y - alpha - d.z @ beta
        value = float(r @ r) / d.n + lam * float(beta @ d.sigma_u @ beta)
        grad = (-2.0 / d.n) * (d.z.T @ r) + 2.0 * lam * (d.sigma_u @ beta)
        if ctx.model.has_intercept:
            grad = np.concatenate(([-2.0 * float(np.mean(r))], grad))
        return value, grad
    su_t = d.sigma_u @ th
    zt = d.z @ th
    if family == "exponential":
        quad = float(th @ d.sigma_u @ th)
        e1 = np.exp(zt + 0.5 * lam * quad)
        e2 = np.exp(2.0 * zt + 2.0 * lam * quad)
        value = float(np.mean(d.y * d.y - 2.0 * d.y * e1 + e2))
        quad = float(th @ su_t)
        e1 = np.exp(zt + 0.5 * lam * quad)
        e2 = np.exp(2.0 * zt + 2.0 * lam * quad)
        ye1 = d.y * e1
        grad = (
            -2.0 * (d.z.T @ ye1 / d.n + lam * su_t * float(np.mean(ye1)))
            + 2.0 * d.z.T @ e2 / d.n
            + 4.0 * lam * su_t * float(np.mean(e2))
        )
        return value, grad
    quad = float(th @ d.sigma_u @ th)
    value = -float(np.mean(d.y * zt - np.exp(zt + 0.5 * lam * quad)))
    mu = np.exp(zt + 0.5 * lam * float(th @ su_t))
    grad = -(d.z.T @ (d.y - mu)) / d.n + lam * su_t * float(np.mean(mu))
    return value, grad


BATCHED = [("linear", {}), ("linear", {"intercept": False}), ("exponential", {}), ("poisson", {})]


def test_batched_families_are_the_table_entries():
    assert sorted(f for f, rec in FAMILIES.items() if rec.batched) == [
        "exponential", "linear", "poisson",
    ]


@pytest.mark.parametrize("family,kw", BATCHED)
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


@pytest.mark.parametrize("family,kw", BATCHED)
@pytest.mark.parametrize("p", [1, 2])
def test_stacked_rows_equal_their_own_objectives(family, kw, p):
    ds = _make_dataset(seed=8, n=60, p=p, family=family)
    rng = np.random.default_rng(9)
    zs = ds.z + 0.4 * rng.standard_normal((4, ds.n, p))
    model = ModelSpec(family=family, **kw)
    thetas = rng.uniform(0.1, 0.7, (4, model.n_params(p)))
    for lam in (0.0, 0.5, -1.0):
        stacked = TargetContext(dataset=ds, model=model, lam=lam, z=zs)
        values = target_value(stacked, thetas)
        grads = target_gradient(stacked, thetas)
        assert values.shape == (4,) and grads.shape == thetas.shape
        for b in range(4):
            own = TargetContext(dataset=Dataset(y=ds.y, z=zs[b], sigma_u=ds.sigma_u),
                                model=model, lam=lam)
            assert values[b] == target_value(own, thetas[b])
            assert np.array_equal(grads[b], target_gradient(own, thetas[b]))


def test_stacked_surrogates_validation():
    ds = _make_dataset(n=10, family="linear")
    zs = np.zeros((3, 10, 1))
    with pytest.raises(ConfigError, match="no stacked surrogates"):
        TargetContext(dataset=ds, model=ModelSpec(family="sine"), lam=0.0, z=zs)
    for bad in (np.zeros((3, 9, 1)), np.zeros(10), np.zeros((3, 10, 2))):
        with pytest.raises(ConfigError, match="stacked surrogates have shape"):
            TargetContext(dataset=ds, model=ModelSpec(family="linear"), lam=0.0, z=bad)
    with pytest.raises(ConfigError, match=r"surrogates have shape \(9, 1\), expected \(10, 1\)"):
        TargetContext(dataset=ds, model=ModelSpec(family="sine"), lam=0.0, z=np.zeros((9, 1)))
    assert _ctx(ds, "linear", 0.0).z is ds.z
    # one set of surrogates, shaped like the dataset's, suits every family
    one = np.ones((10, 1))
    assert TargetContext(dataset=ds, model=ModelSpec(family="sine"), lam=0.0, z=one).z is one
