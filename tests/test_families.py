"""Table-driven checks: every family's record agrees with what the package does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simexfree import (
    ConfigError,
    Dataset,
    MeanFunction,
    ModelMismatchError,
    ModelSpec,
    Scenario,
    TargetContext,
    classical_simex,
    ex_estimate,
    simulate_dataset,
    target_gradient,
    target_value,
)
from simexfree import optimize, targets
from simexfree.optimize import finite_difference_gradient
from simexfree.simex import _stream
from simexfree.targets import FAMILIES

_LINE = MeanFunction(fn=lambda x, th: th[0] + th[1] * x[:, 0], n_params=2)


def _model(name, tau=0.3, **kw):
    if name == "generic":
        return ModelSpec(family=name, mean_fn=_LINE, **kw)
    return ModelSpec(family=name, tau=tau if FAMILIES[name].tau else None, **kw)


def _dataset(name, n=40, seed=0):
    """Data from the family's own simulator (the linear one for generic)."""
    sim = "linear" if name == "generic" else name
    theta0 = [0.0, 0.5] if _model(sim).has_intercept else [0.5]
    sc = Scenario(name=sim, model=_model(sim), theta0=theta0, n=n, sigma_u=[[0.25]])
    return simulate_dataset(sc, _stream(seed, (0,)))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_model_spec_tau_and_intercept_follow_the_table(name):
    fam = FAMILIES[name]
    model = _model(name)
    assert model.has_intercept == fam.intercept
    extra = {"mean_fn": _LINE} if name == "generic" else {}
    if fam.tau:
        with pytest.raises(ConfigError, match="requires tau"):
            ModelSpec(family=name, **extra)
    else:
        with pytest.raises(ConfigError, match="does not take tau"):
            ModelSpec(family=name, tau=0.3, **extra)
    if fam.intercept:
        assert not _model(name, intercept=False).has_intercept
    else:
        with pytest.raises(ConfigError, match="intercept"):
            _model(name, intercept=True)


@pytest.mark.parametrize(
    "name,tau",
    [(name, 0.3) for name in FAMILIES] + [("expectile", 0.5), ("quantile", 0.5)],
)
def test_minus_one_accepted_exactly_when_pluggable(name, tau):
    model = _model(name, tau=tau)
    ds = _dataset(name)
    assert model.pluggable == (FAMILIES[name].pluggable or (name, tau) == ("expectile", 0.5))
    if model.pluggable:
        ctx = TargetContext(dataset=ds, model=model, lam=-1.0)
        assert np.isfinite(target_value(ctx, np.full(model.n_params(ds.p), 0.3)))
    else:
        with pytest.raises(ConfigError, match="forbids negative"):
            TargetContext(dataset=ds, model=model, lam=-1.0)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_every_family_but_generic_simulates(name):
    if name == "generic":
        sc = Scenario(name="g", model=_model(name), theta0=[0.5], n=5, sigma_u=[[0.25]])
        with pytest.raises(ConfigError, match="no data-generating mechanism"):
            simulate_dataset(sc, _stream(0, (0,)))
        return
    ds = _dataset(name, n=60)
    assert ds.n == 60 and ds.p == 1
    assert np.all(np.isfinite(ds.y))
    _model(name).validate_y(ds.y)


@pytest.mark.parametrize("name", list(FAMILIES))
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
)
def test_objective_invariant_to_row_order(name, seed, theta):
    model = _model(name)
    ds = _dataset(name, n=30)
    perm = np.random.default_rng(seed).permutation(ds.n)
    shuffled = Dataset(y=ds.y[perm], z=ds.z[perm], sigma_u=ds.sigma_u)
    th = np.asarray(theta[: model.n_params(ds.p)])
    for lam in (0.0, 0.5) + ((-1.0,) if model.pluggable else ()):
        a = target_value(TargetContext(dataset=ds, model=model, lam=lam), th)
        b = target_value(TargetContext(dataset=shuffled, model=model, lam=lam), th)
        assert a == b or np.isclose(a, b, rtol=1e-12, atol=1e-12), (lam, a, b)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,bad", [("lpre", -1.0), ("lpre", 0.0), ("lare", -2.0),
                                      ("poisson", -1.0)])
def test_invalid_responses_raise_before_any_start(name, bad):
    rng = np.random.default_rng(0)
    y = np.array([1.0, 2.0, bad, 3.0, 1.0, 2.0])
    ds = Dataset(y=y, z=rng.standard_normal(y.size), sigma_u=0.25)
    with pytest.raises(ModelMismatchError, match=f"{name} family requires"):
        ex_estimate(ModelSpec(family=name), ds)
    with pytest.raises(ModelMismatchError):
        classical_simex(ModelSpec(family=name), ds)


def test_logistic_without_intercept_estimates():
    ds = _dataset("logistic", n=200)
    res = ex_estimate(ModelSpec(family="logistic", intercept=False), ds)
    assert res.theta_hat.intercept is None
    assert res.theta_hat.coefficients.shape == (1,)
    assert np.all(np.isfinite(res.theta_hat.coefficients))


def test_no_family_differentiates_its_objective_numerically(monkeypatch):
    # every kernel finishes its own gradient; generic's differentiates the
    # mean function, not the objective
    numeric = []

    def recording(f, theta, h=None):
        numeric.append(current)
        return finite_difference_gradient(f, theta, h)

    monkeypatch.setattr(optimize, "finite_difference_gradient", recording)
    for current in FAMILIES:
        model = _model(current)
        ds = _dataset(current)
        ctx = TargetContext(dataset=ds, model=model, lam=0.5)
        assert callable(FAMILIES[current].kernel(ctx, np.full(model.n_params(ds.p), 0.3))[1])
        g = target_gradient(ctx, np.full(model.n_params(ds.p), 0.3))
        assert g.shape == (model.n_params(ds.p),) and np.all(np.isfinite(g))
    assert numeric == []


_GRADIENT_CASES = [
    (name, 0.3, None) for name in FAMILIES if name != "generic"
] + [("expectile", 0.5, None), ("quantile", 0.7, None), ("logistic", None, False)]


@pytest.mark.parametrize("name,tau,intercept", _GRADIENT_CASES)
@settings(max_examples=10, deadline=None)
@given(
    size=st.lists(st.floats(0.2, 1.2), min_size=2, max_size=2),
    negative=st.lists(st.booleans(), min_size=2, max_size=2),
)
def test_analytic_gradient_matches_central_differences(name, tau, intercept, size, negative):
    # |theta_j| >= 0.2 keeps the smoothing variance of the non-smooth
    # families well above the finite-difference step
    model = _model(name, tau=tau, intercept=intercept)
    ds = _dataset(name)
    q = model.n_params(ds.p)
    th = np.where(negative, -np.asarray(size), np.asarray(size))[:q]
    lams = [0.5, 2.0]
    lams += [0.0] if FAMILIES[name].smooth_at_zero else []
    lams += [-1.0] if model.pluggable else []
    for lam in lams:
        ctx = TargetContext(dataset=ds, model=model, lam=lam)
        value = target_value(ctx, th)
        g = target_gradient(ctx, th)
        fd = finite_difference_gradient(lambda t: target_value(ctx, t), th)
        np.testing.assert_allclose(
            g, fd, rtol=1e-5, atol=1e-6 * (1.0 + abs(value)), err_msg=f"lam={lam}"
        )


# the families whose kernels state second slopes, with and without an intercept
_NEWTON_CASES = [("linear", None, None), ("linear", None, False), ("exponential", None, None),
                 ("sine", None, None), ("poisson", None, None), ("lpre", None, None),
                 ("expectile", 0.5, None), ("expectile", 0.3, None), ("logistic", None, None),
                 ("logistic", None, False), ("quantile", 0.5, None), ("quantile", 0.3, None),
                 ("lare", None, None)]


def _curved_lams(model):
    """The noise levels of a Newton case where its loss has curvature: the
    grid-only families skip lambda = -1, and quantile and lare, whose losses
    have a kink at s = 0, skip lambda = 0 too."""
    lams = (0.5, 2.0) if model.family in ("quantile", "lare") else (0.0, 0.5, 2.0)
    return lams + ((-1.0,) if model.pluggable else ())


def test_newton_cases_are_the_families_with_second_slopes():
    curved = set()
    for name in FAMILIES:
        for tau in (0.5, 0.3) if FAMILIES[name].tau else (None,):
            model = _model(name, tau=tau)
            ds = _dataset(name)
            ctx = TargetContext(dataset=ds, model=model, lam=0.5)
            th = np.full(model.n_params(ds.p), 0.3)
            if hasattr(FAMILIES[name].kernel(ctx, th)[1], "hessian"):
                curved.add((name, tau))
            else:
                with pytest.raises(ConfigError, match="no analytic second slopes"):
                    targets.hessian(ctx, th)
    # generic's Gauss-Newton curvature is tested in test_targets
    assert curved == {(name, tau) for name, tau, _ in _NEWTON_CASES} | {("generic", None)}
    # quantile and lare have a kink at s = 0, so none at lambda = 0
    for name, tau in (("quantile", 0.5), ("quantile", 0.3), ("lare", None)):
        model = _model(name, tau=tau)
        ctx = TargetContext(dataset=_dataset(name), model=model, lam=0.0)
        with pytest.raises(ConfigError, match="no analytic second slopes"):
            targets.hessian(ctx, np.full(model.n_params(1), 0.3))


def _two_covariates(name, n=40, seed=5):
    """Data from the family's simulator at p = 2, with a correlated sigma_u."""
    rng = np.random.default_rng(seed)
    sigma = np.array([[0.25, 0.05], [0.05, 0.2]])
    x = rng.standard_normal((n, 2))
    z = x + rng.standard_normal((n, 2)) @ np.linalg.cholesky(sigma).T
    eta = x @ np.array([0.5, -0.3])
    y = FAMILIES[name].simulate(eta, lambda: 0.3 * rng.standard_normal(n), rng)
    return Dataset(y=y, z=z, sigma_u=sigma)


@pytest.mark.parametrize("name,tau,intercept", _NEWTON_CASES)
@pytest.mark.parametrize("p", [1, 2])
@settings(max_examples=10, deadline=None)
@given(
    size=st.lists(st.floats(0.2, 1.2), min_size=3, max_size=3),
    negative=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_analytic_hessian_matches_central_differences_of_the_gradient(
    name, tau, intercept, p, size, negative
):
    model = _model(name, tau=tau, intercept=intercept)
    ds = _dataset(name) if p == 1 else _two_covariates(name)
    q = model.n_params(ds.p)
    th = np.where(negative, -np.asarray(size), np.asarray(size))[:q]
    for lam in _curved_lams(model):
        ctx = TargetContext(dataset=ds, model=model, lam=lam)
        h = targets.hessian(ctx, th)
        assert h.shape == (q, q) and np.array_equal(h, h.T)
        fd = np.array([
            finite_difference_gradient(lambda t: target_gradient(ctx, t)[i], th) for i in range(q)
        ])
        np.testing.assert_allclose(
            h, fd, rtol=1e-5, atol=1e-6 * (1.0 + np.abs(h).max()), err_msg=f"lam={lam}"
        )
