"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of failing tests) and then asserts.  Monte Carlo checks use
fixed seeds, so outcomes are reproducible.
"""

import math
import time

import numpy as np
import pytest

from helpers import mc_conditional_expectation

from simexfree import (
    Dataset,
    EstimateConfig,
    GridEstimates,
    LambdaGrid,
    MinimizeOptions,
    ModelSpec,
    SimexConfig,
    TargetContext,
    classical_simex,
    density_product_factorize,
    direct_estimate,
    ex_estimate,
    extrapolate_to_minus_one,
    fit_extrapolant,
    linear_closed_form,
    linear_direct_asymptotic_variance,
    linear_exact_extrapolant,
    minimize,
    misspecification_study,
    quantile_lines_study,
    run_study,
    target_value,
)
from simexfree.extrapolate import extrapolation_se
from simexfree.montecarlo import Scenario, quantile_scenario
from simexfree.simex import _stream
from simexfree.targets import target_linear


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# --------------------------------------------------------------------------
# 1. univariate exponential study versus the published summary values
# --------------------------------------------------------------------------


def test_acceptance_01_exponential_study_reproduction():
    cells = {(200, 0.5): (1.085, 0.029), (500, 0.25): (1.033, 0.007),
             (800, 0.1): (1.013, 0.002)}
    scenarios = [
        Scenario(
            name=f"exp n={n} su2={s2:g}",
            model=ModelSpec(family="exponential"),
            theta0=np.array([1.0]),
            n=n,
            sigma_u=np.array([[s2]]),
        )
        for (n, s2) in cells
    ]
    t0 = time.perf_counter()
    results = run_study(scenarios, replications=500, seed=1)
    elapsed = time.perf_counter() - t0
    failures = []
    details = []
    for res, ((n, s2), (ref_mean, ref_mse)) in zip(results, cells.items()):
        mean = res.summary.mean[0]
        mse = res.summary.mse[0]
        details.append(f"(n={n},su2={s2:g}): mean={mean:.4f}/{ref_mean}"
                       f" mse={mse:.4f}/{ref_mse}")
        if abs(mean - ref_mean) > 0.02:
            failures.append(f"mean at (n={n},su2={s2:g}): {mean:.4f} vs "
                            f"{ref_mean} +-0.02")
        if abs(mse - ref_mse) > 0.4 * ref_mse:
            failures.append(f"mse at (n={n},su2={s2:g}): {mse:.4f} vs "
                            f"{ref_mse} +-40%")
    ok = not failures and elapsed < 600
    _report(1, ok, "; ".join(details) + f" [{elapsed:.0f}s]")
    assert elapsed < 600
    assert not failures, "; ".join(failures)


# --------------------------------------------------------------------------
# 2. bivariate exponential spot check
# --------------------------------------------------------------------------


def test_acceptance_02_bivariate_exponential_biases():
    ref = np.array([0.016, 0.024])
    s2 = 0.1
    scenario = Scenario(
        name="biv",
        model=ModelSpec(family="exponential"),
        theta0=np.array([0.5, 1.0]),
        n=800,
        sigma_u=np.array([[s2, 0.5 * s2], [0.5 * s2, s2]]),
    )
    t0 = time.perf_counter()
    res = run_study([scenario], replications=500, seed=1)[0]
    elapsed = time.perf_counter() - t0
    bias = res.summary.bias
    ok = bool(np.all(np.abs(bias - ref) <= 0.02)) and elapsed < 900
    _report(2, ok, f"biases=({bias[0]:.4f}, {bias[1]:.4f}) vs (0.016, 0.024) "
                   f"+-0.02 [{elapsed:.0f}s]")
    assert elapsed < 900
    assert np.all(np.abs(bias - ref) <= 0.02), bias


# --------------------------------------------------------------------------
# 3. linear closed form versus numeric minimization at lambda = -1
# --------------------------------------------------------------------------


def test_acceptance_03_linear_closed_form_oracle():
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(300 + k)
        p = 1 + k % 3
        n = 50
        x = rng.standard_normal((n, p))
        su = 0.15 * np.eye(p)
        z = x + rng.standard_normal((n, p)) @ np.linalg.cholesky(su).T
        beta0 = rng.normal(0, 1, p)
        y = 0.5 + x @ beta0 + rng.standard_normal(n)
        ds = Dataset(y=y, z=z, sigma_u=su)
        model = ModelSpec(family="linear")
        closed = linear_closed_form(ds, -1.0, intercept=True)
        ctx = TargetContext(dataset=ds, model=model, lam=-1.0)
        res = minimize(
            lambda th: target_linear(ctx, th)[0],
            options=MinimizeOptions(start=np.zeros(p + 1)),
        )
        worst = max(worst, float(np.max(np.abs(res.theta_hat - closed))))
    ok = worst < 1e-8
    _report(3, ok, f"max |numeric - closed form| = {worst:.2e} (tol 1e-8)")
    assert ok


# --------------------------------------------------------------------------
# 4. density product identity
# --------------------------------------------------------------------------


def _mvn_pdf(x, mean, cov):
    p = len(mean)
    d = x - mean
    sol = np.linalg.solve(cov, d)
    return math.exp(-0.5 * float(d @ sol)) / math.sqrt(
        (2 * math.pi) ** p * np.linalg.det(cov)
    )


def test_acceptance_04_density_product_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for draw in range(20):
        p = 1 + draw % 3
        mu1, mu2 = rng.standard_normal(p), rng.standard_normal(p)
        a, b = rng.standard_normal((p, p)), rng.standard_normal((p, p))
        cov1 = a @ a.T + 0.25 * np.eye(p)
        cov2 = b @ b.T + 0.25 * np.eye(p)
        fac = density_product_factorize(mu1, cov1, mu2, cov2)
        for _ in range(100):
            x = rng.standard_normal(p) * 1.5
            lhs = _mvn_pdf(x, mu1, cov1) * _mvn_pdf(x, mu2, cov2)
            worst = max(worst, abs(lhs - fac.density(x)) / max(1.0, abs(lhs)))
    ok = worst <= 1e-12
    _report(4, ok, f"max identity error = {worst:.2e} (tol 1e-12)")
    assert ok


# --------------------------------------------------------------------------
# 5. Monte Carlo oracle for the grid-path families
# --------------------------------------------------------------------------


def test_acceptance_05_conditional_expectation_oracles():
    rng = np.random.default_rng(5)
    cases = [
        ("quantile", {"tau": 0.3}, 10),
        ("expectile", {"tau": 0.7}, 10),
        ("walsh", {}, 8),
        ("lare", {}, 10),
        ("logistic", {}, 10),
    ]
    worst_z = 0.0
    for family, kw, n in cases:
        model = ModelSpec(family=family, **kw)
        x = rng.standard_normal(n)
        su = 0.25
        z = x + rng.normal(0, math.sqrt(su), n)
        if family == "logistic":
            y = (rng.random(n) < 1 / (1 + np.exp(-x))).astype(float)
        elif family == "lare":
            y = np.exp(0.8 * x) * np.exp(rng.normal(-0.125, 0.5, n))
        else:
            y = 1.5 * x + rng.standard_normal(n)
        ds = Dataset(y=y, z=z, sigma_u=su)
        for k in range(10):
            lam = float(rng.uniform(0.1, 2.0))
            theta = rng.normal(0.6, 0.4, model.n_params(ds.p))
            ctx = TargetContext(dataset=ds, model=model, lam=lam)
            val = target_value(ctx, theta)
            mc, se = mc_conditional_expectation(
                model, ds, theta, lam, draws=1_000_000, seed=50_000 + 100 * k
            )
            worst_z = max(worst_z, abs(val - mc) / se)
            assert abs(val - mc) <= 3.0 * se, (family, k, val, mc, se)
    _report(5, True, f"5 families x 10 points at 1e6 draws; max |z| = {worst_z:.2f} (tol 3)")


# --------------------------------------------------------------------------
# 6. exact extrapolant recovery
# --------------------------------------------------------------------------


def test_acceptance_06_exact_extrapolant_recovery():
    worst = 0.0
    for theta0, sx2, su2 in [(2.0, 1.0, 0.25), (-1.5, 1.0, 0.5), (0.7, 2.0, 0.3)]:
        g = linear_exact_extrapolant(theta0, sx2, su2)
        grid = LambdaGrid.default()
        ge = GridEstimates(grid=grid, thetas=np.asarray(g(grid.values))[:, None])
        fit = fit_extrapolant(ge, "rational")
        worst = max(worst, abs(extrapolate_to_minus_one(fit)[0] - theta0))
    ok = worst < 1e-6
    _report(6, ok, f"max |G(-1) - theta0| = {worst:.2e} (tol 1e-6)")
    assert ok


# --------------------------------------------------------------------------
# 7. slope of the exact extrapolant at lambda = -1
# --------------------------------------------------------------------------


def test_acceptance_07_extrapolant_slope_check():
    worst = 0.0
    params = [(1.0, 1.0, 0.25), (2.0, 1.0, 0.5), (-1.0, 2.0, 0.3),
              (0.5, 0.5, 0.1), (3.0, 1.5, 1.0)]
    h = 1e-3
    for theta0, sx2, su2 in params:
        g = linear_exact_extrapolant(theta0, sx2, su2)
        # fourth-order central stencil at lambda = -1
        d = (-g(-1 + 2 * h) + 8 * g(-1 + h) - 8 * g(-1 - h) + g(-1 - 2 * h)) / (12 * h)
        worst = max(worst, abs(d + su2 * theta0 / sx2))
    ok = worst < 1e-10
    _report(7, ok, f"max |g'(-1) + su2 theta0 / sx2| = {worst:.2e} (tol 1e-10)")
    assert ok


# --------------------------------------------------------------------------
# 8. asymptotic variance of the direct linear estimator
# --------------------------------------------------------------------------


def test_acceptance_08_linear_asymptotic_variance():
    theta0, sigma_eps2, su2, n, reps = 1.0, 1.0, 0.25, 2000, 1000
    target = linear_direct_asymptotic_variance(theta0, sigma_eps2, su2, ex2=1.0)
    assert np.isclose(target, 1.625)
    t0 = time.perf_counter()
    model = ModelSpec(family="linear", intercept=False)
    ests = np.empty(reps)
    for r in range(reps):
        rng = _stream(8, (0, r))
        x = rng.standard_normal(n)
        y = theta0 * x + rng.standard_normal(n)
        z = x + rng.normal(0, math.sqrt(su2), n)
        ds = Dataset(y=y, z=z, sigma_u=su2)
        ests[r] = direct_estimate(model, ds).theta_hat.coefficients[0]
    elapsed = time.perf_counter() - t0
    empirical = n * np.var(ests)
    rel = abs(empirical - target) / target
    ok = rel < 0.10 and elapsed < 300
    _report(8, ok, f"n var = {empirical:.3f} vs {target:.3f} "
                   f"(rel err {rel:.1%}, tol 10%) [{elapsed:.0f}s]")
    assert elapsed < 300
    assert rel < 0.10


# --------------------------------------------------------------------------
# 9. quantile slope improvement over the naive fit
# --------------------------------------------------------------------------


def test_acceptance_09_quantile_improvement():
    sc = quantile_scenario(n=500, sigma_u=0.5, tau=0.5)
    rows = quantile_lines_study(sc, taus=[0.5], seed=3, replications=100)
    by = {}
    for r in rows:
        by.setdefault(r.replication, {})[r.estimator] = r.slope
    wins = sum(
        1 for d in by.values()
        if abs(d["ex"] - d["oracle"]) < abs(d["naive"] - d["oracle"])
    )
    ok = wins >= 80
    _report(9, ok, f"corrected slope closer to oracle in {wins}/100 (need >= 80)")
    assert ok


# --------------------------------------------------------------------------
# 10. non-robustness under Laplace measurement error
# --------------------------------------------------------------------------


def test_acceptance_10_misspecification_non_robustness():
    biases = {("normal", 2000): [], ("normal", 8000): [],
              ("laplace", 2000): [], ("laplace", 8000): []}
    for seed in range(5):
        rep = misspecification_study(seed=seed, replications=200)
        for c in rep.cells:
            biases[(c.u_dist, c.n)].append(c.bias)
    avg = {k: float(np.mean(v)) for k, v in biases.items()}
    laplace_drift = abs(avg[("laplace", 8000)] - avg[("laplace", 2000)])
    laplace_ok = laplace_drift <= 0.3 * abs(avg[("laplace", 2000)])
    control_ok = abs(avg[("normal", 8000)]) <= 0.5 * abs(avg[("normal", 2000)])
    ok = laplace_ok and control_ok
    _report(
        10, ok,
        f"laplace bias {avg[('laplace', 2000)]:+.4f} -> "
        f"{avg[('laplace', 8000)]:+.4f} (persistent); control "
        f"{avg[('normal', 2000)]:+.4f} -> {avg[('normal', 8000)]:+.4f} (shrinks)",
    )
    assert laplace_ok, avg
    assert control_ok, avg


# --------------------------------------------------------------------------
# 11. agreement between the classical baseline and the corrected estimator
# --------------------------------------------------------------------------


def test_acceptance_11_cross_method_agreement():
    # linear family: one dataset, within 3 reported MC standard errors
    rng = np.random.default_rng(11)
    n = 500
    x = rng.standard_normal(n)
    y = 1.0 + 1.5 * x + rng.standard_normal(n)
    z = x + rng.normal(0, 0.5, n)
    ds = Dataset(y=y, z=z, sigma_u=0.25)
    model = ModelSpec(family="linear")
    sim = classical_simex(model, ds, SimexConfig(b=100, kind="rational", seed=11))
    ex = direct_estimate(model, ds)
    se = extrapolation_se(sim.extrapolant, sim.grid.grid.values, sim.mc_se)
    diff = np.abs(sim.theta_hat.flat_vector - ex.theta_hat.flat_vector)
    linear_ok = bool(np.all(diff <= 3.0 * np.maximum(se, 1e-12)))

    # exponential design: mean absolute difference below 0.05 over 100 reps
    model_e = ModelSpec(family="exponential")
    diffs = []
    for r in range(100):
        rng = _stream(17, (0, r))
        xe = rng.standard_normal(500)
        ye = np.exp(xe) + rng.standard_normal(500)
        ze = xe + rng.normal(0, 0.5, 500)
        dse = Dataset(y=ye, z=ze, sigma_u=0.25)
        c = classical_simex(
            model_e, dse, SimexConfig(b=100, kind="rational", seed=100 + r)
        ).theta_hat.coefficients[0]
        e = ex_estimate(model_e, dse).theta_hat.coefficients[0]
        diffs.append(abs(c - e))
    mean_diff = float(np.mean(diffs))
    exp_ok = mean_diff < 0.05
    ok = linear_ok and exp_ok
    _report(
        11, ok,
        f"linear max |diff|/3se = {float(np.max(diff / (3 * se))):.2f} (need <= 1); "
        f"exponential mean |diff| = {mean_diff:.4f} (need < 0.05)",
    )
    assert linear_ok, (diff, se)
    assert exp_ok, mean_diff


# --------------------------------------------------------------------------
# 12. coarse speed claim
# --------------------------------------------------------------------------


def test_acceptance_12_speed_ratio():
    rng = np.random.default_rng(12)
    n = 500
    x = rng.standard_normal(n)
    y = np.exp(x) + rng.standard_normal(n)
    z = x + rng.normal(0, 0.5, n)
    ds = Dataset(y=y, z=z, sigma_u=0.25)
    model = ModelSpec(family="exponential")
    grid = LambdaGrid.default()
    t0 = time.perf_counter()
    classical_simex(model, ds, SimexConfig(b=100, grid=grid, kind="rational", seed=12))
    t_classical = time.perf_counter() - t0
    t0 = time.perf_counter()
    ex_estimate(model, ds, EstimateConfig(grid=grid))
    t_ex = time.perf_counter() - t0
    ratio = t_classical / max(t_ex, 1e-9)
    ok = ratio >= 3.0
    _report(12, ok, f"classical/ex time ratio = {ratio:.0f}x (need >= 3x)")
    assert ok
