"""Bias-corrected estimation by direct plug-in or lambda-grid extrapolation.

Pluggable families are estimated by a single minimization of their objective
at lambda = -1.  For the remaining families the objective is minimized over
a grid of nonnegative lambda values, a parametric trend is fitted to the
grid estimates, and the trend is evaluated at lambda = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .errors import (
    BranchCollapseError,
    ConfigError,
    EstimationError,
    GridConvergenceError,
    IllPosedError,
    PoleError,
)
from .optimize import MinimizeOptions, MinimizeResult, minimize
from .targets import ModelSpec, TargetContext, Theta, naive_start
# not called here: the benchmark's tracer (perfbench/tracing.py) patches
# these names in this module, so they stay importable from it
from .targets import target_gradient, target_value  # noqa: F401

# polynomial extrapolants by degree; the rational one is a + b / (c + lam)
_DEGREE = {"linear": 1, "quadratic": 2}
EXTRAPOLANT_KINDS = (*_DEGREE, "rational")

# Nonsmooth lambda = 0 objectives get a tighter, longer simplex search so the
# naive grid point is as accurate as the smooth quasi-Newton points.
_SIMPLEX_MAX_ITERS = 10000
_SIMPLEX_STEP_TOL = 1e-9


@dataclass(frozen=True)
class LambdaGrid:
    """Strictly increasing noise levels 0 = lam_1 < ... < lam_K."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size < 2:
            raise ConfigError("grid needs at least two lambda values")
        if not np.all(np.isfinite(v)):
            raise ConfigError("grid values must be finite")
        if v[0] != 0.0:
            raise ConfigError("grid must start at lambda = 0")
        if np.any(np.diff(v) <= 0):
            raise ConfigError("grid values must be strictly increasing")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.size

    @classmethod
    def default(cls) -> "LambdaGrid":
        """21 equally spaced values on [0, 2]."""
        return cls(np.linspace(0.0, 2.0, 21))


@dataclass
class GridEstimates:
    """Per-lambda minimizers (rows of ``thetas``) with optimizer diagnostics."""

    grid: LambdaGrid
    thetas: np.ndarray
    diagnostics: list[MinimizeResult] | None = None


@dataclass
class FittedExtrapolant:
    """Per-coordinate trend fits G(lam) of a given kind.

    ``gamma_hat`` has one row of coefficients per theta coordinate:
    (a, b) for the linear trend a + b lam, (a, b, c) for the quadratic
    a + b lam + c lam^2, and (a, b, c) for the rational a + b / (c + lam).
    ``rss`` is the per-coordinate residual sum of squares.
    """

    kind: str
    gamma_hat: np.ndarray
    rss: np.ndarray


@dataclass
class EstimateResult:
    """Final estimate at lambda = -1 with the path that produced it.

    ``mc_se`` is populated only by the classical simulation baseline and
    holds the per-lambda Monte Carlo standard errors of the averaged grid
    estimates.
    """

    theta_hat: Theta
    path: str
    kind: str | None
    naive: Theta
    grid: GridEstimates | None = None
    extrapolant: FittedExtrapolant | None = None
    mc_se: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass
class EstimateConfig:
    """Grid, extrapolant kind, and optimizer settings of every estimator.

    :func:`naive_estimate`, :func:`direct_estimate`, :func:`grid_estimate`,
    :func:`ex_estimate` and ``classical_simex`` all take ``(model, dataset,
    config)``; each reads the settings its path uses.  ``start`` overrides
    the family's default initial point for the first (naive) minimization;
    later grid points warm-start from their neighbor.
    """

    grid: LambdaGrid = field(default_factory=LambdaGrid.default)
    kind: str = "quadratic"
    options: MinimizeOptions | None = None
    force_grid: bool = False
    nodes: int = 30
    start: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in EXTRAPOLANT_KINDS:
            raise ConfigError(
                f"unknown extrapolant kind {self.kind!r}; expected one of "
                f"{EXTRAPOLANT_KINDS}"
            )

    def start_for(self, model: ModelSpec, dataset: Dataset) -> np.ndarray:
        """The configured start, or the family's default one on ``dataset``."""
        return naive_start(model, dataset) if self.start is None else self.start


# --------------------------------------------------------------------------
# starts and single-point minimization
# --------------------------------------------------------------------------


def point_options(
    model: ModelSpec, lam: float, start: np.ndarray, template: MinimizeOptions | None
) -> MinimizeOptions:
    """Optimizer options for one noise level.

    A ``template`` is used with its start replaced.  Without one, the
    quasi-Newton defaults apply, except at lambda = 0 for families that are
    not ``smooth_at_zero``, which get a long, tight simplex search.
    """
    if template is not None:
        return replace(template, start=start)
    if model.record.smooth_at_zero or lam != 0.0:
        return MinimizeOptions(start=start)
    return MinimizeOptions(
        start=start,
        method="simplex",
        max_iters=_SIMPLEX_MAX_ITERS,
        step_tol=_SIMPLEX_STEP_TOL,
    )


def minimize_target(
    model: ModelSpec,
    dataset: Dataset,
    lam: float,
    start: np.ndarray,
    options: MinimizeOptions | None = None,
    nodes: int = 30,
    z: np.ndarray | None = None,
) -> MinimizeResult:
    """Minimize the family objective at one noise level from a given start.

    ``z`` replaces ``dataset.z`` by one set of pseudo-data surrogates of the
    same shape.  Each trial point runs the family kernel once: the
    quasi-Newton method asks for a gradient only at the point it has just
    evaluated and accepted, and gets it from that evaluation's ``grad``
    callable, so a rejected trial never pays for a gradient and an accepted
    one never redoes its setup.
    """
    ctx = TargetContext(dataset=dataset, model=model, lam=lam, nodes=nodes, z=z)
    opts = point_options(model, lam, np.asarray(start, dtype=float), options)
    kernel = model.record.kernel
    point = finish = None  # the last trial point and its grad callable

    def value(th):
        nonlocal point, finish
        v, finish = kernel(ctx, th)
        point = th
        return v

    def gradient(th):
        # the solver passes the accepted point itself, so identity suffices
        if th is not point:
            value(th)
        return finish()

    # the generic family runs user code and has no analytic gradient;
    # minimize then differentiates it by central differences
    grad = gradient if opts.method == "quasi-newton" and model.mean_fn is None else None
    return minimize(value, grad, opts)


def naive_estimate(
    model: ModelSpec, dataset: Dataset, config: EstimateConfig | None = None
) -> MinimizeResult:
    """Classical estimate on the observed data: the lambda = 0 minimizer."""
    cfg = config or EstimateConfig()
    start = cfg.start_for(model, dataset)
    res = minimize_target(model, dataset, 0.0, start, cfg.options, cfg.nodes)
    if not res.converged:
        raise EstimationError(
            f"naive estimate did not converge (status {res.status})"
        )
    return res


# --------------------------------------------------------------------------
# closed forms for the linear family
# --------------------------------------------------------------------------


def linear_closed_form(dataset: Dataset, lam: float, intercept: bool = True) -> np.ndarray:
    """Minimizer of the linear objective at noise level lam, in closed form.

    With an intercept the slopes solve (C_zz + lam sigma_u) beta = C_zy for
    the denominator-n sample covariances, and the intercept is
    ybar - beta' zbar.  Raises when the corrected second-moment matrix is
    not positive definite.
    """
    y, z = dataset.y, dataset.z
    if intercept:
        zc = z - z.mean(axis=0)
        yc = y - y.mean()
        czz = zc.T @ zc / dataset.n
        czy = zc.T @ yc / dataset.n
    else:
        czz = z.T @ z / dataset.n
        czy = z.T @ y / dataset.n
    m = czz + lam * dataset.sigma_u
    eigmin = float(np.linalg.eigvalsh(m).min())
    if eigmin <= 1e-12 * max(1.0, float(np.trace(czz))):
        raise IllPosedError(
            "corrected second-moment matrix is not positive definite; the "
            "measurement-error correction is ill-posed for these data"
        )
    beta = np.linalg.solve(m, czy)
    if intercept:
        alpha = float(y.mean() - beta @ z.mean(axis=0))
        return np.concatenate(([alpha], beta))
    return beta


def linear_exact_extrapolant(theta0: float, sigma_x2: float, sigma_u2: float):
    """Population attenuation curve of the classical single-slope estimator.

    Returns g with g(lam) = theta0 sigma_x^2 / (sigma_x^2 + (1+lam) sigma_u^2),
    so g(0) is the naive limit and g(-1) recovers theta0.
    """

    def g(lam):
        return theta0 * sigma_x2 / (sigma_x2 + (1.0 + np.asarray(lam)) * sigma_u2)

    return g


# --------------------------------------------------------------------------
# estimation paths
# --------------------------------------------------------------------------


def direct_estimate(
    model: ModelSpec, dataset: Dataset, config: EstimateConfig | None = None
) -> EstimateResult:
    """Estimate at lambda = -1 in one shot (pluggable families only).

    For the linear family the closed form is used and cross-checked against
    the numeric minimizer.  Other families track the minimizer along a short
    warm-started continuation from the naive estimate down to lambda = -1;
    a BranchCollapseError signals that the tracked minimizer vanished for
    this dataset and only the grid path applies.
    """
    if not model.pluggable:
        raise ConfigError(
            f"family {model.family!r} cannot be plugged at lambda = -1; "
            "use grid_estimate with an extrapolant instead"
        )
    cfg = config or EstimateConfig()
    if model.family == "linear":
        naive_flat = linear_closed_form(dataset, 0.0, model.has_intercept)
        flat = linear_closed_form(dataset, -1.0, model.has_intercept)
        check = minimize_target(model, dataset, -1.0, flat, cfg.options, cfg.nodes)
        scale = 1.0 + float(np.max(np.abs(flat)))
        if not check.converged or np.max(np.abs(check.theta_hat - flat)) > 1e-6 * scale:
            raise EstimationError(
                "numeric minimization disagrees with the linear closed form"
            )
        diag = {"direct": check}
    else:
        naive = naive_estimate(model, dataset, cfg)
        # continuation from lambda = 0 down to -1: the corrected objectives
        # are not coercive at negative lambda (the correction factor lets a
        # few extreme rows dominate far from the truth), so each step is a
        # warm-started local solve that must stay on the branch through the
        # naive estimate; a jump past the trust radius means the branch
        # minimizer has ceased to exist for this dataset (a fold), in which
        # case only the lambda-grid path is available
        cur = naive.theta_hat
        res = naive
        for lam in (-0.25, -0.5, -0.75, -1.0):
            res = minimize_target(model, dataset, lam, cur, cfg.options, cfg.nodes)
            radius = 0.5 * (1.0 + float(np.max(np.abs(cur))))
            if not res.converged or np.max(np.abs(res.theta_hat - cur)) > radius:
                raise BranchCollapseError(
                    f"the corrected objective has no local minimizer near the "
                    f"naive branch at lambda = {lam}; use the grid path"
                )
            cur = res.theta_hat
        naive_flat = naive.theta_hat
        flat = res.theta_hat
        diag = {"naive": naive, "direct": res}
    has_int = model.has_intercept
    return EstimateResult(
        theta_hat=Theta.from_flat(flat, has_int),
        path="direct",
        kind=None,
        naive=Theta.from_flat(naive_flat, has_int),
        diagnostics=diag,
    )


def grid_estimate(
    model: ModelSpec, dataset: Dataset, config: EstimateConfig | None = None
) -> GridEstimates:
    """Minimize the objective at every point of ``config.grid``, warm-starting
    along the grid.

    The lambda = 0 point is the naive estimate.  Any non-converged point
    aborts with an aggregated error listing the offending lambda values.
    """
    cfg = config or EstimateConfig()
    start = cfg.start_for(model, dataset)
    thetas = []
    results = []
    failed = []
    for lam in cfg.grid.values:
        res = minimize_target(model, dataset, float(lam), start, cfg.options, cfg.nodes)
        if not res.converged:
            failed.append(float(lam))
        thetas.append(res.theta_hat)
        results.append(res)
        start = res.theta_hat
    if failed:
        raise GridConvergenceError(
            "grid minimization failed to converge at lambda = "
            + ", ".join(f"{v:g}" for v in failed)
        )
    return GridEstimates(grid=cfg.grid, thetas=np.asarray(thetas), diagnostics=results)


# --------------------------------------------------------------------------
# extrapolant fitting
# --------------------------------------------------------------------------


def _fit_polynomial(lams: np.ndarray, vals: np.ndarray, degree: int):
    design = np.vander(lams, degree + 1, increasing=True)
    gamma, *_ = np.linalg.lstsq(design, vals, rcond=None)
    rss = float(np.sum((design @ gamma - vals) ** 2))
    return gamma, rss


def _rational_seed(lams: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Seed (a, b, c) from the quadratic fit by matching value, slope, and
    curvature at lambda = 1; falls back to c = 2 when the curvature-matched
    pole parameter is inadmissible."""
    (qa, qb, qc), _ = _fit_polynomial(lams, vals, 2)
    v1 = qa + qb + qc
    s1 = qb + 2.0 * qc
    k1 = 2.0 * qc
    c = -1.0 - 2.0 * s1 / k1 if k1 != 0.0 else 2.0
    if not np.isfinite(c) or c <= 1.0:
        c = 2.0
    b = -s1 * (c + 1.0) ** 2
    a = v1 - b / (c + 1.0)
    return np.array([a, b, c])


def _fit_rational(lams: np.ndarray, vals: np.ndarray):
    """Nonlinear least squares for a + b / (c + lam) with the pole kept left
    of lambda = -1 via the reparameterization c = 1 + exp(gamma)."""
    a0, b0, c0 = _rational_seed(lams, vals)

    def unpack(p):
        return p[0], p[1], 1.0 + math.exp(min(p[2], 50.0))

    def rss(p):
        a, b, c = unpack(p)
        r = a + b / (c + lams) - vals
        return float(r @ r)

    def grad(p):
        a, b, c = unpack(p)
        inv = 1.0 / (c + lams)
        r = a + b * inv - vals
        dc = math.exp(min(p[2], 50.0))
        return np.array(
            [
                2.0 * float(np.sum(r)),
                2.0 * float(r @ inv),
                -2.0 * b * float(r @ (inv * inv)) * dc,
            ]
        )

    p0 = np.array([a0, b0, math.log(max(c0 - 1.0, 1e-8))])
    res = minimize(
        rss,
        grad,
        MinimizeOptions(start=p0, max_iters=1000, grad_tol=1e-12, step_tol=1e-14),
    )
    a, b, c = unpack(res.theta_hat)
    if c - 1.0 < 1e-6:
        raise PoleError(
            "rational extrapolant pole falls inside the extrapolation range; "
            "try the quadratic extrapolant"
        )
    return np.array([a, b, c]), rss(res.theta_hat)


def fit_extrapolant(grid_estimates: GridEstimates, kind: str = "quadratic") -> FittedExtrapolant:
    """Least-squares fit of the chosen trend, one fit per theta coordinate."""
    if kind not in EXTRAPOLANT_KINDS:
        raise ConfigError(f"unknown extrapolant kind {kind!r}")
    lams = grid_estimates.grid.values
    thetas = np.atleast_2d(np.asarray(grid_estimates.thetas, dtype=float))
    n_coef = _DEGREE.get(kind, 2) + 1  # the rational a, b, c count as degree 2
    if lams.size < n_coef:
        raise ConfigError(f"{kind} extrapolant needs at least {n_coef} grid points")
    gammas = []
    rss = []
    for j in range(thetas.shape[1]):
        vals = thetas[:, j]
        if kind == "rational":
            g, r = _fit_rational(lams, vals)
        else:
            g, r = _fit_polynomial(lams, vals, _DEGREE[kind])
        gammas.append(g)
        rss.append(r)
    return FittedExtrapolant(kind=kind, gamma_hat=np.asarray(gammas), rss=np.asarray(rss))


def extrapolate_to_minus_one(fit: FittedExtrapolant) -> np.ndarray:
    """Evaluate each fitted trend at lambda = -1."""
    g = fit.gamma_hat
    if fit.kind == "rational":
        if np.any(g[:, 2] <= 1.0):
            raise PoleError("rational extrapolant pole at or beyond lambda = -1")
        return g[:, 0] + g[:, 1] / (g[:, 2] - 1.0)
    # the alternating sum g0 - g1 + g2 ..., accumulated left to right
    out = g[:, 0]
    for k in range(1, g.shape[1]):
        out = out + (-1.0) ** k * g[:, k]
    return out


def extrapolant_jacobian(fit: FittedExtrapolant, lams: np.ndarray, j: int) -> np.ndarray:
    """d G(lam; gamma_j) / d gamma for coordinate j at each grid lambda."""
    if fit.kind != "rational":
        return np.vander(lams, fit.gamma_hat.shape[1], increasing=True)
    _, b, c = fit.gamma_hat[j]
    inv = 1.0 / (c + lams)
    return np.column_stack([np.ones_like(lams), inv, -b * inv * inv])


def extrapolation_se(fit: FittedExtrapolant, lams: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Delta-method standard error of G(-1) from per-lambda standard errors.

    Linearizes the least-squares fit around the fitted coefficients: the
    extrapolated value is w' theta_grid with w = dG(-1)' (J'J)^-1 J', and the
    grid points are treated as independent with the given standard errors.
    """
    se = np.atleast_2d(np.asarray(se, dtype=float))
    out = np.empty(fit.gamma_hat.shape[0])
    for j in range(fit.gamma_hat.shape[0]):
        jac = extrapolant_jacobian(fit, lams, j)
        if fit.kind == "rational":
            _, b, c = fit.gamma_hat[j]
            d_minus1 = np.array([1.0, 1.0 / (c - 1.0), -b / (c - 1.0) ** 2])
        else:
            d_minus1 = (-1.0) ** np.arange(jac.shape[1])
        w = d_minus1 @ np.linalg.solve(jac.T @ jac, jac.T)
        out[j] = math.sqrt(float(np.sum((w * se[:, j]) ** 2)))
    return out


def ex_estimate(
    model: ModelSpec,
    dataset: Dataset,
    config: EstimateConfig | None = None,
) -> EstimateResult:
    """Full estimation pipeline: direct plug-in when admissible, otherwise
    grid estimation, extrapolant fitting, and evaluation at lambda = -1.

    The naive (lambda = 0) estimate is always recorded for reference.
    """
    cfg = config or EstimateConfig()
    if model.pluggable and not cfg.force_grid:
        try:
            return direct_estimate(model, dataset, cfg)
        except BranchCollapseError:
            # the direct objective lost its minimizer for this dataset; the
            # nonnegative-lambda objectives are coercive, so extrapolate
            pass
    ge = grid_estimate(model, dataset, cfg)
    fit = fit_extrapolant(ge, cfg.kind)
    flat = extrapolate_to_minus_one(fit)
    has_int = model.has_intercept
    return EstimateResult(
        theta_hat=Theta.from_flat(flat, has_int),
        path="extrapolated",
        kind=cfg.kind,
        naive=Theta.from_flat(ge.thetas[0], has_int),
        grid=ge,
        extrapolant=fit,
    )
