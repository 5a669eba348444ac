"""Bias-corrected estimation by direct plug-in or lambda-grid extrapolation.

Pluggable families are estimated by a single minimization of their objective
at lambda = -1.  For the remaining families the objective is minimized over
a grid of nonnegative lambda values, a parametric trend is fitted to the
grid estimates, and the trend is evaluated at lambda = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .errors import (
    BranchCollapseError,
    ConfigError,
    EstimationError,
    GridConvergenceError,
    IllPosedError,
    PoleError,
    SimexfreeError,
)
from .optimize import MinimizeOptions, MinimizeResult, _is_int, batch_dot, minimize, minimize_batch
from .targets import (
    STACK_CHUNK_VALUES, ModelSpec, TargetContext, Theta, flat_theta, solver_kernel, stack_rows,
)
# not called here: the benchmark's tracer (perfbench/tracing.py) patches
# these names in this module, so they stay importable from it
from .targets import target_gradient, target_value  # noqa: F401

# polynomial extrapolants by degree; the rational one is a + b / (c + lam)
_DEGREE = {"linear": 1, "quadratic": 2}
EXTRAPOLANT_KINDS = (*_DEGREE, "rational")
# the rational extrapolant's search over its pole parameter: c - 1 is
# scanned at _RATIONAL_SCAN log-spaced points over _RATIONAL_POLE_RANGE, and
# golden section narrows the best point's bracket to _RATIONAL_GAMMA_TOL in
# gamma = log(c - 1)
_RATIONAL_POLE_RANGE = (1e-6, 1e6)
_RATIONAL_SCAN = 111
_RATIONAL_GAMMA_TOL = 1e-10
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Nonsmooth lambda = 0 objectives get a tighter, longer simplex search so the
# naive grid point is as accurate as the smooth quasi-Newton points.
_SIMPLEX_MAX_ITERS = 10000
_SIMPLEX_STEP_TOL = 1e-9

# the direct path's continuation from the naive estimate down to lambda = -1
CONTINUATION = (-0.25, -0.5, -0.75, -1.0)
# what makes one data set's estimate fail without stopping a study, apart
# from a ConfigError, which is the configuration's and stops it
ESTIMATE_ERRORS = (SimexfreeError, np.linalg.LinAlgError)


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


# the grid of every EstimateConfig that names none: one shared instance, as a
# LambdaGrid is frozen and its values read-only
DEFAULT_GRID = LambdaGrid.default()


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
    ``rss`` is the per-coordinate residual sum of squares.  ``status`` is
    the per-coordinate exit status of the fit: "closed_form" for a
    polynomial; for the rational trend "step_tol" when its search for c
    narrowed to a point, or "linear_limit" when the fit is best at the
    largest c it tries, where the trend is linear over the grid (see
    ``_fit_rational``).  The search always ends, so there is no "max_iters".
    It is None for a fit built by hand.
    """

    kind: str
    gamma_hat: np.ndarray
    rss: np.ndarray
    status: np.ndarray | None = None


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
    the family's default initial point for the first (naive) minimization,
    and ``nodes``, an integer of at least 2, the Gauss-Hermite nodes of
    the logistic objective.  Each later grid point starts from a predicted
    minimizer: from the fourth point on, the quadratic through the three
    previous minimizers, by its Lagrange weights, where all three solves
    converged; otherwise, and at the third point, the secant through the
    two previous minimizers where both converged; otherwise, and at the
    second point, the previous minimizer.  The direct path's continuation
    starts each step by the same rule, from the minimizers on its branch
    from lambda = 0 down (see :func:`_continue`).  Classical SIMEX starts
    every pseudo-data set of a noise level from this grid's minimizer there
    (see ``simex._set_starts``).  Every solve starts its quasi-Newton
    inverse Hessian from the identity (see :class:`MinimizeOptions`).

    Every solve takes one step rule (see :func:`~simexfree.optimize.minimize`).
    The families whose kernels state curvature take a damped Newton step
    from their Hessian wherever it is positive definite, and a quasi-Newton
    step elsewhere: every family but generic, with quantile, lare and
    walsh only where their smoothing variance is positive, so not at
    lambda = 0 (see ``targets.hessian``), where by default the simplex
    solves them (see :func:`point_options`).  Generic takes Gauss-Newton
    steps, from the curvature 2 J'WJ / N of its weighted sum of squares.
    A solve whose next Newton step would gain less than the rounding of
    its objective takes that step unevaluated and ends with status
    "decrement", which counts as converged, so the grid, the continuation
    and classical SIMEX take its minimizer as any other.

    ``grid`` defaults to :data:`DEFAULT_GRID`, one instance that every
    config shares.  It must be a :class:`LambdaGrid`, ``options`` a
    :class:`MinimizeOptions` or None, and ``force_grid`` a bool; anything
    else raises ConfigError.
    """

    grid: LambdaGrid = DEFAULT_GRID
    kind: str = "quadratic"
    options: MinimizeOptions | None = None
    force_grid: bool = False
    nodes: int = 30
    start: np.ndarray | None = None

    def __post_init__(self):
        for name, types, wanted in (
            ("grid", LambdaGrid, "a LambdaGrid"),
            ("options", (MinimizeOptions, type(None)), "a MinimizeOptions or None"),
            ("force_grid", (bool, np.bool_), "a bool"),
        ):
            value = getattr(self, name)
            if not isinstance(value, types):
                raise ConfigError(f"{name} must be {wanted}, got {value!r}")
        if self.kind not in EXTRAPOLANT_KINDS:
            raise ConfigError(
                f"unknown extrapolant kind {self.kind!r}; expected one of "
                f"{EXTRAPOLANT_KINDS}"
            )
        if not _is_int(self.nodes) or self.nodes < 2:
            raise ConfigError(
                f"quadrature node count must be an integer of at least 2, got {self.nodes!r}"
            )

    def start_for(self, model: ModelSpec, dataset: Dataset) -> np.ndarray:
        """The configured start, or the family's default one on ``dataset``,
        as a flat float array.  The responses are not checked here: the
        estimators check each dataset's once (see ``targets.naive_start``,
        which does)."""
        start = model.record.start(model, dataset) if self.start is None else self.start
        return np.asarray(start, dtype=float).ravel()


# --------------------------------------------------------------------------
# options and solves at one noise level
# --------------------------------------------------------------------------


def point_options(
    model: ModelSpec, lam: float, start: np.ndarray, template: MinimizeOptions | None
) -> MinimizeOptions:
    """Optimizer options for one noise level, from ``start``.

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
    ctx: TargetContext, start: np.ndarray, options: MinimizeOptions | None = None
) -> MinimizeResult:
    """Minimize the family objective of ``ctx``, one data set at one noise
    level, from a given start.

    This is the one-row solve of :func:`row_solver`, with the options of
    :func:`point_options` at ``ctx.lam``.  Each trial point runs the family
    kernel once: the quasi-Newton method asks for a gradient, and then for
    a Hessian, only at the point it has just evaluated and accepted, and
    gets them from that evaluation's ``grad`` callable and its
    ``grad.hessian``, so a rejected trial never pays for either and an
    accepted one never redoes its setup.  A kernel without
    ``grad.hessian`` offers no curvature, and the solve takes quasi-Newton
    steps only (see :func:`minimize`).  The start is checked against the
    parameter count once, here (ConfigError), and the kernel runs as the
    solvers call it (``targets.solver_kernel``), in the one error state of
    the solve.
    """
    model = ctx.model
    opts = point_options(model, ctx.lam, flat_theta(start, ctx.plan.q), options)
    kernel = solver_kernel(model)
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

    def curvature(th):
        if th is not point:
            value(th)
        second = getattr(finish, "hessian", None)
        return None if second is None else second()

    return minimize(value, gradient, opts, curvature)


def minimize_stack(ctx: TargetContext, options: MinimizeOptions) -> MinimizeResult:
    """Minimize the family objective of ``ctx``, a stack of B data sets at
    one noise level (see :class:`TargetContext`), by :func:`minimize_batch`
    from the starts ``options.start`` (B, q).

    The family's kernel must take a stack: any but generic, which runs a
    user's ``mean_fn`` on one data set at a time.  Each call of the solver runs the kernel
    once per chunk of at most ``STACK_CHUNK_VALUES // n`` sets and finishes
    the chunk's gradients from that call when one of its trial points
    passes the Armijo test.  Where the kernel offers ``grad.hessian``, it
    finishes the chunk's Hessians too when one of those points has a
    gradient above ``options.grad_tol``, and so takes a step from there;
    a set-by-set family's stack has a NaN row for a set whose loss offers
    no curvature there, and that row takes a quasi-Newton step.  No
    trial's B x n temporaries outlive their chunk.  Each row equals its
    scalar :func:`minimize_target` solve bit for bit.  The starts are
    checked against the parameter count once, here (ConfigError).
    """
    flat_theta(options.start, ctx.plan.q)
    kernel = solver_kernel(ctx.model)
    chunk = max(1, STACK_CHUNK_VALUES // ctx.dataset.n)
    tol = options.grad_tol

    def evaluate(theta, rows, bound):
        values = np.empty(rows.size)
        grads = np.empty(theta.shape)
        hessians = None
        for i in range(0, rows.size, chunk):
            part = slice(i, i + chunk)
            v, grad = kernel(ctx.take(rows[part]), theta[part])
            values[part] = v
            passed = np.isfinite(v) & (v <= bound[part])
            if passed.any():
                g = grads[part] = grad()
                second = getattr(grad, "hessian", None)
                # a row whose gradient is within grad_tol stops without a step
                if second is not None and (passed & ~(np.sqrt(batch_dot(g, g)) <= tol)).any():
                    if hessians is None:
                        hessians = np.full(theta.shape + theta.shape[-1:], np.nan)
                    hessians[part] = second()
        return values, grads, hessians

    return minimize_batch(evaluate, options)


def row_solver(
    model: ModelSpec,
    dataset: Dataset,
    cfg: EstimateConfig,
    z: np.ndarray | None = None,
    y: np.ndarray | None = None,
) -> Callable[..., MinimizeResult]:
    """The ``solve(rows, lam, starts)`` that every estimator stage runs.

    The rows are the data sets ``z`` (R, n, p) with responses ``y`` (R, n,
    or None for ``dataset.y`` in every set), which share the dataset's
    sigma_u, or without ``z`` the dataset alone, as row 0.  ``solve``
    minimizes the objective at ``lam`` on ``rows``, an increasing index
    array, from ``starts`` (one per row), with the options of ``cfg`` at
    that level (see :func:`point_options`), and returns a batch result, one
    row per solved row.  The context of every solve is built and planned
    once, here, with the responses checked against the family domain then
    (the dataset's, shared by every row), and each solve moves it to its
    lambda (``TargetContext.at``) and takes its rows.  Stacked responses
    ``y`` differ per row, so each solve checks only those of the rows it
    solves.  One rule picks the solver: a quasi-Newton solve of more than
    one row, for a family whose kernel takes a stack (no ``mean_fn``), is
    one :func:`minimize_stack` run; a single row, a simplex solve and the
    generic family take one :func:`minimize_target` per row, whose scalar
    results the batch result keeps (:func:`_row`).  Either way each row
    has the bits of its own scalar solve.
    """
    base = None if y is not None else TargetContext(
        dataset=dataset, model=model, lam=0.0, nodes=cfg.nodes, z=z)

    def solve(rows: np.ndarray, lam: float, starts: np.ndarray) -> MinimizeResult:
        if base is None:
            ctx = TargetContext(dataset=dataset, model=model, lam=lam, nodes=cfg.nodes,
                                z=stack_rows(z, rows), y=stack_rows(y, rows))
        else:
            ctx = base.at(lam) if z is None else base.at(lam).take(rows)
        if rows.size > 1 and model.mean_fn is None:
            opts = point_options(model, lam, starts, cfg.options)
            if opts.method == "quasi-newton":
                return minimize_stack(ctx, opts)
        return _stacked([
            minimize_target(ctx if z is None else ctx.take(i), start, cfg.options)
            for i, start in enumerate(starts)
        ])

    return solve


class _Stacked(MinimizeResult):
    """A batch result of scalar solves that keeps them, for :func:`_row`."""

    scalars: list[MinimizeResult]


def _stacked(results: list[MinimizeResult]) -> MinimizeResult:
    """Scalar results as one batch result, one row each, which keeps them:
    :func:`_row` hands each back as it was, without a round trip through
    the batch arrays."""
    res = _Stacked(*map(np.array, zip(*(vars(r).values() for r in results))))
    res.scalars = results
    return res


def _take(res: MinimizeResult, rows) -> MinimizeResult:
    """The batch result of ``rows``, an increasing index array or a mask,
    of a batch result: the result itself when they are all of its rows."""
    index = np.flatnonzero(rows) if rows.dtype == bool else rows
    if index.size == res.value.size:
        return res
    return MinimizeResult(res.theta_hat[index], res.value[index], res.grad_norm[index],
                          res.iters[index], res.converged[index], res.status[index])


def _row(res: MinimizeResult, i: int) -> MinimizeResult:
    """Row i of a batch result, as the result of its own scalar solve."""
    if isinstance(res, _Stacked):
        return res.scalars[i]
    return MinimizeResult(
        res.theta_hat[i], float(res.value[i]), float(res.grad_norm[i]),
        int(res.iters[i]), bool(res.converged[i]), str(res.status[i]),
    )


def naive_estimate(
    model: ModelSpec, dataset: Dataset, config: EstimateConfig | None = None
) -> MinimizeResult:
    """Classical estimate on the observed data: the lambda = 0 minimizer."""
    return _one(model, dataset, config, "naive")


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
    if not math.isfinite(lam):
        raise ConfigError(f"lam must be finite, got {lam}")
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


def _continue(
    solve, rows: np.ndarray, first: MinimizeResult
) -> tuple[np.ndarray, MinimizeResult]:
    """Track each row's minimizer from its naive estimate, the converged
    lambda = 0 solve ``first`` of ``rows``, down :data:`CONTINUATION` to
    lambda = -1.

    Each step starts every row from its predicted minimizer
    (:func:`_predicted`), the polynomial through the row's branch minimizers
    so far: the naive estimate at -0.25, the secant through lambda = 0 and
    -0.25 at -0.5, and the quadratic through the three previous points at
    -0.75 and -1.  The corrected objectives are not coercive at negative
    lambda (the correction factor lets a few extreme rows dominate far from
    the truth), so each step is a local solve that must stay on the branch
    through the naive estimate.  A step that does not converge, or lands
    past the trust radius 0.5 (1 + max|theta|) from the row's previous
    minimizer theta, not from its predicted start, means the branch
    minimizer has ceased to exist for this row (a fold), and only the
    lambda-grid path is available.  So the test judges the branch, not the
    predictor.  The rows that leave are dropped from the history, so a
    stacked row keeps the bits of its scalar continuation.

    Returns the lambda at which each row left the branch (NaN where it
    stayed), and the last step's result for the rows that stayed.
    """
    lams = np.array((0.0, *CONTINUATION))
    left_at = np.full(rows.size, np.nan)
    live = np.arange(rows.size)
    results = [first]
    for k, lam in enumerate(CONTINUATION, 1):
        res = solve(rows[live], lam, _predicted(results, lams[:k + 1]))
        prev = results[-1].theta_hat
        radius = 0.5 * (1.0 + np.abs(prev).max(axis=1))
        stay = res.converged & ~(np.abs(res.theta_hat - prev).max(axis=1) > radius)
        left_at[live[~stay]] = lam
        results.append(res)
        if not stay.all():
            # _predicted reads at most the last three results
            live, results = live[stay], [_take(r, stay) for r in results[-3:]]
        if live.size == 0:
            break
    return left_at, results[-1]


def direct_estimate(
    model: ModelSpec, dataset: Dataset, config: EstimateConfig | None = None
) -> EstimateResult:
    """Estimate at lambda = -1 in one shot (pluggable families only).

    For the linear family the closed form is used and cross-checked against
    the numeric minimizer.  Other families track the minimizer along a short
    continuation from the naive estimate down to lambda = -1, each step
    from the minimizer its branch predicts (see :func:`_continue`); a
    BranchCollapseError signals that the tracked minimizer vanished for
    this dataset and only the grid path applies.
    """
    if not model.pluggable:
        raise ConfigError(
            f"family {model.family!r} cannot be plugged at lambda = -1; "
            "use grid_estimate with an extrapolant instead"
        )
    return _one(model, dataset, config, "direct")


def grid_estimate(
    model: ModelSpec, dataset: Dataset, config: EstimateConfig | None = None
) -> GridEstimates:
    """Minimize the objective at every point of ``config.grid``, each from
    a prediction by the previous minimizers (see :class:`EstimateConfig`).

    The lambda = 0 point is the naive estimate.  Any non-converged point
    aborts with an aggregated error listing the offending lambda values.
    """
    return _one(model, dataset, config, "grid")


# --------------------------------------------------------------------------
# extrapolant fitting
# --------------------------------------------------------------------------


def _fit_polynomial(lams: np.ndarray, vals: np.ndarray, degree: int):
    design = np.vander(lams, degree + 1, increasing=True)
    gamma, *_ = np.linalg.lstsq(design, vals, rcond=None)
    rss = float(np.sum((design @ gamma - vals) ** 2))
    return gamma, rss


def _fit_rational(lams: np.ndarray, vals: np.ndarray):
    """Least squares for a + b / (c + lam) by variable projection (Golub &
    Pereyra 1973): for each c = 1 + exp(gamma), (a, b) is the linear least
    squares fit on the design [1, 1 / (c + lam)], so only gamma is searched.
    Its profile residual sum of squares is scanned over c - 1 in
    ``_RATIONAL_POLE_RANGE`` and refined by golden section between the best
    scan point's neighbours, which needs neither a start nor a gradient.  A
    profile value within the rounding of ``vals`` counts as zero, and ties
    go to the larger c, the smoother trend.  Returns (a, b, c), the residual
    sum of squares and the status: "step_tol" once the bracket is narrower
    than ``_RATIONAL_GAMMA_TOL``, or "linear_limit" when the best scan point
    is the largest c, where the trend is linear over the grid to about
    lam / c.  Raises PoleError when it is the smallest c, next to lambda = -1.
    """
    mean = vals.mean()
    spread = np.max(np.abs(vals - mean)) or 1.0
    v = (vals - mean) / spread  # scaled, so that tiny values do not underflow
    floor = vals.size * (4.0 * np.finfo(float).eps * np.max(np.abs(vals)) / spread) ** 2

    def profile(gammas):
        u = 1.0 / (1.0 + np.exp(gammas)[:, None] + lams)
        ubar = u.sum(axis=1) / lams.size
        du = u - ubar[:, None]
        b = du @ v / (du * du).sum(axis=1)
        r = v - b[:, None] * du
        return np.maximum((r * r).sum(axis=1), floor), mean - spread * b * ubar, spread * b

    gammas = np.linspace(*np.log(_RATIONAL_POLE_RANGE), _RATIONAL_SCAN)
    last = gammas.size - 1
    best = last - int(np.argmin(profile(gammas)[0][::-1]))  # the largest c of a tie
    if best == 0:
        raise PoleError(
            "rational extrapolant pole falls inside the extrapolation range; "
            "try the quadratic extrapolant"
        )
    # golden section between the best point's neighbours; a linear limit needs none
    lo, hi = gammas[[best - 1, best + 1]] if best < last else gammas[[last, last]]
    while hi - lo > _RATIONAL_GAMMA_TOL:
        x = np.array([hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)])
        f1, f2 = profile(x)[0]
        lo, hi = (lo, x[1]) if f1 < f2 else (x[0], hi)
    gamma = 0.5 * (lo + hi)
    _, a, b = profile(np.array([gamma]))
    c = 1.0 + math.exp(gamma)
    r = a[0] + b[0] / (c + lams) - vals
    return np.array([a[0], b[0], c]), float(r @ r), "linear_limit" if best == last else "step_tol"


def _check_grid_size(kind: str, points: int) -> None:
    """Raise ConfigError when ``points`` grid points are fewer than the
    coefficients of a ``kind`` extrapolant."""
    n_coef = _DEGREE.get(kind, 2) + 1  # the rational a, b, c count as degree 2
    if points < n_coef:
        raise ConfigError(f"{kind} extrapolant needs at least {n_coef} grid points")


def fit_extrapolant(grid_estimates: GridEstimates, kind: str = "quadratic") -> FittedExtrapolant:
    """Least-squares fit of the chosen trend, one fit per theta coordinate:
    a polynomial in closed form, the rational trend by variable projection
    (see ``_fit_rational``), which raises PoleError when the fit's pole
    approaches lambda = -1."""
    if kind not in EXTRAPOLANT_KINDS:
        raise ConfigError(f"unknown extrapolant kind {kind!r}")
    lams = grid_estimates.grid.values
    thetas = np.atleast_2d(np.asarray(grid_estimates.thetas, dtype=float))
    _check_grid_size(kind, lams.size)
    fits = [
        _fit_rational(lams, thetas[:, j]) if kind == "rational"
        else (*_fit_polynomial(lams, thetas[:, j], _DEGREE[kind]), "closed_form")
        for j in range(thetas.shape[1])
    ]
    gammas, rss, status = zip(*fits)
    return FittedExtrapolant(kind=kind, gamma_hat=np.asarray(gammas), rss=np.asarray(rss),
                             status=np.array(status))


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
    A rational coordinate at its ``linear_limit`` takes the limit of this
    delta method as c grows, which is the quadratic extrapolant's.
    """
    se = np.atleast_2d(np.asarray(se, dtype=float))
    out = np.empty(fit.gamma_hat.shape[0])
    for j in range(fit.gamma_hat.shape[0]):
        jac = extrapolant_jacobian(fit, lams, j)
        limit = fit.status is not None and fit.status[j] == "linear_limit"
        if limit:
            # as c grows the tangent space of a + b / (c + lam) tends to
            # span{1, lam, lam^2}, while J'J turns singular to rounding
            jac = np.vander(lams, 3, increasing=True)
        if fit.kind == "rational" and not limit:
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

    The direct path applies to a pluggable family unless ``force_grid`` is
    set.  When its continuation leaves the naive branch (see
    :func:`direct_estimate`), the estimate falls back to the grid path,
    whose lambda = 0 point is the naive solve already made.  The naive
    (lambda = 0) estimate is always recorded for reference.  This is the
    composition of :func:`ex_estimate_stack` run on ``[dataset]``: it
    returns that dataset's result or raises its error.
    """
    return _one(model, dataset, config, "ex")


def ex_estimate_stack(
    model: ModelSpec,
    datasets: Sequence[Dataset],
    config: EstimateConfig | None = None,
    naive: bool = False,
) -> list[np.ndarray | None]:
    """The flat estimates of :func:`ex_estimate` on each of ``datasets``, or
    with ``naive`` those of :func:`naive_estimate`, solved stage by stage.

    Any family and options apply; the datasets share one shape and
    sigma_u.  Each stage is one solve of :func:`row_solver` over the
    datasets that reach it:

    - the naive lambda = 0 solve from each dataset's start;
    - each step of :data:`CONTINUATION`, from the row's predicted
      minimizer, with the branch test of :func:`direct_estimate`; a row
      that leaves the branch leaves the later steps' solves and their
      predictions (see :func:`_continue`);
    - for the datasets whose branch collapsed (or all, on the grid path),
      each further grid point of :func:`grid_estimate`, whose lambda = 0
      point is the naive solve, from the row's predicted minimizer.  The
      extrapolant is then fitted per dataset;
    - for the linear family, the closed forms per dataset and one numeric
      check at lambda = -1.

    :func:`ex_estimate` is this composition on one dataset, so entry r
    equals the estimate on ``datasets[r]`` alone bit for bit, or is None
    where that estimate raises one of ``ESTIMATE_ERRORS``.  A ConfigError
    is a mistake in the configuration, not in one dataset, and propagates.
    """
    cfg = config or EstimateConfig()
    if any(not np.array_equal(d.sigma_u, datasets[0].sigma_u) for d in datasets):
        raise ConfigError("stacked datasets must share sigma_u")
    if any(d.z.shape != datasets[0].z.shape for d in datasets):
        raise ConfigError("stacked datasets must share one shape")
    if not datasets:
        return []
    outcomes = _stages(model, datasets, cfg, "naive" if naive else "ex")
    return [
        None if isinstance(o, Exception) else o.theta_hat if naive else o.theta_hat.flat_vector
        for o in outcomes
    ]


def _one(model: ModelSpec, dataset: Dataset, config: EstimateConfig | None, goal: str):
    """The result of :func:`_stages` on ``dataset`` alone, or its error raised."""
    outcome = _stages(model, [dataset], config or EstimateConfig(), goal)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _stages(model: ModelSpec, datasets: Sequence[Dataset], cfg: EstimateConfig, goal: str) -> list:
    """Each dataset's outcome: its result for ``goal``, or the error, one of
    ``ESTIMATE_ERRORS``, that ends its estimate.  A ConfigError propagates.

    The results are the ``MinimizeResult`` of :func:`naive_estimate` for
    the goal "naive", the ``GridEstimates`` of :func:`grid_estimate` for
    "grid", and the ``EstimateResult`` of :func:`direct_estimate` or
    :func:`ex_estimate` for "direct" or "ex".  This is the one place that
    orders the stages, decides the fallback from the direct path to the
    grid, and words each failure.  Each continuation step, and each grid
    point after the first, starts every row from its own prediction
    (:func:`_predicted`), so a stacked row starts where its scalar solve
    would.  A configured start of the wrong length is a ConfigError before
    any solve, on every path.  Each dataset's responses are checked once:
    one dataset's by its solver (:func:`row_solver`), and a stack's each by
    its own start, so that a dataset outside the family domain fails alone.
    """
    if cfg.start is not None:
        flat_theta(cfg.start, model.n_params(datasets[0].p))
    stacked = len(datasets) > 1
    if stacked:
        solve = row_solver(model, datasets[0], cfg, np.stack([d.z for d in datasets]),
                           np.stack([d.y for d in datasets]))
    else:
        # one dataset is solved in place, never copied into a stack; its
        # solver checks its responses, once
        solve = _each(datasets, lambda d: row_solver(model, d, cfg))[0]
        if isinstance(solve, Exception):
            return [solve]
    has_int = model.has_intercept
    direct = goal == "direct" or (goal == "ex" and model.pluggable and not cfg.force_grid)

    def plugged(flat, naive_flat, diagnostics) -> EstimateResult:
        return EstimateResult(
            theta_hat=Theta.from_flat(flat, has_int), path="direct", kind=None,
            naive=Theta.from_flat(naive_flat, has_int), diagnostics=diagnostics,
        )

    if direct and model.family == "linear":
        # the closed forms at lambda = 0 and -1, then one numeric check at -1
        out = _each(datasets, lambda d: [linear_closed_form(d, lam, has_int) for lam in (0.0, -1.0)])
        rows = _live(out, range(len(datasets)))
        if rows.size == 0:
            return out
        flats = np.array([out[r][1] for r in rows])
        check = solve(rows, -1.0, flats)
        scale = 1.0 + np.abs(flats).max(axis=1)
        off = np.abs(check.theta_hat - flats).max(axis=1) > 1e-6 * scale
        for i, r in enumerate(rows):
            naive_flat, flat = out[r]
            out[r] = (
                plugged(flat, naive_flat, {"direct": _row(check, i)})
                if check.converged[i] and not off[i]
                else EstimationError("numeric minimization disagrees with the linear closed form")
            )
        return out

    def start(d: Dataset) -> np.ndarray:
        if stacked:
            model.validate_y(d.y)  # a stacked solve checks every set's responses at once
        return cfg.start_for(model, d)

    out = _each(datasets, start)
    rows = _live(out, range(len(datasets)))
    if rows.size == 0:
        return out
    first = solve(rows, 0.0, np.stack([out[r] for r in rows]))
    for i, r in enumerate(rows):
        out[r] = (
            _row(first, i) if first.converged[i]
            else EstimationError(f"naive estimate did not converge (status {first.status[i]})")
        )
    if goal == "naive":
        return out
    if direct:
        # a row without a naive estimate has no branch to follow
        ok = np.flatnonzero(first.converged)
        if ok.size == 0:
            return out
        left_at, last = _continue(solve, rows[ok], _take(first, ok))
        collapsed = ~np.isnan(left_at)
        for j, i in enumerate(ok[~collapsed]):
            out[rows[i]] = plugged(last.theta_hat[j], first.theta_hat[i],
                                   {"naive": out[rows[i]], "direct": _row(last, j)})
        fallback = ok[collapsed]
        for i, lam in zip(fallback, left_at[collapsed]):
            out[rows[i]] = BranchCollapseError(
                f"the corrected objective has no local minimizer near the "
                f"naive branch at lambda = {float(lam)}; use the grid path"
            )
        if goal == "direct" or fallback.size == 0:
            return out
        # the nonnegative-lambda objectives are coercive, so a row whose
        # branch collapsed extrapolates from its naive solve
        rows, first = rows[fallback], _take(first, fallback)
    # every further grid point, warm-started at the row's predicted
    # minimizer; on the grid path a failed naive solve is a failed lambda = 0
    # point
    results = _grid_points(solve, rows, first, cfg.grid.values)
    thetas = np.stack([res.theta_hat for res in results], axis=1)
    failed = ~np.stack([res.converged for res in results], axis=1)
    for i, r in enumerate(rows):
        out[r] = (
            GridConvergenceError(
                "grid minimization failed to converge at lambda = "
                + ", ".join(f"{v:g}" for v in cfg.grid.values[failed[i]])
            )
            if failed[i].any()
            else GridEstimates(cfg.grid, thetas[i], [_row(res, i) for res in results])
        )
    if goal == "grid":
        return out
    rows = _live(out, rows)
    fits = _each([out[r] for r in rows], lambda ge: extrapolated(ge, cfg.kind, has_int))
    for r, outcome in zip(rows, fits):
        out[r] = outcome
    return out


def extrapolated(
    ge: GridEstimates, kind: str, has_intercept: bool, mc_se: np.ndarray | None = None
) -> EstimateResult:
    """The grid path's estimate: the ``kind`` extrapolant fitted to ``ge``
    and evaluated at lambda = -1, with the lambda = 0 point as the naive
    estimate."""
    fit = fit_extrapolant(ge, kind)
    return EstimateResult(
        theta_hat=Theta.from_flat(extrapolate_to_minus_one(fit), has_intercept),
        path="extrapolated", kind=kind,
        naive=Theta.from_flat(ge.thetas[0], has_intercept), grid=ge, extrapolant=fit,
        mc_se=mc_se,
    )


def _grid_points(
    solve, rows: np.ndarray, first: MinimizeResult, lams: np.ndarray
) -> list[MinimizeResult]:
    """The results of ``rows`` at each point of the grid ``lams``: ``first``,
    their naive solve, at lambda = 0, and one ``solve`` per further point,
    each row from its predicted minimizer (:func:`_predicted`)."""
    results = [first]
    for k in range(1, lams.size):
        results.append(solve(rows, float(lams[k]), _predicted(results, lams[:k + 1])))
    return results


def _predicted(results: list[MinimizeResult], lams: np.ndarray) -> np.ndarray:
    """Each row's start at the grid point or continuation step ``lams[-1]``,
    from the ``results`` of the points before it, at ``lams[:-1]``.

    The quadratic through the three previous minimizers, evaluated at
    lam_k by its Lagrange weights, so an uneven grid needs no rule of its
    own, where all three converged.  Otherwise the secant through the two
    previous minimizers, theta_(k-1) + (lam_k - lam_(k-1)) / (lam_(k-1) -
    lam_(k-2)) (theta_(k-1) - theta_(k-2)), where both converged, as at the
    third grid point.  Otherwise, and at the second grid point, the
    previous minimizer.  The arithmetic is elementwise, so a stacked row
    gets the bits of its own scalar prediction.
    """
    prev = results[-1].theta_hat
    if len(results) < 2:
        return prev
    before = results[-2].theta_hat
    two = results[-2].converged & results[-1].converged
    x = float(lams[-1])
    ratio = (x - float(lams[-2])) / float(lams[-2] - lams[-3])

    def secant():
        return prev + ratio * (prev - before)

    # where every row converged, the rule's arithmetic alone has the bits
    # that np.where would pick, at a fraction of its cost
    if len(results) < 3:
        if two.all():
            return secant()
        with np.errstate(over="ignore", invalid="ignore"):  # a failed row may hold inf
            return np.where(two[:, None], secant(), prev)
    three = two & results[-3].converged
    a, b, c = (float(v) for v in lams[-4:-1])

    def quadratic():
        return ((x - a) * (x - b) / ((c - a) * (c - b)) * prev
                + (x - a) * (x - c) / ((b - a) * (b - c)) * before
                + (x - b) * (x - c) / ((a - b) * (a - c)) * results[-3].theta_hat)

    if three.all():
        return quadratic()
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(three[:, None], quadratic(), np.where(two[:, None], secant(), prev))


def _live(outcomes: list, rows) -> np.ndarray:
    """The ``rows`` whose outcome is not an error, as an index array."""
    return np.array([r for r in rows if not isinstance(outcomes[r], Exception)], dtype=int)


def _each(items, fn) -> list:
    """``fn``'s value on each of ``items``, or the error, one of
    ``ESTIMATE_ERRORS``, that it raised there.  A ConfigError is the
    configuration's, not the item's, and propagates."""
    out = []
    for item in items:
        try:
            out.append(fn(item))
        except ConfigError:
            raise
        except ESTIMATE_ERRORS as exc:
            out.append(exc)
    return out
