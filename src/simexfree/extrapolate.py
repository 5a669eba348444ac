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
from .optimize import MinimizeOptions, MinimizeResult, minimize, minimize_batch
from .targets import STACK_CHUNK_VALUES, ModelSpec, TargetContext, Theta, naive_start
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

# the direct path's continuation from the naive estimate down to lambda = -1
CONTINUATION = (-0.25, -0.5, -0.75, -1.0)
# the rows of a one-dataset estimate (see row_solver)
_ONE = np.zeros(1, dtype=int)
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
        """The configured start, or the family's default one on ``dataset``,
        as a flat float array."""
        start = naive_start(model, dataset) if self.start is None else self.start
        return np.asarray(start, dtype=float).ravel()


# --------------------------------------------------------------------------
# options and solves at one noise level
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
    y: np.ndarray | None = None,
) -> MinimizeResult:
    """Minimize the family objective at one noise level from a given start.

    This is the one-row solve of :func:`row_solver`.  ``z`` (n, p) and
    ``y`` (n,) replace ``dataset.z`` and ``dataset.y`` by one data set of
    the same shape that shares the dataset's sigma_u.  Each trial point
    runs the family kernel once: the quasi-Newton method asks for a
    gradient only at the point it has just evaluated and accepted, and gets
    it from that evaluation's ``grad`` callable, so a rejected trial never
    pays for a gradient and an accepted one never redoes its setup.
    """
    ctx = TargetContext(dataset=dataset, model=model, lam=lam, nodes=nodes, z=z, y=y)
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


def minimize_stack(
    model: ModelSpec,
    dataset: Dataset,
    lam: float,
    options: MinimizeOptions,
    nodes: int = 30,
    z: np.ndarray | None = None,
    y: np.ndarray | None = None,
) -> MinimizeResult:
    """Minimize the family objective at one noise level on B stacked data
    sets at once, by :func:`minimize_batch` from the starts ``options.start``
    (B, q).

    The family's record must be ``batched``.  ``z`` (B, n, p) and ``y``
    (B, n, or None for ``dataset.y`` in every set) stack the data sets,
    which share the dataset's sigma_u (see :class:`TargetContext`).  Each
    call of the solver runs the kernel once per chunk of at most
    ``STACK_CHUNK_VALUES // n`` sets and finishes the chunk's gradients from
    that call when one of its trial points passes the Armijo test, so no
    trial's B x n temporaries outlive their chunk.  Each row equals its
    scalar :func:`minimize_target` solve bit for bit.
    """
    ctx = TargetContext(dataset=dataset, model=model, lam=lam, nodes=nodes, z=z, y=y)
    kernel = model.record.kernel
    chunk = max(1, STACK_CHUNK_VALUES // dataset.n)

    def evaluate(theta, rows, bound):
        values = np.empty(rows.size)
        grads = np.empty(theta.shape)
        for i in range(0, rows.size, chunk):
            part = slice(i, i + chunk)
            v, grad = kernel(ctx.take(rows[part]), theta[part])
            values[part] = v
            if np.any(np.isfinite(v) & (v <= bound[part])):
                grads[part] = grad()
        return values, grads

    return minimize_batch(evaluate, options)


def row_solver(
    model: ModelSpec,
    dataset: Dataset,
    cfg: EstimateConfig,
    z: np.ndarray | None = None,
    y: np.ndarray | None = None,
) -> Callable[[np.ndarray, float, np.ndarray], MinimizeResult]:
    """The ``solve(rows, lam, starts)`` that every estimator stage runs.

    The rows are the data sets ``z`` (R, n, p) with responses ``y`` (R, n,
    or None for ``dataset.y`` in every set), which share the dataset's
    sigma_u, or without ``z`` the dataset alone, as row 0.  ``solve``
    minimizes the objective at ``lam`` on ``rows``, an increasing index
    array, from ``starts`` (one per row), with the options of ``cfg`` at
    that level (see :func:`point_options`), and returns a batch result, one
    row per solved row.  When the family is ``batched``, the options at
    ``lam`` are quasi-Newton and more than one row is solved, that is one
    :func:`minimize_stack` run; otherwise one :func:`minimize_target` per
    row.  Either way each row has the bits of its own scalar solve.
    """

    def solve(rows: np.ndarray, lam: float, starts: np.ndarray) -> MinimizeResult:
        if model.record.batched and rows.size > 1:
            opts = point_options(model, lam, starts, cfg.options)
            if opts.method == "quasi-newton":
                # rows are increasing, so as many rows as sets are all of them
                every = rows.size == z.shape[0]
                zs = z if every else z[rows]
                ys = y if every or y is None else y[rows]
                return minimize_stack(model, dataset, lam, opts, cfg.nodes, zs, ys)
        return _stacked([
            minimize_target(model, dataset, lam, start, cfg.options, cfg.nodes,
                            None if z is None else z[r], None if y is None else y[r])
            for r, start in zip(rows, starts)
        ])

    return solve


def _stacked(results: list[MinimizeResult]) -> MinimizeResult:
    """Scalar results as one batch result, one row each."""
    return MinimizeResult(*map(np.array, zip(*(vars(r).values() for r in results))))


def _take(res: MinimizeResult, rows) -> MinimizeResult:
    """The batch result of ``rows``, an index or mask, of a batch result."""
    return MinimizeResult(*(v[rows] for v in vars(res).values()))


def _row(res: MinimizeResult, i: int) -> MinimizeResult:
    """Row i of a batch result, as the result of its own scalar solve."""
    return MinimizeResult(
        res.theta_hat[i], float(res.value[i]), float(res.grad_norm[i]),
        int(res.iters[i]), bool(res.converged[i]), str(res.status[i]),
    )


def naive_estimate(
    model: ModelSpec, dataset: Dataset, config: EstimateConfig | None = None
) -> MinimizeResult:
    """Classical estimate on the observed data: the lambda = 0 minimizer."""
    cfg = config or EstimateConfig()
    solve = row_solver(model, dataset, cfg)
    res = _row(solve(_ONE, 0.0, cfg.start_for(model, dataset)[None]), 0)
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


def _check_closed_form(
    solve, rows: np.ndarray, flats: np.ndarray
) -> tuple[np.ndarray, MinimizeResult]:
    """The numeric check at lambda = -1 of the linear closed forms ``flats``
    (k, q) of ``rows``: which rows it confirms, converged within
    1e-6 (1 + max|flat|) of the closed form, and the check's result."""
    check = solve(rows, -1.0, flats)
    scale = 1.0 + np.abs(flats).max(axis=1)
    off = np.abs(check.theta_hat - flats).max(axis=1) > 1e-6 * scale
    return check.converged & ~off, check


def _continue(
    solve, rows: np.ndarray, cur: np.ndarray
) -> tuple[np.ndarray, np.ndarray, MinimizeResult | None]:
    """Track each row's minimizer from its naive estimate ``cur`` (k, q)
    down :data:`CONTINUATION` to lambda = -1.

    The corrected objectives are not coercive at negative lambda (the
    correction factor lets a few extreme rows dominate far from the truth),
    so each step is a warm-started local solve that must stay on the branch
    through the naive estimate.  A step that does not converge, or jumps
    past the trust radius 0.5 (1 + max|cur|) from its start ``cur``, means
    the branch minimizer has ceased to exist for this row (a fold), and
    only the lambda-grid path is available.

    Returns the lambda at which each row left the branch (NaN where it
    stayed), the estimates of the rows that stayed, and the result of the
    last step.
    """
    left_at = np.full(rows.size, np.nan)
    live = np.arange(rows.size)
    res = None
    for lam in CONTINUATION:
        if live.size == 0:
            break
        res = solve(rows[live], lam, cur)
        radius = 0.5 * (1.0 + np.abs(cur).max(axis=1))
        stay = res.converged & ~(np.abs(res.theta_hat - cur).max(axis=1) > radius)
        left_at[live[~stay]] = lam
        live, cur = live[stay], res.theta_hat[stay]
    return left_at, cur, res


def _grid(
    solve, rows: np.ndarray, lams: np.ndarray, first: MinimizeResult
) -> tuple[list[MinimizeResult], np.ndarray, np.ndarray]:
    """Each row's minimizer at every lambda of ``lams``, from its lambda = 0
    solve ``first``, each warm-started at the row's previous minimizer,
    converged or not.

    Returns each lambda's result, the minimizers (k, K, q), and which row
    did not converge at which lambda (k, K).
    """
    results = [first]
    for lam in lams[1:]:
        results.append(solve(rows, float(lam), results[-1].theta_hat))
    thetas = np.stack([r.theta_hat for r in results], axis=1)
    failed = ~np.stack([r.converged for r in results], axis=1)
    return results, thetas, failed


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
    solve = row_solver(model, dataset, cfg)
    has_int = model.has_intercept
    if model.family == "linear":
        naive_flat = linear_closed_form(dataset, 0.0, has_int)
        flat = linear_closed_form(dataset, -1.0, has_int)
        ok, check = _check_closed_form(solve, _ONE, flat[None])
        if not ok[0]:
            raise EstimationError(
                "numeric minimization disagrees with the linear closed form"
            )
        diag = {"direct": _row(check, 0)}
    else:
        naive = naive_estimate(model, dataset, cfg)
        left_at, flats, last = _continue(solve, _ONE, naive.theta_hat[None])
        if not np.isnan(left_at[0]):
            raise BranchCollapseError(
                f"the corrected objective has no local minimizer near the "
                f"naive branch at lambda = {float(left_at[0])}; use the grid path"
            )
        naive_flat, flat = naive.theta_hat, flats[0]
        diag = {"naive": naive, "direct": _row(last, 0)}
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
    solve = row_solver(model, dataset, cfg)
    first = solve(_ONE, 0.0, cfg.start_for(model, dataset)[None])
    results, thetas, failed = _grid(solve, _ONE, cfg.grid.values, first)
    if failed[0].any():
        raise GridConvergenceError(
            "grid minimization failed to converge at lambda = "
            + ", ".join(f"{v:g}" for v in cfg.grid.values[failed[0]])
        )
    return GridEstimates(
        grid=cfg.grid, thetas=thetas[0], diagnostics=[_row(r, 0) for r in results]
    )


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
    - each step of :data:`CONTINUATION`, with the branch test of
      :func:`direct_estimate`;
    - for the datasets whose branch collapsed (or all, on the grid path),
      each further grid point of :func:`grid_estimate`, whose lambda = 0
      point is the naive solve.  The extrapolant is then fitted per dataset;
    - for the linear family, the closed forms per dataset and one numeric
      check at lambda = -1.

    Entry r equals the estimate on ``datasets[r]`` alone bit for bit, or is
    None where that estimate raises one of ``ESTIMATE_ERRORS``.  A
    ConfigError is a mistake in the configuration, not in one dataset, and
    propagates.
    """
    cfg = config or EstimateConfig()
    if any(not np.array_equal(d.sigma_u, datasets[0].sigma_u) for d in datasets):
        raise ConfigError("stacked datasets must share sigma_u")
    done = dict(_stages(model, datasets, cfg, naive)) if datasets else {}
    return [done.get(r) for r in range(len(datasets))]


def _stages(model: ModelSpec, datasets: Sequence[Dataset], cfg: EstimateConfig, naive: bool):
    """(index, flat estimate) of each of ``datasets`` whose estimate succeeds."""
    solve = row_solver(model, datasets[0], cfg, np.stack([d.z for d in datasets]),
                       np.stack([d.y for d in datasets]))
    has_int = model.has_intercept
    direct = model.pluggable and not cfg.force_grid and not naive
    if direct and model.family == "linear":

        def closed_form(d: Dataset) -> np.ndarray:
            linear_closed_form(d, 0.0, has_int)  # the naive one can raise too
            return linear_closed_form(d, -1.0, has_int)

        rows, flats = _each(datasets, closed_form)
        if rows.size:
            ok = _check_closed_form(solve, rows, flats)[0]
            yield from zip(rows[ok], flats[ok])
        return

    def start(d: Dataset) -> np.ndarray:
        model.validate_y(d.y)  # a stacked solve checks every set's responses at once
        return cfg.start_for(model, d)

    rows, starts = _each(datasets, start)
    if rows.size == 0:
        return
    first = solve(rows, 0.0, starts)
    # a row whose naive solve failed fails on either path
    rows, first = rows[first.converged], _take(first, first.converged)
    if naive:
        yield from zip(rows, first.theta_hat)
        return
    if direct:
        left_at, flats, _ = _continue(solve, rows, first.theta_hat)
        stayed = np.isnan(left_at)
        yield from zip(rows[stayed], flats)
        rows, first = rows[~stayed], _take(first, ~stayed)
    if rows.size == 0:
        return
    _, thetas, failed = _grid(solve, rows, cfg.grid.values, first)
    converged = ~failed.any(axis=1)
    rows, thetas = rows[converged], thetas[converged]
    fitted, flats = _each(
        thetas,
        lambda th: extrapolate_to_minus_one(
            fit_extrapolant(GridEstimates(grid=cfg.grid, thetas=th), cfg.kind)
        ),
    )
    yield from zip(rows[fitted], flats)


def _each(items, fn) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the ``items`` on which ``fn`` raises none of
    ``ESTIMATE_ERRORS``, and its values there, stacked.  A ConfigError
    propagates."""
    indices, values = [], []
    for i, item in enumerate(items):
        try:
            values.append(fn(item))
        except ConfigError:
            raise
        except ESTIMATE_ERRORS:
            continue
        indices.append(i)
    return np.array(indices, dtype=int), np.array(values)
