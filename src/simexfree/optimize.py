"""Unconstrained minimization: quasi-Newton with backtracking, and Nelder-Mead.

Both methods are deterministic: repeated runs on the same inputs produce
identical results, and accepted iterate values are non-increasing.
:func:`minimize_batch` runs the quasi-Newton method on a batch of
independent objectives at once, one row of state per objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, EstimationError

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60


@dataclass
class MinimizeOptions:
    """Options for :func:`minimize`.

    ``method`` is ``"quasi-newton"`` (BFGS-style inverse-Hessian updates with
    a halving Armijo backtracking line search) or ``"simplex"`` (Nelder-Mead
    with reflection 1, expansion 2, contraction 0.5, shrink 0.5).
    """

    start: np.ndarray | None = None
    method: str = "quasi-newton"
    max_iters: int = 500
    grad_tol: float = 1e-8
    step_tol: float = 1e-10

    def __post_init__(self):
        if self.method not in ("quasi-newton", "simplex"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if self.grad_tol <= 0 or self.step_tol <= 0:
            raise ConfigError("tolerances must be positive")


@dataclass
class MinimizeResult:
    """Converged point and diagnostics.

    ``status`` is one of:

    - ``grad_tol``: the gradient norm is within ``grad_tol``;
    - ``step_tol``: the last accepted step was within ``step_tol`` (for the
      simplex method, the simplex diameter);
    - ``max_iters``: the iteration budget ran out;
    - ``line_search``: no backtracking step passed the Armijo test;
    - ``nonfinite``: the gradient norm is not finite;
    - ``infeasible``: the value at the start is not finite.

    ``converged`` is True exactly for ``grad_tol`` and ``step_tol``.
    ``grad_norm`` is NaN for the simplex method.  A result of
    :func:`minimize_batch` holds arrays: each field has a leading batch
    axis, and ``status`` is an array of these strings.
    """

    theta_hat: np.ndarray
    value: float
    grad_norm: float
    iters: int
    converged: bool
    status: str


def finite_difference_gradient(f, theta, h=None) -> np.ndarray:
    """Central-difference gradient of ``f`` at ``theta``.

    Default per-coordinate step: max(1e-6, 1e-7 * |theta_j|).
    """
    theta = np.asarray(theta, dtype=float)
    if h is None:
        h = np.maximum(1e-6, 1e-7 * np.abs(theta))
    else:
        h = np.broadcast_to(np.asarray(h, dtype=float), theta.shape)
    g = np.empty_like(theta)
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h[j]
        up = f(theta + step)
        dn = f(theta - step)
        if not (np.isfinite(up) and np.isfinite(dn)):
            raise EstimationError(
                f"non-finite value when differentiating coordinate {j}"
            )
        g[j] = (up - dn) / (2.0 * h[j])
    return g


def minimize(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray] | None = None,
    options: MinimizeOptions | None = None,
) -> MinimizeResult:
    """Minimize ``f`` from ``options.start``, optionally using gradient ``grad``.

    A non-finite value at the start yields status ``infeasible`` instead of
    raising.  Without ``grad``, the quasi-Newton method falls back to central
    finite differences; a non-finite difference ends the run with status
    ``nonfinite`` at the last accepted point.  There is no per-iteration
    hook: to count or log evaluations, wrap ``f`` and ``grad``; to see the
    accepted values, rerun with a smaller ``max_iters`` (both methods are
    deterministic).
    """
    opts = options or MinimizeOptions()
    if opts.start is None:
        raise ConfigError("options.start is required")
    x0 = np.asarray(getattr(opts.start, "flat_vector", opts.start), dtype=float).ravel()
    f0 = float(f(x0))
    if not np.isfinite(f0):
        return MinimizeResult(x0, f0, np.nan, 0, False, "infeasible")
    if opts.method == "simplex":
        return _nelder_mead(f, x0, f0, opts)
    return _bfgs(f, grad if grad is not None else (lambda th: _fd_or_nan(f, th)), x0, f0, opts)


def _fd_or_nan(f, theta) -> np.ndarray:
    """Central differences, or NaN when one is not finite: the run then ends
    with status ``nonfinite`` instead of raising mid-iteration."""
    try:
        return finite_difference_gradient(f, theta)
    except EstimationError:
        return np.full(theta.size, np.nan)


def _bfgs(f, grad, x0, f0, opts) -> MinimizeResult:
    n = x0.size
    eye = np.eye(n)
    hinv = eye.copy()
    x, fx = x0, f0
    gx = np.asarray(grad(x), dtype=float)
    gnorm = float(np.linalg.norm(gx))
    iters = 0
    while iters < opts.max_iters:
        if not np.isfinite(gnorm):
            return MinimizeResult(x, fx, gnorm, iters, False, "nonfinite")
        if gnorm <= opts.grad_tol:
            return MinimizeResult(x, fx, gnorm, iters, True, "grad_tol")
        d = -hinv @ gx
        slope = float(gx @ d)
        if slope >= 0.0:
            # curvature information went bad; restart from steepest descent
            hinv = eye.copy()
            d = -gx
            slope = float(gx @ d)
        # unit-length first step: with hinv = I a steep gradient would
        # otherwise overshoot into a distant basin
        step = min(1.0, 1.0 / gnorm) if iters == 0 else 1.0
        xn = x
        fn = fx
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            xn = x + step * d
            fn = float(f(xn))
            if np.isfinite(fn) and fn <= fx + _ARMIJO * step * slope:
                accepted = True
                break
            step *= 0.5
        iters += 1
        if not accepted:
            return MinimizeResult(x, fx, gnorm, iters, False, "line_search")
        s = xn - x
        gn = np.asarray(grad(xn), dtype=float)
        yv = gn - gx
        sy = float(s @ yv)
        if iters == 1 and sy > 0:
            hinv = (sy / float(yv @ yv)) * eye
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            rho = 1.0 / sy
            v = eye - rho * np.outer(s, yv)
            hinv = v @ hinv @ v.T + rho * np.outer(s, s)
        x, fx, gx = xn, fn, gn
        gnorm = float(np.linalg.norm(gx))
        # a non-finite gradient exits nonfinite at the loop head, however short the step
        if np.isfinite(gnorm) and float(np.linalg.norm(s)) <= opts.step_tol:
            return MinimizeResult(x, fx, gnorm, iters, True, "step_tol")
    status = _final_status(gnorm, opts.grad_tol)
    return MinimizeResult(x, fx, gnorm, iters, status == "grad_tol", status)


def _final_status(gnorm: float, grad_tol: float) -> str:
    """Status of a quasi-Newton run whose iteration budget ran out."""
    if gnorm <= grad_tol:
        return "grad_tol"
    return "max_iters" if np.isfinite(gnorm) else "nonfinite"


def batch_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, each row with the bits of ``a @ b``."""
    if a.ndim == 1 and b.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def minimize_batch(
    fg: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    options: MinimizeOptions,
) -> MinimizeResult:
    """Minimize B independent objectives at once by the quasi-Newton method.

    ``options.start`` has shape (B, q), one start per row.
    ``fg(theta, rows, bound)`` evaluates the objectives ``rows`` (an
    increasing index array of length k) at ``theta`` (k, q) and returns
    their values, shape (k,), and gradients, shape (k, q).  Only the rows
    whose value is finite and at most ``bound`` (k,) need a gradient: these
    are the trial points that pass the Armijo test, and the solver reads no
    other row of the gradients.  Computing both from one evaluation means
    each trial point is evaluated once and an accepted one is never
    evaluated again.  Each row keeps its own inverse Hessian, step,
    iteration count and status, and takes the steps that :func:`minimize`
    takes on that objective alone.  A row that has exited is never
    evaluated again, so no row's result depends on the others.  The
    result's fields carry a leading batch axis.
    """
    if options.method != "quasi-newton":
        raise ConfigError("minimize_batch supports only the quasi-newton method")
    if options.start is None:
        raise ConfigError("options.start is required")
    x = np.array(options.start, dtype=float)
    if x.ndim != 2:
        raise ConfigError(f"options.start must have shape (B, q), got {x.shape}")
    size, q = x.shape
    eye = np.eye(q)
    hinv = np.tile(eye, (size, 1, 1))
    act = np.arange(size)
    fx, g0 = fg(x, act, np.full(size, np.inf))
    fx = np.asarray(fx, dtype=float)
    gx = np.zeros_like(x)
    gnorm = np.full(size, np.nan)
    iters = np.zeros(size, dtype=int)
    status = np.full(size, "max_iters", dtype=object)
    feasible = np.isfinite(fx)
    status[~feasible] = "infeasible"
    act = act[feasible]
    if act.size:
        gx[act] = g0[feasible]
        gnorm[act] = np.sqrt(batch_dot(gx[act], gx[act]))
    for it in range(options.max_iters):
        g = gnorm[act]
        nonfinite = ~np.isfinite(g)
        small = g <= options.grad_tol
        status[act[nonfinite]] = "nonfinite"
        status[act[small]] = "grad_tol"
        act = act[~(nonfinite | small)]
        if act.size == 0:
            break
        ga, h = gx[act], hinv[act]
        d = -(h @ ga[..., None])[..., 0]
        slope = batch_dot(ga, d)
        reset = slope >= 0.0
        if reset.any():
            # curvature information went bad; restart from steepest descent
            h[reset] = eye
            d[reset] = -ga[reset]
            slope[reset] = batch_dot(ga[reset], d[reset])
        step = np.minimum(1.0, 1.0 / gnorm[act]) if it == 0 else np.ones(act.size)
        xa, fa = x[act], fx[act]
        xn, fn, gn = xa.copy(), fa.copy(), np.empty_like(xa)
        accepted = np.zeros(act.size, dtype=bool)
        pend = np.arange(act.size)
        for _ in range(_MAX_BACKTRACKS):
            xt = xa[pend] + step[pend, None] * d[pend]
            bound = fa[pend] + _ARMIJO * step[pend] * slope[pend]
            ft, gt = fg(xt, act[pend], bound)
            ft = np.asarray(ft, dtype=float)
            ok = np.isfinite(ft) & (ft <= bound)
            hit = pend[ok]
            xn[hit], fn[hit], gn[hit], accepted[hit] = xt[ok], ft[ok], gt[ok], True
            pend = pend[~ok]
            if pend.size == 0:
                break
            step[pend] *= 0.5
        iters[act] += 1
        status[act[~accepted]] = "line_search"
        act = moved = act[accepted]
        if moved.size == 0:
            break
        h, xn, fn, gn = h[accepted], xn[accepted], fn[accepted], gn[accepted]
        s = xn - x[moved]
        yv = gn - gx[moved]
        sy = batch_dot(s, yv)
        if it == 0:
            first = sy > 0
            h[first] = (sy[first] / batch_dot(yv[first], yv[first]))[:, None, None] * eye
        upd = sy > 1e-12 * np.sqrt(batch_dot(s, s)) * np.sqrt(batch_dot(yv, yv))
        if upd.any():
            su, yu = s[upd], yv[upd]
            rho = (1.0 / sy[upd])[:, None, None]
            v = eye - rho * (su[:, :, None] * yu[:, None, :])
            h[upd] = v @ h[upd] @ v.transpose(0, 2, 1) + rho * (su[:, :, None] * su[:, None, :])
        hinv[moved], x[moved], fx[moved], gx[moved] = h, xn, fn, gn
        gnorm[moved] = np.sqrt(batch_dot(gn, gn))
        stalled = (np.sqrt(batch_dot(s, s)) <= options.step_tol) & np.isfinite(gnorm[moved])
        status[moved[stalled]] = "step_tol"
        act = moved[~stalled]
    for i in act:
        status[i] = _final_status(gnorm[i], options.grad_tol)
    converged = (status == "grad_tol") | (status == "step_tol")
    return MinimizeResult(x, fx, gnorm, iters, converged, status)


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for j in range(n):
        if x0[j] != 0.0:
            sim[j + 1, j] *= 1.05
        else:
            sim[j + 1, j] = 0.00025
    return sim


def _nelder_mead(f, x0, f0, opts) -> MinimizeResult:
    # reflection 1, expansion 2, contraction 0.5, shrink 0.5
    n = x0.size
    sim = _initial_simplex(x0)
    fs = np.array([f0] + [float(f(sim[k])) for k in range(1, n + 1)])
    iters = 0
    while iters < opts.max_iters:
        order = np.argsort(fs, kind="stable")
        sim, fs = sim[order], fs[order]
        diam = float(np.max(np.abs(sim[1:] - sim[0])))
        if diam <= opts.step_tol:
            return MinimizeResult(sim[0], float(fs[0]), np.nan, iters, True, "step_tol")
        centroid = sim[:-1].mean(axis=0)
        xr = centroid + (centroid - sim[-1])
        fr = float(f(xr))
        if fr < fs[0]:
            xe = centroid + 2.0 * (centroid - sim[-1])
            fe = float(f(xe))
            if fe < fr:
                sim[-1], fs[-1] = xe, fe
            else:
                sim[-1], fs[-1] = xr, fr
        elif fr < fs[-2]:
            sim[-1], fs[-1] = xr, fr
        else:
            if fr < fs[-1]:
                xc = centroid + 0.5 * (centroid - sim[-1])
            else:
                xc = centroid - 0.5 * (centroid - sim[-1])
            fc = float(f(xc))
            if fc < min(fr, float(fs[-1])):
                sim[-1], fs[-1] = xc, fc
            else:
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fs[1:] = [float(f(v)) for v in sim[1:]]
        iters += 1
    order = np.argsort(fs, kind="stable")
    sim, fs = sim[order], fs[order]
    return MinimizeResult(sim[0], float(fs[0]), np.nan, iters, False, "max_iters")
