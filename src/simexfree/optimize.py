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
# minimize_batch keeps each row's status as an index into this tuple
_STATUSES = ("max_iters", "grad_tol", "step_tol", "line_search", "nonfinite", "infeasible")
_MAX_ITERS, _GRAD_TOL, _STEP_TOL, _LINE_SEARCH, _NONFINITE, _INFEASIBLE = range(6)


@dataclass
class MinimizeOptions:
    """Options for :func:`minimize`.

    ``method`` is ``"quasi-newton"`` (BFGS-style inverse-Hessian updates with
    a halving Armijo backtracking line search) or ``"simplex"`` (Nelder-Mead
    with reflection 1, expansion 2, contraction 0.5, shrink 0.5).

    ``hinv`` is the quasi-Newton method's initial inverse Hessian, shape
    (q, q), or (B, q, q) for :func:`minimize_batch`; None means the
    identity.  One rule tells a fresh start from a carried one: a run (or
    a batch row) whose initial inverse Hessian equals the identity, given
    or not, scales its first step to length at most 1 and, after it,
    rescales the identity by s'y / y'y, because the identity knows nothing
    of the objective's scale.  A run from any other ``hinv``, such as the
    one that a solve of a nearby objective finished with, trusts it and
    does neither.  The lambda grid carries each point's final ``hinv`` to
    the next point this way, with a start predicted by the secant through
    the two previous minimizers.  Classical SIMEX carries both when B is
    large against the cost of the grid: each pseudo-data set starts from the
    grid's minimizer at its noise level and the inverse Hessian the grid's
    solve there finished with.  The direct path's continuation carries
    neither (see ``EstimateConfig``).
    """

    start: np.ndarray | None = None
    method: str = "quasi-newton"
    max_iters: int = 500
    grad_tol: float = 1e-8
    step_tol: float = 1e-10
    hinv: np.ndarray | None = None

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
    ``grad_norm`` is NaN for the simplex method.  ``hinv`` is the inverse
    Hessian that the quasi-Newton run finished with, to start a run on a
    nearby objective from (see :class:`MinimizeOptions`): a run that exited
    before its first update, such as one that starts at its minimizer,
    hands on its initial one, so a run from the identity hands on the
    identity and the next run starts fresh.  It is None for the simplex
    method and for an ``infeasible`` exit.  A result of
    :func:`minimize_batch` holds arrays: each field has a leading batch
    axis, ``status`` is an array of these strings, and ``hinv`` has shape
    (B, q, q), with NaN rows for the ``infeasible`` ones.
    """

    theta_hat: np.ndarray
    value: float
    grad_norm: float
    iters: int
    converged: bool
    status: str
    hinv: np.ndarray | None = None


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
    _check_hinv(opts, (x0.size, x0.size))
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


def _check_hinv(opts: MinimizeOptions, shape: tuple) -> None:
    """Raise unless ``opts.hinv`` is None or a finite array of ``shape``
    for the quasi-Newton method."""
    if opts.hinv is None:
        return
    if opts.method != "quasi-newton":
        raise ConfigError("hinv applies only to the quasi-newton method")
    hinv = np.asarray(opts.hinv, dtype=float)
    if hinv.shape != shape:
        raise ConfigError(f"options.hinv must have shape {shape}, got {hinv.shape}")
    if not np.isfinite(hinv).all():
        raise ConfigError("options.hinv must be finite")


def _bfgs(f, grad, x0, f0, opts) -> MinimizeResult:
    n = x0.size
    eye = np.eye(n)
    hinv = eye.copy() if opts.hinv is None else np.array(opts.hinv, dtype=float)
    # only the identity lacks the objective's scale (see MinimizeOptions)
    fresh = opts.hinv is None or np.array_equal(hinv, eye)
    x, fx = x0, f0
    gx = np.asarray(grad(x), dtype=float)
    gnorm = float(np.linalg.norm(gx))
    iters = 0
    while iters < opts.max_iters:
        if not np.isfinite(gnorm):
            return MinimizeResult(x, fx, gnorm, iters, False, "nonfinite", hinv)
        if gnorm <= opts.grad_tol:
            return MinimizeResult(x, fx, gnorm, iters, True, "grad_tol", hinv)
        d = -hinv @ gx
        slope = float(gx @ d)
        if slope >= 0.0:
            # curvature information went bad; restart from steepest descent
            hinv = eye.copy()
            d = -gx
            slope = float(gx @ d)
        # unit-length first step: with hinv = I a steep gradient would
        # otherwise overshoot into a distant basin
        step = min(1.0, 1.0 / gnorm) if iters == 0 and fresh else 1.0
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
            return MinimizeResult(x, fx, gnorm, iters, False, "line_search", hinv)
        s = xn - x
        gn = np.asarray(grad(xn), dtype=float)
        yv = gn - gx
        sy = float(s @ yv)
        if iters == 1 and sy > 0 and fresh:
            hinv = (sy / float(yv @ yv)) * eye
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            rho = 1.0 / sy
            v = eye - rho * np.outer(s, yv)
            hinv = v @ hinv @ v.T + rho * np.outer(s, s)
        x, fx, gx = xn, fn, gn
        gnorm = float(np.linalg.norm(gx))
        # a non-finite gradient exits nonfinite at the loop head, however short the step
        if np.isfinite(gnorm) and float(np.linalg.norm(s)) <= opts.step_tol:
            return MinimizeResult(x, fx, gnorm, iters, True, "step_tol", hinv)
    # the iteration budget ran out
    status = "max_iters" if np.isfinite(gnorm) else "nonfinite"
    if gnorm <= opts.grad_tol:
        status = "grad_tol"
    return MinimizeResult(x, fx, gnorm, iters, status == "grad_tol", status, hinv)


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

    ``options.start`` has shape (B, q), one start per row, and
    ``options.hinv``, when given, has shape (B, q, q): every row then starts
    from its own inverse Hessian, as :func:`minimize` does from a (q, q)
    one.  ``fg(theta, rows, bound)`` evaluates the objectives ``rows`` (an
    increasing index array of length k) at ``theta`` (k, q) and returns
    their values, shape (k,), and gradients, shape (k, q).  Only the rows
    whose value is finite and at most ``bound`` (k,) need a gradient: these
    are the trial points that pass the Armijo test, and the solver reads no
    other row of the gradients.  Computing both from one evaluation means
    each trial point is evaluated once and an accepted one is never
    evaluated again.  Each row keeps its own inverse Hessian, step,
    iteration count and status, and takes the steps that :func:`minimize`
    takes on that objective alone, from the same ``hinv``.  A row that has
    exited is never evaluated again, so no row's result depends on the
    others.  The result's fields carry a leading batch axis.
    """
    if options.method != "quasi-newton":
        raise ConfigError("minimize_batch supports only the quasi-newton method")
    if options.start is None:
        raise ConfigError("options.start is required")
    x = np.array(options.start, dtype=float)
    if x.ndim != 2:
        raise ConfigError(f"options.start must have shape (B, q), got {x.shape}")
    size, q = x.shape
    _check_hinv(options, (size, q, q))
    eye = np.eye(q)
    hinv = np.tile(eye, (size, 1, 1)) if options.hinv is None else np.array(options.hinv, dtype=float)
    # only the identity lacks the objective's scale (see MinimizeOptions)
    fresh = (hinv == eye).all(axis=(1, 2))
    act = np.arange(size)
    fx, g0 = fg(x, act, np.full(size, np.inf))
    fx = np.asarray(fx, dtype=float)
    gx = np.zeros_like(x)
    gnorm = np.full(size, np.nan)
    iters = np.zeros(size, dtype=int)
    # indices into _STATUSES until the return
    status = np.full(size, _MAX_ITERS)
    feasible = np.isfinite(fx)
    status[~feasible] = _INFEASIBLE
    hinv[~feasible] = np.nan
    act = act[feasible]
    if act.size:
        gx[act] = g0[feasible]
        gnorm[act] = np.sqrt(batch_dot(gx[act], gx[act]))
    for it in range(options.max_iters):
        g = gnorm[act]
        nonfinite = ~np.isfinite(g)
        done = nonfinite | (g <= options.grad_tol)
        if done.any():
            status[act[done]] = np.where(nonfinite[done], _NONFINITE, _GRAD_TOL)
            act = act[~done]
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
        if it == 0:
            step = np.where(fresh[act], np.minimum(1.0, 1.0 / gnorm[act]), 1.0)
        else:
            step = np.ones(act.size)
        # the first trial covers every row; the backtracks, the rows it rejected
        xa, fa = x[act], fx[act]
        xn = xa + step[:, None] * d
        bound = fa + _ARMIJO * step * slope
        fn, gn = fg(xn, act, bound)
        fn, gn = np.array(fn, dtype=float), np.array(gn, dtype=float)
        accepted = np.isfinite(fn) & (fn <= bound)
        pend = np.flatnonzero(~accepted)
        for _ in range(_MAX_BACKTRACKS - 1):
            if pend.size == 0:
                break
            step[pend] *= 0.5
            xt = xa[pend] + step[pend, None] * d[pend]
            bound = fa[pend] + _ARMIJO * step[pend] * slope[pend]
            ft, gt = fg(xt, act[pend], bound)
            ft = np.asarray(ft, dtype=float)
            ok = np.isfinite(ft) & (ft <= bound)
            hit = pend[ok]
            xn[hit], fn[hit], gn[hit], accepted[hit] = xt[ok], ft[ok], gt[ok], True
            pend = pend[~ok]
        iters[act] += 1
        if pend.size:
            status[act[~accepted]] = _LINE_SEARCH
            act = act[accepted]
            if act.size == 0:
                break
            h, xn, fn, gn = h[accepted], xn[accepted], fn[accepted], gn[accepted]
        s = xn - x[act]
        yv = gn - gx[act]
        sy = batch_dot(s, yv)
        if it == 0:
            first = fresh[act] & (sy > 0)
            h[first] = (sy[first] / batch_dot(yv[first], yv[first]))[:, None, None] * eye
        snorm = np.sqrt(batch_dot(s, s))
        upd = sy > 1e-12 * snorm * np.sqrt(batch_dot(yv, yv))
        if upd.any():
            # a slice selects every row without copying
            sel = slice(None) if upd.all() else upd
            su, yu = s[sel], yv[sel]
            rho = (1.0 / sy[sel])[:, None, None]
            v = eye - rho * (su[:, :, None] * yu[:, None, :])
            h[sel] = v @ h[sel] @ v.transpose(0, 2, 1) + rho * (su[:, :, None] * su[:, None, :])
        hinv[act], x[act], fx[act], gx[act] = h, xn, fn, gn
        gnorm[act] = np.sqrt(batch_dot(gn, gn))
        stalled = (snorm <= options.step_tol) & np.isfinite(gnorm[act])
        if stalled.any():
            status[act[stalled]] = _STEP_TOL
            act = act[~stalled]
    # the iteration budget ran out for the rows still active
    g = gnorm[act]
    status[act] = np.where(g <= options.grad_tol, _GRAD_TOL,
                           np.where(np.isfinite(g), _MAX_ITERS, _NONFINITE))
    converged = (status == _GRAD_TOL) | (status == _STEP_TOL)
    return MinimizeResult(x, fx, gnorm, iters, converged, np.array(_STATUSES)[status], hinv)


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
