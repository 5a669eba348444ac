"""Unconstrained minimization: damped Newton or quasi-Newton with
backtracking, and Nelder-Mead.

Both methods are deterministic: repeated runs on the same inputs produce
identical results, and accepted iterate values are non-increasing.
:func:`minimize_batch` runs the quasi-Newton method on a batch of
independent objectives at once, one row of state per objective.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, EstimationError

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60
# how far a trial at a step backtracked to step_tol may lie above f, relative
# to 1 + |f|, for the run to end converged (see minimize)
_FLAT = 1e-10
# a Newton step whose predicted decrease -g'd / 2 is at most this, relative
# to 1 + |f|, is taken without evaluating its end point (see minimize)
_DECREMENT = 16 * math.ulp(1.0)
# minimize_batch keeps each row's status as an index into this tuple
_STATUSES = ("max_iters", "grad_tol", "step_tol", "line_search", "nonfinite", "infeasible",
             "decrement")
(_MAX_ITERS, _GRAD_TOL, _STEP_TOL, _LINE_SEARCH, _NONFINITE, _INFEASIBLE,
 _SMALL_DECREMENT) = range(7)


@dataclass
class MinimizeOptions:
    """Options for :func:`minimize`.

    ``method`` is ``"quasi-newton"`` (BFGS-style inverse-Hessian updates with
    a halving Armijo backtracking line search) or ``"simplex"`` (Nelder-Mead
    with reflection 1, expansion 2, contraction 0.5, shrink 0.5).  The
    quasi-Newton method takes a damped Newton step instead wherever the
    objective supplies its Hessian and that Hessian is positive definite
    (see :func:`minimize`); there is no option for it.  Every run starts its
    inverse Hessian from the identity, which knows nothing of the
    objective's scale: its first quasi-Newton step is scaled to length at
    most 1, and after it the identity is rescaled by s'y / y'y.
    ``max_iters`` is an integer of at least 1 (not a bool), and both
    tolerances are finite and positive.
    """

    start: np.ndarray | None = None
    method: str = "quasi-newton"
    max_iters: int = 500
    grad_tol: float = 1e-8
    step_tol: float = 1e-10

    def __post_init__(self):
        if self.method not in ("quasi-newton", "simplex"):
            raise ConfigError(f"unknown method {self.method!r}")
        if not _is_int(self.max_iters) or self.max_iters < 1:
            raise ConfigError(
                f"max_iters must be an integer of at least 1, got {self.max_iters!r}"
            )
        if not (0.0 < self.grad_tol < math.inf and 0.0 < self.step_tol < math.inf):
            raise ConfigError("tolerances must be finite and positive, got "
                              f"grad_tol={self.grad_tol!r}, step_tol={self.step_tol!r}")


def _is_int(value) -> bool:
    """Whether ``value`` is an integer (numpy's included) and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class MinimizeResult:
    """Converged point and diagnostics.

    ``status`` is one of:

    - ``grad_tol``: the gradient norm is within ``grad_tol``;
    - ``decrement``: the predicted decrease of the next Newton step was
      within the rounding of f, and the step was taken without evaluating
      its end point (see :func:`minimize`);
    - ``step_tol``: the last accepted step was within ``step_tol``, or a
      step was backtracked to within it and its last trial lay within the
      rounding of f (for the simplex method, the simplex diameter);
    - ``max_iters``: the iteration budget ran out;
    - ``line_search``: no backtracking step passed the Armijo test, and
      the last trial lay above f by more than its rounding;
    - ``nonfinite``: the gradient norm is not finite;
    - ``infeasible``: the value at the start is not finite.

    ``converged`` is True exactly for ``grad_tol``, ``decrement`` and
    ``step_tol``.  ``value`` and ``grad_norm`` are those of the last point
    evaluated: for ``decrement`` the point before the last step, where f
    lies above f(``theta_hat``) by at most the decrement.  ``grad_norm`` is
    NaN for the simplex method.  A result of
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
    hess: Callable[[np.ndarray], np.ndarray | None] | None = None,
) -> MinimizeResult:
    """Minimize ``f`` from ``options.start``, optionally using gradient ``grad``
    and Hessian ``hess``.

    A non-finite value at the start yields status ``infeasible`` instead of
    raising.  Without ``grad``, the quasi-Newton method falls back to central
    finite differences; a non-finite difference ends the run with status
    ``nonfinite`` at the last accepted point.

    The quasi-Newton method has one step rule.  At each iterate that is not
    yet converged it asks ``hess`` (when given) for the Hessian H, right
    after the gradient at the same point; ``hess`` may return None where the
    objective offers none.  Where H is finite and positive definite (its
    Cholesky factorization succeeds) and -H^-1 g descends, the step is that
    damped Newton direction, with a unit first trial, unless its predicted
    decrease, the Newton decrement -g'd / 2 = g'H^-1 g / 2, is at most
    ``_DECREMENT`` (1 + |f|), 16 machine epsilons relative: then f's
    rounding could not show the decrease, so the run takes the whole step
    without evaluating its end point and ends ``decrement`` (Boyd &
    Vandenberghe, *Convex Optimization*, 2004, §9.5.1), the step counted as
    an iteration.  Where H gives no such step, the step is the
    quasi-Newton direction -M g, with M the inverse-Hessian estimate
    and the first-step rules of :class:`MinimizeOptions`, and once it is
    accepted M takes the BFGS update.  Either step is backtracked by
    halving until the Armijo test passes.  A step of either kind that
    halves to a length within ``step_tol`` ends the run instead: with
    status ``step_tol`` when its last trial lies above f by at most
    ``_FLAT`` (1 + |f|), for near a minimizer the rounding of ``f`` hides
    the decrease that so short a step makes, and with ``line_search``
    otherwise, as at a cusp.  A run may
    switch between the two steps at any iterate: a Hessian that is
    indefinite at the start, as the exponential family's can be far from
    its minimizer, gives quasi-Newton steps until it turns positive
    definite.  Without ``hess`` every step is a quasi-Newton one, and no
    run ends ``decrement``.

    There is no per-iteration hook: to count or log evaluations, wrap ``f``,
    ``grad`` and ``hess``; to see the accepted values, rerun with a smaller
    ``max_iters`` (both methods are deterministic).

    The whole solve, the simplex included, runs in one numpy error state
    with the overflow and invalid warnings off: an objective that overflows
    at a trial point is inf there, and the gradient norm of a finite
    gradient above about 1e154 is inf (the run then ends ``nonfinite``),
    without a warning.  So ``f``, ``grad`` and ``hess`` need no error state
    of their own, and the family kernels enter none (see
    ``targets.solver_kernel``).
    """
    opts = options or MinimizeOptions()
    if opts.start is None:
        raise ConfigError("options.start is required")
    x0 = np.asarray(getattr(opts.start, "flat_vector", opts.start), dtype=float).ravel()
    if grad is None:
        grad = functools.partial(_fd_or_nan, f)
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = float(f(x0))
        if not np.isfinite(f0):
            return MinimizeResult(x0, f0, np.nan, 0, False, "infeasible")
        if opts.method == "simplex":
            return _nelder_mead(f, x0, f0, opts)
        return _bfgs(f, grad, hess, x0, f0, opts)


def _fd_or_nan(f, theta) -> np.ndarray:
    """Central differences, or NaN when one is not finite: the run then ends
    with status ``nonfinite`` instead of raising mid-iteration."""
    try:
        return finite_difference_gradient(f, theta)
    except EstimationError:
        return np.full(theta.size, np.nan)


def newton_directions(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-H^-1 g for each row of h (k, q, q) and g (k, q), NaN for a row
    whose H is not positive definite (see :func:`_cholesky_solve`).  The
    arithmetic runs elementwise over the rows, so each row has the bits of
    :func:`_newton_direction` on its own (q, q) and (q,)."""
    q = g.shape[-1]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        d = _cholesky_solve([[h[:, i, j] for j in range(q)] for i in range(q)],
                            [g[:, i] for i in range(q)], np.sqrt, _positive_rows)
    return np.stack(d, axis=1)


def _newton_direction(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-H^-1 g for one H (q, q) and g (q,), in Python floats, which round
    each operation as numpy does: the bits of a row of
    :func:`newton_directions`, at a fraction of its cost for one row."""
    return np.array(_cholesky_solve(h.tolist(), g.tolist(), math.sqrt, _positive))


def _positive(x: float) -> float:
    return x if 0.0 < x < math.inf else math.nan


def _positive_rows(x: np.ndarray) -> np.ndarray:
    return np.where((x > 0.0) & (x < np.inf), x, np.nan)


def _cholesky_solve(h, g, sqrt, positive) -> list:
    """-H^-1 g by the Cholesky factorization H = L L', from the entries of
    H and g as nested lists of floats, or of arrays that hold one entry per
    row.  A pivot that is not positive, or not finite, is NaN, so a matrix
    that is not positive definite gives NaN directions."""
    q = len(g)
    low = [[0.0] * q for _ in range(q)]
    for j in range(q):
        piv = h[j][j]
        for m in range(j):
            piv = piv - low[j][m] * low[j][m]
        low[j][j] = sqrt(positive(piv))
        for i in range(j + 1, q):
            acc = h[i][j]
            for m in range(j):
                acc = acc - low[i][m] * low[j][m]
            low[i][j] = acc / low[j][j]
    # L w = -g, then L' d = w
    w = [0.0] * q
    for i in range(q):
        acc = -g[i]
        for m in range(i):
            acc = acc - low[i][m] * w[m]
        w[i] = acc / low[i][i]
    d = [0.0] * q
    for i in reversed(range(q)):
        acc = w[i]
        for m in range(i + 1, q):
            acc = acc - low[m][i] * d[m]
        d[i] = acc / low[i][i]
    return d


def _bfgs(f, grad, hess, x0, f0, opts) -> MinimizeResult:
    # the inverse-Hessian estimate, the identity until the first
    # quasi-Newton step: a solve of Newton steps only never forms it
    eye = inv_h = None
    x, fx = x0, f0
    gx = np.asarray(grad(x), dtype=float)
    gnorm = math.sqrt(float(gx @ gx))
    iters = 0
    quasi = 0  # quasi-Newton steps taken
    while iters < opts.max_iters:
        if not math.isfinite(gnorm):
            return MinimizeResult(x, fx, gnorm, iters, False, "nonfinite")
        if gnorm <= opts.grad_tol:
            return MinimizeResult(x, fx, gnorm, iters, True, "grad_tol")
        h = None if hess is None else hess(x)
        if h is not None:
            d = _newton_direction(np.asarray(h, dtype=float), gx)
            slope = float(gx @ d)
        newton = h is not None and slope < 0.0 and math.isfinite(slope)
        if newton:
            if -0.5 * slope <= _DECREMENT * (1.0 + abs(fx)):
                # f's rounding hides what the step would gain: take it unseen
                return MinimizeResult(x + d, fx, gnorm, iters + 1, True, "decrement")
            step = 1.0
        else:
            if inv_h is None:
                eye = np.eye(x0.size)
                inv_h = eye.copy()
            d = -inv_h @ gx
            slope = float(gx @ d)
            if slope >= 0.0:
                # curvature information went bad; restart from steepest descent
                inv_h = eye.copy()
                d = -gx
                slope = float(gx @ d)
            # unit-length first step: with inv_h = I a steep gradient would
            # otherwise overshoot into a distant basin
            step = min(1.0, 1.0 / gnorm) if quasi == 0 else 1.0
        dnorm = math.sqrt(float(d @ d))
        accepted = short = False
        for k in range(_MAX_BACKTRACKS):
            if k:
                step *= 0.5
                # a step backtracked to step_tol would move x by no more
                if step * dnorm <= opts.step_tol:
                    short = True
                    break
            xn = x + step * d
            fn = float(f(xn))
            if math.isfinite(fn) and fn <= fx + _ARMIJO * step * slope:
                accepted = True
                break
        iters += 1
        if short and _flat(fn, fx):
            return MinimizeResult(x, fx, gnorm, iters, True, "step_tol")
        if not accepted:
            return MinimizeResult(x, fx, gnorm, iters, False, "line_search")
        s = xn - x
        gn = np.asarray(grad(xn), dtype=float)
        snorm = math.sqrt(float(s @ s))
        if not newton:
            quasi += 1
            yv = gn - gx
            sy = float(s @ yv)
            if quasi == 1 and sy > 0:
                # the identity lacks the objective's scale
                inv_h = (sy / float(yv @ yv)) * eye
            if sy > 1e-12 * snorm * math.sqrt(float(yv @ yv)):
                rho = 1.0 / sy
                v = eye - rho * np.outer(s, yv)
                inv_h = v @ inv_h @ v.T + rho * np.outer(s, s)
        x, fx, gx = xn, fn, gn
        gnorm = math.sqrt(float(gx @ gx))
        # a non-finite gradient exits nonfinite at the loop head, however short the step
        if math.isfinite(gnorm) and snorm <= opts.step_tol:
            return MinimizeResult(x, fx, gnorm, iters, True, "step_tol")
    # the iteration budget ran out
    status = "max_iters" if math.isfinite(gnorm) else "nonfinite"
    if gnorm <= opts.grad_tol:
        status = "grad_tol"
    return MinimizeResult(x, fx, gnorm, iters, status == "grad_tol", status)


def _flat(trial, value):
    """Whether a trial value exceeds ``value`` by at most ``_FLAT`` relative,
    as the rounding of f can make it near a minimizer: elementwise for
    arrays, so a batch row has the bits of its scalar test."""
    return np.isfinite(trial) & (trial - value <= _FLAT * (1.0 + np.abs(value)))


def batch_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, each row with the bits of ``a @ b``."""
    if a.ndim == 1 and b.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@np.errstate(over="ignore", invalid="ignore")  # one error state per solve, as in minimize
def minimize_batch(
    fg: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    options: MinimizeOptions,
) -> MinimizeResult:
    """Minimize B independent objectives at once by the quasi-Newton method.

    ``options.start`` has shape (B, q), one start per row.
    ``fg(theta, rows, bound)`` evaluates the objectives ``rows`` (an
    increasing index array of length k) at ``theta`` (k, q) and returns
    their values, shape (k,), and gradients, shape (k, q), and optionally
    their Hessians, shape (k, q, q), or None.  Only the rows whose value is
    finite and at most ``bound`` (k,) need a gradient and a Hessian: these
    are the trial points that pass the Armijo test, and the solver reads no
    other row of either.  Computing all from one evaluation means each
    trial point is evaluated once and an accepted one is never evaluated
    again.  Each row follows the step rule of :func:`minimize`: a damped
    Newton step where its Hessian is finite, positive definite and gives a
    descent direction (a NaN row, or no Hessians, never is), and the
    quasi-Newton step otherwise; a row whose Newton decrement is within
    the rounding of its f exits ``decrement`` at x + d, unevaluated, as in
    :func:`minimize` and by the same arithmetic.  Each row keeps its own
    inverse Hessian, step, iteration count and status, and takes the steps that
    :func:`minimize` takes on that objective alone, with the same
    Hessians.  A row that has exited is never evaluated again, so no row's
    result depends on the others.  The result's fields carry a leading
    batch axis.

    The whole run is one numpy error state, as a :func:`minimize` solve
    is, so ``fg`` needs none of its own.  The solver holds the state of the
    active rows only, and writes a row into the result once, when it
    exits.  The inverse Hessians exist only
    from the first quasi-Newton step of any row on, each starting from the
    identity, which a Newton step leaves as it is; an iteration in which
    every row takes a Newton step does no quasi-Newton work.
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
    act = np.arange(size)
    fx, g0, h0 = _evaluated(fg(x, act, np.full(size, np.inf)), q)
    # the result's fields, each row written once, when it exits
    gnorm = np.full(size, np.nan)
    iters = np.zeros(size, dtype=int)
    # indices into _STATUSES until the return
    status = np.full(size, _MAX_ITERS)
    feasible = np.isfinite(fx)
    status[~feasible] = _INFEASIBLE
    # the active rows' state, compact: entry i of each array is row act[i]
    act = act[feasible]
    xa, fa, ga, ha = x[act], fx[act], np.array(g0[feasible], dtype=float), h0[feasible]
    norm = np.sqrt(batch_dot(ga, ga))
    quasi = np.zeros(act.size, dtype=int)  # quasi-Newton steps taken
    inv_h = None  # the inverse Hessians, from the first quasi-Newton step on
    stalled = np.zeros(act.size, dtype=bool)  # the last step was within step_tol
    it = 0
    while act.size:
        nonfinite = ~np.isfinite(norm)
        small = norm <= options.grad_tol
        done = stalled | nonfinite | small
        if it == options.max_iters:
            done[:] = True  # the iteration budget ran out
        if done.any():
            out = act[done]
            x[out], fx[out], gnorm[out], iters[out] = xa[done], fa[done], norm[done], it
            status[out] = np.where(stalled[done], _STEP_TOL, np.where(
                nonfinite[done], _NONFINITE, np.where(small[done], _GRAD_TOL, _MAX_ITERS)))
            keep = ~done
            act, xa, fa, ga, ha, norm, quasi = (
                v[keep] for v in (act, xa, fa, ga, ha, norm, quasi))
            inv_h = None if inv_h is None else inv_h[keep]
            if act.size == 0:
                break
        newton = np.zeros(act.size, dtype=bool)
        if not np.isnan(ha[:, 0, 0]).all():
            dn = newton_directions(ha, ga)
            sn = batch_dot(ga, dn)
            newton = (sn < 0.0) & np.isfinite(sn)
            # as in minimize: a Newton step that f's rounding hides is taken unseen
            unseen = newton & (-0.5 * sn <= _DECREMENT * (1.0 + np.abs(fa)))
            if unseen.any():
                out = act[unseen]
                x[out], fx[out], gnorm[out] = xa[unseen] + dn[unseen], fa[unseen], norm[unseen]
                iters[out], status[out] = it + 1, _SMALL_DECREMENT
                keep = ~unseen
                act, xa, fa, ga, norm, quasi, newton, dn, sn = (
                    v[keep] for v in (act, xa, fa, ga, norm, quasi, newton, dn, sn))
                inv_h = None if inv_h is None else inv_h[keep]
                if act.size == 0:
                    break
        if newton.all():
            d, slope, step = dn, sn, np.ones(act.size)
        else:
            if inv_h is None:
                inv_h = np.tile(eye, (act.size, 1, 1))
            d = -(inv_h @ ga[..., None])[..., 0]
            slope = batch_dot(ga, d)
            if newton.any():
                d[newton], slope[newton] = dn[newton], sn[newton]
            reset = (slope >= 0.0) & ~newton
            if reset.any():
                # curvature information went bad; restart from steepest descent
                inv_h[reset] = eye
                d[reset] = -ga[reset]
                slope[reset] = batch_dot(ga[reset], d[reset])
            step = np.where((quasi == 0) & ~newton, np.minimum(1.0, 1.0 / norm), 1.0)
        # the first trial covers every row; the backtracks, the rows it rejected
        xn = xa + step[:, None] * d
        bound = fa + _ARMIJO * step * slope
        fn, gn, hn = _evaluated(fg(xn, act, bound), q)
        gn = np.array(gn, dtype=float)
        accepted = np.isfinite(fn) & (fn <= bound)
        pend = np.flatnonzero(~accepted)
        dnorm = np.sqrt(batch_dot(d, d))
        short = np.zeros(act.size, dtype=bool)
        last = fn.copy()  # each row's last trial value
        for _ in range(_MAX_BACKTRACKS - 1):
            if pend.size == 0:
                break
            step[pend] *= 0.5
            # a step backtracked to step_tol would move x by no more
            cut = step[pend] * dnorm[pend] <= options.step_tol
            if cut.any():
                short[pend[cut]] = True
                pend = pend[~cut]
                if pend.size == 0:
                    break
            xt = xa[pend] + step[pend, None] * d[pend]
            bound = fa[pend] + _ARMIJO * step[pend] * slope[pend]
            ft, gt, ht = _evaluated(fg(xt, act[pend], bound), q)
            last[pend] = ft
            ok = np.isfinite(ft) & (ft <= bound)
            hit = pend[ok]
            xn[hit], fn[hit], gn[hit], hn[hit], accepted[hit] = xt[ok], ft[ok], gt[ok], ht[ok], True
            pend = pend[~ok]
        it += 1
        if not accepted.all():
            failed = ~accepted
            out = act[failed]
            x[out], fx[out], gnorm[out], iters[out] = xa[failed], fa[failed], norm[failed], it
            status[out] = np.where(short[failed] & _flat(last[failed], fa[failed]),
                                   _STEP_TOL, _LINE_SEARCH)
            act, xa, ga, quasi, xn, fn, gn, hn, newton = (
                v[accepted] for v in (act, xa, ga, quasi, xn, fn, gn, hn, newton))
            inv_h = None if inv_h is None else inv_h[accepted]
            if act.size == 0:
                break
        s = xn - xa
        snorm = np.sqrt(batch_dot(s, s))
        if not newton.all():
            # a Newton step leaves the inverse Hessian as it is
            yv = gn - ga
            sy = batch_dot(s, yv)
            quasi += ~newton
            first = (quasi == 1) & ~newton & (sy > 0)
            if first.any():
                inv_h[first] = (sy[first] / batch_dot(yv[first], yv[first]))[:, None, None] * eye
            upd = (sy > 1e-12 * snorm * np.sqrt(batch_dot(yv, yv))) & ~newton
            if upd.any():
                # a slice selects every row without copying
                sel = slice(None) if upd.all() else upd
                su, yu = s[sel], yv[sel]
                rho = (1.0 / sy[sel])[:, None, None]
                v = eye - rho * (su[:, :, None] * yu[:, None, :])
                inv_h[sel] = (v @ inv_h[sel] @ v.transpose(0, 2, 1)
                              + rho * (su[:, :, None] * su[:, None, :]))
        xa, fa, ga, ha = xn, fn, gn, hn
        norm = np.sqrt(batch_dot(gn, gn))
        stalled = (snorm <= options.step_tol) & np.isfinite(norm)
    converged = np.isin(status, (_GRAD_TOL, _STEP_TOL, _SMALL_DECREMENT))
    return MinimizeResult(x, fx, gnorm, iters, converged, np.array(_STATUSES)[status])


def _evaluated(out, q: int) -> tuple:
    """The values, gradients and Hessians of one call of a
    :func:`minimize_batch` objective, as float arrays: NaN Hessians where
    the call gave none."""
    values, grads, *hessians = out
    values = np.array(values, dtype=float)
    if hessians and hessians[0] is not None:
        return values, grads, np.array(hessians[0], dtype=float)
    return values, grads, np.full(values.shape + (q, q), np.nan)


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
