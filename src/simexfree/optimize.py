"""Unconstrained minimization: quasi-Newton with backtracking, and Nelder-Mead.

Both methods are deterministic: repeated runs on the same inputs produce
identical results, and accepted iterate values are non-increasing.
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

    ``status`` is one of ``grad_tol``, ``step_tol``, ``max_iters``,
    ``infeasible``.  ``converged`` implies the gradient norm is within
    ``grad_tol`` or the last accepted step was within ``step_tol``.
    ``grad_norm`` is NaN for the simplex method.
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
    finite differences.  There is no per-iteration hook: to count or log
    evaluations, wrap ``f`` and ``grad``; to see the accepted values, rerun
    with a smaller ``max_iters`` (both methods are deterministic).
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
    g = grad if grad is not None else (lambda th: finite_difference_gradient(f, th))
    return _bfgs(f, g, x0, f0, opts)


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
            return MinimizeResult(x, fx, gnorm, iters, False, "max_iters")
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
            # the step underflowed the Armijo test: treat as a stalled step
            return MinimizeResult(x, fx, gnorm, iters, True, "step_tol")
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
        if float(np.linalg.norm(s)) <= opts.step_tol:
            return MinimizeResult(x, fx, gnorm, iters, True, "step_tol")
    status = "grad_tol" if gnorm <= opts.grad_tol else "max_iters"
    return MinimizeResult(x, fx, gnorm, iters, status == "grad_tol", status)


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
