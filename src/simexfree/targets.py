"""Conditional-expectation objectives and the table of model families.

Each objective is the exact conditional expectation, given the observed
data, of the family's classical loss evaluated on noise-inflated surrogates
``z + sqrt(lam) * v`` with ``v ~ N(0, sigma_u)``.  The noise level ``lam``
indexes the objectives: ``lam = 0`` recovers the classical loss on the
observed data, and for the pluggable families ``lam = -1`` removes the
measurement-error bias in one shot.

All functions are pure; a :class:`TargetContext` bundles the dataset, the
model, the noise level, and quadrature settings.  :data:`FAMILIES` holds one
:class:`Family` record per family: its kernel (the objective with a lazy
analytic gradient), start, data simulator, and the rules the rest of the
package reads from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache, wraps
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import CapacityError, ConfigError, ModelMismatchError
from .gaussian import hermite_rule, normal_cdf, tensor_hermite_rule
from .optimize import batch_dot

# Below this, the smoothing variance s = lam * beta' sigma_u beta is treated
# as exactly zero: the closed-form limits are known and the normal cdf/pdf
# become numerically unstable.
S_FLOOR = 1e-12

WALSH_PAIR_CAP = 5000
# Values per temporary of a stacked objective call and of a walsh pair block.
# Each temporary then stays within 128 KiB, glibc's default mmap threshold:
# above it, every temporary is a fresh mapping, and its page faults made a
# 100 x 500 exponential evaluation cost about three times as much per value.
# Below it a call can still fault, when its frees leave more than glibc's
# 128 KiB trim threshold at the heap top: 200 value calls of a 20 x 800
# exponential stack took 3 or 18,602 minor faults (getrusage), as unrelated
# edits reordered the kernel's allocations.
STACK_CHUNK_VALUES = 1 << 14
# Data values per group of data sets solved as one stack: a study cell's
# replicates, or a classical SIMEX fit's pseudo-data sets.  A group's data
# and stacks then take a few megabytes, whatever the number of sets.
STACK_GROUP_VALUES = 1 << 17
# stacked design rows per call of a generic mean function, which bounds its
# temporaries at a few megabytes
GENERIC_CHUNK_ROWS = 1 << 16
GENERIC_MAX_P = 3
# Gauss-Hermite nodes per covariate of the generic family's tensor rule
GENERIC_TENSOR_NODES = 15
_LOGNORMAL_SIGMA = 0.5
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Theta:
    """Parameter estimate: coefficient vector plus optional intercept."""

    coefficients: np.ndarray
    intercept: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "coefficients",
            np.atleast_1d(np.asarray(self.coefficients, dtype=float)),
        )

    @property
    def flat_vector(self) -> np.ndarray:
        """Flat layout used by the optimizer: intercept first when present."""
        if self.intercept is None:
            return self.coefficients.copy()
        return np.concatenate(([self.intercept], self.coefficients))

    @classmethod
    def from_flat(cls, vec, has_intercept: bool) -> "Theta":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        if has_intercept:
            return cls(coefficients=vec[1:], intercept=float(vec[0]))
        return cls(coefficients=vec, intercept=None)


@dataclass(frozen=True)
class MeanFunction:
    """User-supplied regression function for the generic family.

    ``fn(x, theta)`` maps an (m, p) design and a parameter vector to (m,)
    fitted means.  Each row is mapped on its own, and ``fn`` may be called
    with any number of rows: the objective stacks the design shifted to
    every quadrature node into one call, read-only, as one design serves
    many calls.  A result of any other shape raises ConfigError.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n_params: int | None = None


@dataclass(frozen=True)
class ModelSpec:
    """Model family plus its family-specific parameters.

    Parameters
    ----------
    family : str
        A key of :data:`FAMILIES`: ``linear, exponential, sine, poisson,
        logistic, lpre, lare, quantile, walsh, expectile, generic``.
    tau : float, optional
        Level in (0, 1); required for quantile and expectile, forbidden
        otherwise.
    intercept : bool, optional
        Whether an unpenalized intercept is present.  Only linear and
        logistic support one; defaults to True for those families.
    mean_fn : MeanFunction, optional
        Regression function; required for (and exclusive to) ``generic``.
    """

    family: str
    tau: float | None = None
    intercept: bool | None = None
    mean_fn: MeanFunction | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown family {self.family!r}; expected one of {tuple(FAMILIES)}"
            )
        fam = self.record
        if fam.tau:
            if self.tau is None:
                raise ConfigError(f"family {self.family!r} requires tau")
            if not 0.0 < self.tau < 1.0:
                raise ConfigError(f"tau must lie in (0, 1), got {self.tau}")
        elif self.tau is not None:
            raise ConfigError(f"family {self.family!r} does not take tau")
        if self.intercept is None:
            object.__setattr__(self, "intercept", fam.intercept)
        elif self.intercept and not fam.intercept:
            raise ConfigError(
                f"family {self.family!r} does not support an intercept term"
            )
        if self.family == "generic":
            if self.mean_fn is None:
                raise ConfigError("generic family requires mean_fn")
        elif self.mean_fn is not None:
            raise ConfigError("mean_fn is only valid for the generic family")

    @property
    def record(self) -> "Family":
        """The family's entry in :data:`FAMILIES`."""
        return FAMILIES[self.family]

    @property
    def has_intercept(self) -> bool:
        return bool(self.intercept)

    @property
    def pluggable(self) -> bool:
        """True when lambda = -1 can be plugged into the objective directly.

        This is the family's table flag, plus one rule: expectile at
        tau = 1/2, whose objective stays defined for every lam >= -1 and at
        lam = -1 is the bias-corrected least-squares criterion.
        """
        return self.record.pluggable or (self.family == "expectile" and self.tau == 0.5)

    def n_params(self, p: int) -> int | None:
        """Length of the flat parameter vector for a p-column design.

        Returns None for the generic family when the mean function does not
        declare its parameter count.
        """
        if self.family == "generic":
            return self.mean_fn.n_params
        return p + 1 if self.has_intercept else p

    def validate_y(self, y: np.ndarray) -> None:
        """Raise ModelMismatchError when responses violate the family domain."""
        domain = self.record.y_domain
        if domain is not None and not domain[1](y):
            raise ModelMismatchError(f"{self.family} family requires {domain[0]}")


@dataclass(frozen=True)
class TargetContext:
    """Dataset, model, noise level, and quadrature sizes for one objective.

    ``z`` and ``y`` default to ``dataset.z`` and ``dataset.y``.  They may
    instead be one data set of the same shape, (n, p) and (n,), that shares
    the dataset's sigma_u, so a pseudo-data solve needs no Dataset of its
    own, or a stack of B such sets: ``z`` of shape (B, n, p), with ``y``
    either the dataset's responses, shared by every set, or a stack of
    shape (B, n).  Every kernel with an analytic gradient then takes theta
    of shape (B, q) and returns B values, one per set, and a gradient
    callable that returns (B, q).  The responses are checked against the
    family domain once, on construction, which also builds the context's
    plan (:func:`_plan`); :meth:`at` moves to another noise level and
    :meth:`take` selects stack rows, both without checking the responses
    again and sharing the plan.
    """

    dataset: Dataset
    model: ModelSpec
    lam: float
    nodes: int = 30
    z: np.ndarray | None = field(default=None, compare=False, repr=False)
    y: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n, p = self.dataset.z.shape
        if self.z is None:
            object.__setattr__(self, "z", self.dataset.z)
        elif self.z.ndim == 2:
            if self.z.shape != (n, p):
                raise ConfigError(f"surrogates have shape {self.z.shape}, expected {(n, p)}")
        elif self.z.ndim != 3 or self.z.shape[1:] != (n, p):
            raise ConfigError(
                f"stacked surrogates have shape {self.z.shape}, expected (B, {n}, {p})"
            )
        if self.y is None:
            object.__setattr__(self, "y", self.dataset.y)
        elif self.y.shape != self.z.shape[:-1]:
            raise ConfigError(
                f"responses have shape {self.y.shape}, expected {self.z.shape[:-1]}"
            )
        _check_lam(self.model, self.lam)
        if self.nodes < 2:
            raise ConfigError("quadrature node count must be at least 2")
        self.model.validate_y(self.y)
        # a private attribute of the frozen context, outside its fields
        object.__setattr__(self, "plan", _plan(self.model, self.dataset))

    def at(self, lam: float) -> "TargetContext":
        """The context at the noise level ``lam``, with this one's data and
        plan; ``lam`` is checked as on construction, the responses are not
        checked again."""
        _check_lam(self.model, lam)
        return self._derived(lam=lam)

    def take(self, rows) -> "TargetContext":
        """The context of the stacked sets ``rows``, an increasing index
        array, or of the one set ``rows``, an int, unstacked, selected by
        :func:`stack_rows`; shared responses stay shared.
        """
        if not isinstance(rows, int) and rows.size == self.z.shape[0]:
            return self  # increasing rows, as many as the stack has: all of them
        return self._derived(z=stack_rows(self.z, rows),
                             y=stack_rows(self.y, rows) if self.y.ndim == 2 else self.y)

    def _derived(self, **fields) -> "TargetContext":
        # a shallow copy with ``fields`` replaced that skips the checks of
        # __post_init__ and shares the plan
        sub = object.__new__(TargetContext)
        sub.__dict__.update(self.__dict__, **fields)
        return sub


def _check_lam(model: ModelSpec, lam: float) -> None:
    if not (math.isfinite(lam) and lam >= -1.0):
        raise ConfigError(f"lam must be finite and at least -1, got {lam}")
    if lam < 0.0 and not model.pluggable:
        raise ConfigError(
            f"family {model.family!r} forbids negative lam; "
            "use the lambda-grid extrapolation path"
        )


def _plan(model: ModelSpec, dataset: Dataset) -> SimpleNamespace:
    """What every kernel call of a context reads beyond its data, built once
    with the context and shared by each context that :meth:`~TargetContext.at`
    and :meth:`~TargetContext.take` derive from it, such as every solve of one
    estimate (``extrapolate.row_solver``): the row count ``n`` as a float
    (numpy divides an array by a float several times faster than by an int,
    with the same bits), the parameter count ``q`` (None for a generic mean
    function that declares none), the intercept offset ``off`` (1 with an
    intercept, else 0), sigma_u as ``sigma`` (a float at p = 1, where each
    product with it is one multiplication), and generic's Jacobian buffer
    (:func:`_jacobian_buffer`), which then serves every grid point of a fit.
    """
    return SimpleNamespace(
        n=float(dataset.n), q=model.n_params(dataset.p), off=int(model.has_intercept),
        sigma=float(dataset.sigma_u[0, 0]) if dataset.p == 1 else dataset.sigma_u,
        jacobian=None)


def flat_theta(theta, q: int | None) -> np.ndarray:
    """``theta`` as a float array, one parameter vector or a stack of them,
    whose last axis must hold the ``q`` entries of the flat layout (any
    number where ``q`` is None); ConfigError otherwise.  The public entry
    points and the solvers check theta here once, so no kernel call does."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if q is not None and th.shape[-1] != q:
        raise ConfigError(f"theta has length {th.shape[-1]}, expected {q}")
    return th


def stack_rows(a: np.ndarray, rows) -> np.ndarray:
    """The entries ``rows`` of the stack ``a``: one entry for an int, and for
    an increasing index array a view when the rows run without a gap, a
    copy otherwise."""
    if isinstance(rows, int) or rows[-1] - rows[0] != rows.size - 1:
        return a[rows]
    return a[rows[0]:rows[-1] + 1]


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` for a (..., m, k) and v (..., k), batch axes broadcast.

    Each batch row gets the bits of its own ``a @ v``; with one column that
    is the exact product, taken elementwise because an (m, 1) matrix
    product costs several times more.
    """
    if a.shape[-1] == 1:
        return a[..., 0] * v[..., :1]
    if v.ndim == 1:
        return a @ v
    return (a @ v[..., None])[..., 0]


def _vecmat(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a.T @ v`` for a (..., m, k) and v (..., m), batch axes broadcast."""
    if v.ndim == 1 and a.ndim == 2:
        return a.T @ v
    return (v[..., None, :] @ a)[..., 0, :]


def _mean(a: np.ndarray) -> float | np.ndarray:
    """Mean over the last axis (the rows); ``np.add.reduce`` is what
    ``a.sum`` runs, without its Python-level wrapper."""
    return np.add.reduce(a, -1) / a.shape[-1]


def _quad(ctx: TargetContext, beta: np.ndarray):
    """``sigma_u beta`` and the quadratic form beta' sigma_u beta, for beta
    of shape (q,) or a batch (B, q): a scalar form for one set, (B,) for a
    batch.  The form is summed as (beta' sigma_u) beta.  At p = 1 both
    products are the one multiplication by the plan's float sigma_u, whose
    bits the matrix products have too, and one set's sigma_u beta is then a
    scalar, not a (1,) array.
    """
    sigma = ctx.plan.sigma
    if not isinstance(sigma, float):
        return _matvec(sigma, beta), batch_dot(_vecmat(beta, sigma), beta)
    if beta.ndim == 1:
        beta = beta[0]  # a numpy scalar, whose arithmetic costs a fraction of a (1,) array's
    su_beta = sigma * beta
    return su_beta, batch_dot(su_beta, beta) if su_beta.ndim else su_beta * beta


def _against_rows(a):
    """Per-set values, such as the smoothing variance s, to broadcast
    against the n rows: a stack's (B,) values as a column, and one set's
    scalar as it is, which numpy applies to a row faster than a length-1
    array."""
    return a[..., None] if isinstance(a, np.ndarray) and a.ndim else a


def _guard(value):
    """inf for a non-finite value: a float for one value, an array for a batch."""
    if isinstance(value, np.ndarray) and value.ndim:
        return _guard_vec(value)
    value = float(value)
    return value if math.isfinite(value) else math.inf


def _guard_vec(g: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(g), g, np.inf)


def _once(fn):
    """``fn()``, computed at the first call and kept for later ones: what
    a loss's value has not formed, and several of its slopes read."""
    memo = []

    def once():
        if not memo:
            memo.append(fn())
        return memo[0]

    return once


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)), written so that neither exp overflows."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def _trig(x: np.ndarray):
    """sin x, cos x and cos 2x, from the one pass t = tan(x / 2).

    sin x = 2t / (1 + t^2), cos x = (1 - t^2) / (1 + t^2) and
    cos 2x = (cos x - sin x)(cos x + sin x).  Each is within 2.3e-16 of
    ``np.sin`` or ``np.cos`` (cos 2x within 6.7e-16 of ``np.cos(2x)``) for
    any finite x, |x| up to 1e300.  |t| stays below about 1e16 for finite
    x, so t^2 cannot overflow; an infinite or NaN x gives NaN, as
    ``np.sin`` does.
    """
    t = np.tan(0.5 * x)
    t2 = t * t
    d = 1.0 + t2
    sin = 2.0 * t / d
    cos = (1.0 - t2) / d
    return sin, cos, (cos - sin) * (cos + sin)


def _abs_smooth(x: np.ndarray, v: float, slopes: bool = True):
    """E|x + W| for W ~ N(0, v), with its derivatives in x and in v.

    At v = 0 these are |x|, sign(x) and 0, as the objectives treat a floored
    smoothing variance as exactly zero; the sign is skipped (None) without
    ``slopes``.
    """
    if v == 0.0:
        return np.abs(x), np.sign(x) if slopes else None, 0.0
    # x (2 Phi(x; 0, v) - 1) + 2 v phi(x; 0, v), in the standardized u = x / r
    r = math.sqrt(v)
    u = x / r
    dx = 2.0 * normal_cdf(u) - 1.0
    e = np.exp(-0.5 * u * u)
    # d/dv E f(x + W) = E f''(x + W) / 2, and f'' = 2 delta for f = |.|
    return x * dx + (2.0 * r * _INV_SQRT_2PI) * e, dx, (_INV_SQRT_2PI / r) * e


# --------------------------------------------------------------------------
# family kernels
# --------------------------------------------------------------------------

# A kernel ``target_<family>(ctx, theta)`` returns ``(value, grad)``: the
# objective at theta, and a zero-argument callable that finishes its
# gradient from the intermediates the value already computed.  Calling
# ``grad`` only at an accepted point means a rejected line-search trial never
# pays for a gradient.  Where the family states its curvature,
# ``grad.hessian`` is a second zero-argument callable that finishes the
# Hessian the same way.
#
# Each public ``target_<family>`` is the public entry point
# (:func:`_entry`) around the kernel's body: it checks theta and computes
# the value with numpy's overflow and invalid warnings off.  The solvers call
# the body itself (:func:`solver_kernel`), as they check their start once and
# set that error state once per solve, so no kernel call of theirs pays for
# either.
#
# Every objective but generic's depends on theta only through
# eta = alpha + z' beta and s = lam * beta' sigma_u beta, so each family
# states only its loss in (eta, s) and the two slopes, and the one skeleton
# :func:`_kernel` does the rest.  At lam = 0, the noise level of the naive
# fit and of every classical SIMEX refit, the kernel does only the work of
# the classical loss: it forms no s and chains no s-slope, and the
# broadcast losses below neither shift nor scale by s there nor form the
# row means that only their s-slope reads, with the same bits; exponential
# there forms its loss from the residual instead.  Every such kernel also
# takes a stack:
# theta (B, q) against stacked surrogates (B, n, p), with B values, (B, q)
# gradients and (B, q, q) Hessians, each row with the bits of its own scalar
# call.  The losses of linear, exponential, sine, poisson, lpre and
# expectile at tau = 1/2 broadcast over the stack; the others branch on s or
# sum O(n^2) pairs, and run once per set (:func:`_by_set`).  Every family but
# generic states second slopes; walsh's eta-Hessian is a dense matrix over
# its pairs, which its loss states as a product with z (see :func:`_hessian`).
# Quantile, lare and walsh state them only where s > 0, as their losses have
# no curvature at s = 0.  Generic runs user code on one set at a time;
# its gradient and its Gauss-Newton curvature both come from one Jacobian of
# the mean function (:func:`_gauss_newton`).


# each entry point of :func:`_entry`, and the kernel body it calls
_BODIES: dict = {}


def _entry(kernel):
    """The public entry point of the kernel body ``kernel``: theta is
    checked against the context's parameter count (:func:`flat_theta`), and
    the value computed with numpy's overflow and invalid warnings off, so a
    value that overflows is inf without a warning.  The returned ``grad``
    and ``grad.hessian`` run in their caller's error state, as inside a
    solve; :func:`target_gradient` and :func:`hessian` set it for them.
    The body is kept in ``_BODIES`` for :func:`solver_kernel`."""

    @wraps(kernel)
    def entry(ctx: TargetContext, theta):
        with np.errstate(over="ignore", invalid="ignore"):
            return kernel(ctx, flat_theta(theta, ctx.plan.q))

    _BODIES[entry] = kernel
    return entry


def solver_kernel(model: ModelSpec):
    """The family kernel of ``model`` as a solver calls it: the body of its
    entry point, without the check of theta and the error state, which the
    solver provides once per solve.  A kernel that is no entry point, such
    as one put into :data:`FAMILIES` to count or log calls, is called as it
    is."""
    return _BODIES.get(model.record.kernel, model.record.kernel)


def _by_set(kernel, ctx: TargetContext, theta):
    """``kernel`` on a stacked context, by one scalar call per set, so each
    row has the bits of its own call.

    Where a set's call offers ``grad.hessian``, the stack's gradient offers
    one too: (B, q, q), each row that set's Hessian, and a NaN row for a set
    that offers none.
    """
    calls = [kernel(ctx.take(b), th) for b, th in enumerate(theta)]
    grad = lambda: np.array([g() for _, g in calls])  # noqa: E731
    seconds = [getattr(g, "hessian", None) for _, g in calls]
    if any(h is not None for h in seconds):
        nan = np.full(2 * theta.shape[-1:], np.nan)
        grad.hessian = lambda: np.array([nan if h is None else h() for h in seconds])
    return np.array([v for v, _ in calls]), grad


def _kernel(ctx: TargetContext, theta: np.ndarray, loss, per_set: bool = False):
    """The kernel body of a family, from its ``loss`` in (eta, s).

    The objective is the classical loss at eta + W, W ~ N(0, s), with
    eta = alpha + z' beta and s = lam * beta' sigma_u beta.
    ``loss(ctx, eta, s)`` returns the mean loss and a zero-argument
    ``slopes`` that returns the per-row derivative in eta and the mean
    derivative in s.  ``theta`` is a float array of the context's
    parameter count, as :func:`flat_theta` makes it, and the body enters no
    error state of its own: the public entry point (:func:`_entry`) and
    the solvers, once per solve, turn numpy's overflow and invalid warnings
    off around it, so nothing warns where it overflows (the form is then
    inf).  The gradient is z' dl/deta / n + dl/ds * 2 lam sigma_u beta, the
    corrected-score form of Nakamura (1990, Biometrika 77:127), after the
    intercept's slope, the mean of dl/deta, when there is one.

    At lam = 0 the objective is the classical loss itself.  The kernel then
    forms no quadratic form: s is the float 0.0, for a stack too, and the
    gradient has no s-term, so ``slopes`` may return None for dl/ds.  A
    loss skips there what only s reads, its shift of eta by a multiple of
    s or its scaling by exp(c s), and what only dl/ds reads, its row means.
    As x + 0.0 and x * 1.0 are exact, the bits are those of the smoothed
    form at s = 0; exponential alone takes another form there, its loss
    from the one residual y - e^eta (see :func:`_exponential_loss`).

    A loss may return a third callable, ``second(mixed)``, that returns
    the per-row d2l/deta2 (walsh: the product of its dense eta-curvature
    with z, see :func:`_hessian`) and, when ``mixed`` (lam != 0), the per-row
    d2l/deta ds and the mean d2l/ds2 and dl/ds, one per set; at lam = 0
    only the first enters H, and the others may be None.  A ``per_set``
    loss returns it only where its loss has curvature: not at a nonsmooth
    s = 0, and not where lam != 0 yet s was floored to zero, as its
    s-slopes are then those of a kink.  The kernel's ``grad`` then carries
    ``grad.hessian``, which chains them into H (see :func:`_hessian`).

    A ``per_set`` loss runs a stack set by set; its s is one float, floored
    to exactly zero below S_FLOOR, and its s-slope is read only when s > 0.
    Any other loss broadcasts: s is a scalar for one set and (B,) for a
    stack, which the loss puts against the rows with :func:`_against_rows`.
    """
    if per_set and ctx.z.ndim == 3:
        return _by_set(lambda c, th: _kernel(c, th, loss, True), ctx, theta)
    off = ctx.plan.off
    beta = theta[..., off:] if off else theta
    mixed = ctx.lam != 0.0
    if mixed:
        su_b, quad = _quad(ctx, beta)
        s = ctx.lam * quad
        if per_set:
            s = 0.0 if 0.0 < s < S_FLOOR else float(s)
    else:
        su_b, s = None, 0.0
    eta = _matvec(ctx.z, beta)
    if off:
        eta = theta[..., :1] + eta
    value, slopes, *second = loss(ctx, eta, s)

    def grad():
        deta, ds = slopes()
        g = _vecmat(deta, ctx.z) / ctx.plan.n
        if mixed and (not per_set or s > 0.0):
            g = g + _against_rows(ds * 2.0 * ctx.lam) * su_b
        if off:
            g = np.concatenate((_mean(deta)[..., None], g), axis=-1)
        return _guard_vec(g)

    if second:
        grad.hessian = lambda: _hessian(ctx, eta, su_b, second[0])
    return _guard(value), grad


def _design_product(v: np.ndarray, z: np.ndarray, off: int) -> np.ndarray:
    """x' v for the design x: z, after a column of ones when ``off`` is 1."""
    xv = _vecmat(v, z)
    return np.concatenate((np.add.reduce(v, -1)[..., None], xv), axis=-1) if off else xv


def _hessian(ctx: TargetContext, eta, su_b, second):
    """The Hessian of :func:`_kernel`'s objective from the loss's ``second``
    slopes, (q, q) for one set or (B, q, q) for a stack:

        H = x' diag(d2l/deta2) x / n + a u' + u a' + d2l/ds2 u u'
            + dl/ds 2 lam sigma_u,

    with x the design (a column of ones first for an intercept),
    u = 2 lam sigma_u beta (0 for the intercept), a = x' d2l/deta ds / n,
    and the sigma_u term on the slopes' block only.  Row j of
    x' diag(d2l/deta2) x is one matrix-vector product, as the gradient's
    z' dl/deta is, and only its upper triangle is kept: the lower triangle
    is its mirror, so H is symmetric bit for bit.  Each upper entry is one
    sum, in that order, of the entries of those products and of a and u,
    read straight from their arrays: numpy scalars for one set, which cost
    a fraction of small arrays, and (B,) columns for a stack, so each stack
    row has the bits of its own call, with no per-entry lists or ``tolist``
    round trips.  With one parameter (one covariate, no intercept: every
    light family at p = 1, and every stack of classical SIMEX there) H is
    the one reduction mean(d2l/deta2 z^2) plus the lam terms.  Walsh's
    eta-curvature is a dense (n, n) matrix M, not a diagonal: its loss
    returns the (n, p) product M z in place of d2l/deta2, and the first
    term is z' M z / n.
    """
    plan, lam, z = ctx.plan, ctx.lam, ctx.z
    n, off = plan.n, plan.off
    d2, dx, dss, ds = second(lam != 0.0)
    p = z.shape[-1]
    q = off + p
    if d2.ndim == z.ndim:
        # a pair loss's dense eta-curvature M, as its (n, p) product M z:
        # walsh, which has no intercept and runs set by set, so the rows
        # are those of the one (p, p) product z' (M z)
        rows = z.T @ d2
    else:
        # Row j of n x' diag(d2l/deta2) x from column j on, as the arrays
        # of the matrix-vector products, .T taken: entry k of one set's is
        # then a numpy scalar, and of a stack's the (B,) column, so each
        # entry below is a sum of scalars for one set and an elementwise
        # sum for a stack, with the same bits and no per-entry lists.  With
        # an intercept, x's column 0 is ones: row 0 is the sum of
        # d2l/deta2, then x_0' diag(d2l/deta2) z.
        rows = [_design_product(d2, z, 1).T] if off else []
        rows += [_vecmat(d2 * z[..., j], z).T for j in range(p)]
    if lam != 0.0:
        a = (_design_product(dx, z, off) / n).T
        u = np.zeros(eta.shape[:-1] + (q,))
        u[..., off:] = 2.0 * lam * su_b
        u, sigma, scale = u.T, ctx.dataset.sigma_u, ds * 2.0 * lam
    h = np.empty(eta.shape[:-1] + (q, q))
    for j in range(q):
        for k in range(j, q):
            hjk = rows[j][k - j if j < off else k - off] / n
            if lam != 0.0:
                hjk = hjk + (a[j] * u[k] + u[j] * a[k]) + dss * (u[j] * u[k])
                if j >= off:
                    hjk = hjk + scale * sigma[j - off, k - off]
            h[..., j, k] = h[..., k, j] = hjk
    return h


@_entry
def target_linear(ctx: TargetContext, theta):
    """Least-squares criterion plus lam times the slope penalty beta' sigma_u beta."""
    return _kernel(ctx, theta, _linear_loss)


def _linear_loss(ctx: TargetContext, eta, s):
    r = ctx.y - eta
    second = lambda mixed: (np.full_like(r, 2.0), np.zeros_like(r), 0.0, 1.0)  # noqa: E731
    return batch_dot(r, r) / ctx.plan.n + s, lambda: (-2.0 * r, 1.0), second


@_entry
def target_exponential(ctx: TargetContext, theta):
    """Corrected squared-error criterion for the mean function exp(z' theta).

    At lam = 0 it is the classical mean of r^2, r = y - e^eta, formed from
    the one residual (see :func:`_exponential_loss`).
    """
    return _kernel(ctx, theta, _exponential_loss)


def _exponential_loss(ctx: TargetContext, eta, s):
    """The loss E (y - e^(eta + W))^2 = y^2 - 2 y e1 + e2, W ~ N(0, s), with
    e1 = e^(eta + s/2) and e2 = e^(2 eta + 2 s).

    At lam = 0 it is mean r^2 from the one residual r = y - e^eta, with
    slope -2 r e^eta and curvature 2 e^eta (e^eta - r): one exp pass in
    place of two, and no cancellation where y is near e^eta, where the
    expanded y^2 - 2 y e1 + e2 loses the digits of r^2: at y within 1e-3
    of e^eta = 1e3 (n = 50) its mean had a relative error of 1.1e-4, and
    mean r^2 one of 1.0e-11, against a 50-digit reference.  At lam != 0
    the expanded form stays.
    """
    y = ctx.y
    if ctx.lam == 0.0:
        e = np.exp(eta)
        r = y - e
        # the slope's -2 e^eta, which the curvature reads too
        minus_2e = _once(lambda: -2.0 * e)

        def second(mixed):
            # -2 e^eta (r - e^eta), in place
            d2 = r - e
            d2 *= minus_2e()
            return d2, None, None, None

        return _mean(r * r), lambda: (minus_2e() * r, None), second
    s_rows = _against_rows(s)
    e1 = np.exp(eta + 0.5 * s_rows)
    e2 = np.exp(2.0 * eta + 2.0 * s_rows)
    y2e1 = 2.0 * y * e1
    value = _mean(y * y - y2e1 + e2)
    # the row means of e2 and 2 y e1, which both s-slopes read
    means = _once(lambda: (_mean(e2), _mean(y2e1)))

    def slopes():
        m_e2, m_y2e1 = means()
        # the slope in s from row means: a per-row 2 e2 - y e1 costs more
        return 2.0 * e2 - y2e1, 2.0 * m_e2 - 0.5 * m_y2e1

    def second(mixed):
        # in place where it can be: a stack's temporaries cost page faults
        d2 = 4.0 * e2
        dx = -0.5 * y2e1
        dx += d2
        d2 -= y2e1
        m_e2, m_y2e1 = means()
        return d2, dx, 4.0 * m_e2 - 0.25 * m_y2e1, 2.0 * m_e2 - 0.5 * m_y2e1

    return value, slopes, second


@_entry
def target_sine(ctx: TargetContext, theta):
    """Corrected squared-error criterion for the mean function sin(z' theta).

    With eta = z' theta and W ~ N(0, s), E sin(eta + W) = e^{-s/2} sin eta
    and E cos 2(eta + W) = e^{-2s} cos 2 eta, so a call's cost is its
    trigonometric passes over the rows.  It takes sin eta, cos eta and
    cos 2 eta from one vectorised tan(eta / 2) (:func:`_trig`): float64
    ``np.sin`` and ``np.cos`` run a scalar loop, about 35-37 us per 5,000
    values against 9 us for ``np.tan`` (numpy 2.4, one Xeon core), and a
    value and its slopes made three such passes.
    """
    return _kernel(ctx, theta, _sine_loss)


def _sine_loss(ctx: TargetContext, eta, s):
    y, smooth = ctx.y, ctx.lam != 0.0
    # one vectorised tan pass in place of np.sin(eta), np.cos(2 eta) and
    # the slopes' np.cos(eta), scalar loops that took most of a call: at
    # n = 5,000 a value fell from 128-143 to 62-77 us, and a value with
    # its gradient and Hessian from 239-295 to 100-146 us
    sin, cos, cos2 = _trig(eta)
    if smooth:
        e1, e2 = np.exp(-0.5 * s), np.exp(-2.0 * s)
        e1_rows, e2_rows = _against_rows(e1), _against_rows(e2)
        value = _mean(y * y - 2.0 * y * sin * e1_rows - 0.5 * cos2 * e2_rows) + 1.0
    else:
        value = _mean(y * y - 2.0 * y * sin - 0.5 * cos2) + 1.0

    def both():
        # y sin(eta) and the row means that both s-slopes read
        ysin = y * sin
        return (ysin, _mean(ysin), _mean(cos2)) if smooth else (ysin, None, None)

    shared = _once(both)

    def slopes():
        if not smooth:
            return 2.0 * (sin - y) * cos, None
        _, m_ysin, m_cos2 = shared()
        # the slope of -cos(2 eta) e2 / 2 is e2 sin(2 eta) = 2 e2 sin cos
        deta = 2.0 * (e2_rows * sin - y * e1_rows) * cos
        return deta, e1 * m_ysin + e2 * m_cos2

    def second(mixed):
        ysin, m_ysin, m_cos2 = shared()
        if not mixed:
            d2 = ysin + cos2
            d2 *= 2.0
            return d2, None, None, None
        d2 = ysin * e1_rows
        d2 += cos2 * e2_rows
        d2 *= 2.0
        dx = y * e1_rows
        dx -= (4.0 * e2_rows) * sin
        dx *= cos
        return d2, dx, -(0.5 * e1 * m_ysin + 2.0 * e2 * m_cos2), e1 * m_ysin + e2 * m_cos2

    return value, slopes, second


@_entry
def target_poisson_negloglik(ctx: TargetContext, theta):
    """Corrected Poisson negative log-likelihood (theta-free terms dropped)."""
    return _kernel(ctx, theta, _poisson_loss)


def _poisson_loss(ctx: TargetContext, eta, s):
    y, smooth = ctx.y, ctx.lam != 0.0
    mu = np.exp(eta + 0.5 * _against_rows(s) if smooth else eta)
    value = -_mean(y * eta - mu)

    def second(mixed):
        if not mixed:
            return mu, None, None, None
        m_mu = _mean(mu)
        return mu, 0.5 * mu, 0.25 * m_mu, 0.5 * m_mu

    return value, lambda: (mu - y, 0.5 * _mean(mu) if smooth else None), second


@_entry
def target_logistic(ctx: TargetContext, theta):
    """Corrected Bernoulli negative log-likelihood.

    The log-partition term is the expectation of log(1 + exp(eta + u)) over
    u ~ N(0, s) with s = lam * beta' sigma_u beta, computed by Gauss-Hermite
    quadrature; at s = 0 it collapses to the plain softplus.  The gradient
    and the Hessian differentiate the same Hermite sum: the sigmoid and
    sigma (1 - sigma) at each node for eta, and node t over sqrt(2 s) for s.
    """
    return _kernel(ctx, theta, _logistic_loss, per_set=True)


def _logistic_loss(ctx: TargetContext, eta: np.ndarray, s: float):
    y = ctx.y
    if s == 0.0:
        shifted, part = eta, _softplus(eta)
    else:
        t, w = hermite_rule(ctx.nodes)
        w = w / math.sqrt(math.pi)
        root = math.sqrt(2.0 * s)
        shifted = eta[:, None] + (root * t)[None, :]
        part = _softplus(shifted) @ w
    sig = _once(lambda: _sigmoid(shifted))  # the sigmoid at each node, for both slopes

    def slopes():
        if s == 0.0:
            return sig() - y, 0.0
        return sig() @ w - y, float(_mean(sig() @ (w * t))) / root

    def second(mixed):
        # offered at s = 0 only where lam = 0, and s > 0 means lam != 0
        d1 = sig() * (1.0 - sig())
        if s == 0.0:
            return d1, None, None, None
        ds = float(_mean(sig() @ (w * t))) / root
        # d/ds of sigma(eta + root t) t / root, with root^2 = 2 s
        dss = (float(_mean(d1 @ (w * t * t))) - ds) / (2.0 * s)
        return d1 @ w, d1 @ (w * t) / root, dss, ds

    value = -float(_mean(y * eta - part))
    # at lam != 0 a floored s = 0 has no s-slopes to chain
    return (value, slopes, second) if s > 0.0 or ctx.lam == 0.0 else (value, slopes)


@_entry
def target_lpre(ctx: TargetContext, theta):
    """Corrected least-product-relative-error criterion (multiplicative model)."""
    return _kernel(ctx, theta, _lpre_loss)


def _lpre_loss(ctx: TargetContext, eta, s):
    y = ctx.y
    lo, hi = y * np.exp(-eta), np.exp(eta) / y
    base = _mean(lo + hi)
    if ctx.lam == 0.0:
        return base, lambda: (hi - lo, None), lambda mixed: (hi + lo, None, None, None)
    scale = np.exp(0.5 * s)

    def second(mixed):
        rows = _against_rows(scale)
        d2 = hi + lo
        d2 *= rows
        dx = hi - lo
        dx *= 0.5 * rows
        return d2, dx, 0.25 * base * scale, 0.5 * base * scale

    return base * scale, lambda: (_against_rows(scale) * (hi - lo), 0.5 * base * scale), second


@_entry
def target_lare(ctx: TargetContext, theta):
    """Corrected least-absolute-relative-error criterion (multiplicative model).

    With s = lam * theta' sigma_u theta and l_i = log(y_i) - z_i' theta, the
    per-observation conditional expectation F is the sum of

        up = exp(z'theta + s/2) / y * [1 - 2 Phi(l - s; 0, s)] and
        down = y * exp(-z'theta + s/2) * [2 Phi(l + s; 0, s) - 1],

    which reduces to the plain criterion at s = 0.  With eta = z' theta the
    normal density terms cancel in dF/deta = up - down, and
    dF/ds = (1/2) d2F/deta2 = F/2 + 2 phi(l; 0, s).  At s = 0 the gradient
    is a subgradient of the plain criterion, and there is no Hessian.
    """
    return _kernel(ctx, theta, _lare_loss, per_set=True)


def _log_y(ctx: TargetContext) -> np.ndarray:
    """log y of the context's responses, computed once per context and kept
    on it while its y is the very array it came from."""
    y, log_y = ctx.__dict__.get("_log_y", (None, None))
    if y is not ctx.y:
        y, log_y = ctx.y, np.log(ctx.y)
        # a private attribute of the frozen context, outside its fields
        object.__setattr__(ctx, "_log_y", (y, log_y))
    return log_y


def _lare_loss(ctx: TargetContext, eta: np.ndarray, s: float):
    y = ctx.y
    if s == 0.0:
        # the plain criterion; its slopes wait for a gradient, which a
        # simplex solve never asks for
        dev = np.abs(y - np.exp(eta))
        value = float(_mean(dev / y + np.exp(-eta) * dev))

        def plain():
            ell = _log_y(ctx) - eta
            step = normal_cdf(ell, 0.0, 0.0)
            return np.exp(-ell) * (1.0 - 2.0 * step) - np.exp(ell) * (2.0 * step - 1.0), 0.0

        return value, plain
    # with v = l / r: Phi(l -+ s; 0, s) = Phi(v -+ r) and
    # phi(l; 0, s) = exp(-v^2 / 2) / (r sqrt(2 pi))
    ell = _log_y(ctx) - eta
    r = math.sqrt(s)
    v = ell / r
    up = np.exp(0.5 * s - ell) * (1.0 - 2.0 * normal_cdf(v - r))
    down = np.exp(0.5 * s + ell) * (2.0 * normal_cdf(v + r) - 1.0)
    f = up + down
    e = np.exp(-0.5 * v * v)
    m_f, m_e = _mean(f), _mean(e)
    c = _INV_SQRT_2PI / r

    def slopes():
        return up - down, 0.5 * m_f + 2.0 * c * m_e

    def second(mixed):
        # s > 0, so lam != 0 and the mixed slopes enter H
        d2 = (4.0 * c) * e
        d2 += f
        # d/deta of F/2 + 2 phi(l; 0, s), and d/ds of the same
        dx = 0.5 * (up - down) + (2.0 * c / r) * (v * e)
        dss = 0.25 * m_f + c * m_e + (c / s) * _mean(e * (v * v - 1.0))
        return d2, dx, dss, 0.5 * m_f + 2.0 * c * m_e

    return float(m_f), slopes, second


@_entry
def target_quantile(ctx: TargetContext, theta):
    """Smoothed check-loss criterion for quantile regression.

    Per observation, with xi = y - z' beta and s = lam * beta' sigma_u beta:
    (tau - 1) xi + xi Phi(xi; 0, s) + s phi(xi; 0, s); the s = 0 branch is
    the plain check loss.  Its xi-derivative is tau - 1 + Phi(xi; 0, s),
    its s-derivative phi(xi; 0, s) / 2 and its second xi-derivative
    phi(xi; 0, s).  At s = 0 the gradient is a subgradient of the check
    loss, and there is no Hessian.
    """
    return _kernel(ctx, theta, _quantile_loss, per_set=True)


def _quantile_loss(ctx: TargetContext, eta: np.ndarray, s: float):
    tau = ctx.model.tau
    xi = ctx.y - eta
    if s == 0.0:
        # the step cdf waits for a gradient, which a simplex solve never asks for
        value = float(_mean(xi * (tau - (xi < 0))))
        return value, lambda: (-(tau - 1.0 + normal_cdf(xi, 0.0, 0.0)), 0.0)
    # in u = xi / r: Phi(xi; 0, s) = Phi(u) and phi(xi; 0, s) = c e with
    # e = exp(-u^2 / 2), c = 1 / (r sqrt(2 pi)); c goes onto the means
    r = math.sqrt(s)
    u = xi / r
    cdf, e = normal_cdf(u), np.exp(-0.5 * u * u)
    c = _INV_SQRT_2PI / r
    m_e = float(_mean(e))
    value = float(_mean(xi * (cdf + (tau - 1.0)))) + s * c * m_e

    def second(mixed):
        # s > 0, so lam != 0 and the mixed slopes enter H: d/deta of phi / 2
        # is xi phi / (2 s), and d/ds of it phi (xi^2 - s) / (4 s^2)
        dss = (0.25 * c / s) * _mean(e * (u * u - 1.0))
        return c * e, (0.5 * c / r) * (u * e), dss, 0.5 * c * m_e

    return value, lambda: (-(tau - 1.0 + cdf), 0.5 * c * m_e), second


@lru_cache(maxsize=8)
def _upper_pairs(b: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j of a b x b block."""
    iu, ju = np.triu_indices(b, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _upper_blocks(xi: np.ndarray, block: int):
    """Pair sums xi_i + xi_j over the pairs i < j, one row block at a time.

    For the rows i0:i1 of each block this yields (i0, i1, inner, outer):
    ``inner`` holds the pairs inside the block, in :func:`_upper_pairs`
    order, and ``outer`` (shape (i1 - i0, n - i1)) the pairs of the block's
    rows with every later row.  Every pair appears exactly once.
    """
    n = xi.size
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        rows = xi[i0:i1]
        iu, ju = _upper_pairs(i1 - i0)
        yield i0, i1, rows[iu] + rows[ju], rows[:, None] + xi[None, i1:]


def _spread(acc: np.ndarray, i0: int, i1: int, inner: np.ndarray, outer: np.ndarray) -> None:
    """Add each pair's value of one :func:`_upper_blocks` block to both of
    its rows in ``acc``: the row and column sums of the block."""
    iu, ju = _upper_pairs(i1 - i0)
    b = i1 - i0
    acc[i0:i1] += np.bincount(iu, inner, b) + np.bincount(ju, inner, b) + outer.sum(axis=1)
    acc[i1:] += outer.sum(axis=0)


def _walsh_pairs(xi: np.ndarray, s: float, block: int | None = None):
    """Sum over the pairs i < j of E|xi_i + xi_j + W|, W ~ N(0, 2 s), its
    gradient in xi and its derivative in s.

    At s = 0 this is Jaeckel's (1972, Ann. Math. Statist. 43:1449) rank
    dispersion with Wilcoxon signed-rank scores, in O(n log n).  The
    subgradient g_i = sum_{j != i} sign(xi_i + xi_j) is
    #{j: xi_j > -xi_i} - #{j: xi_j < -xi_i} - sign(xi_i), two binary
    searches of -xi_i in the sorted xi, and the sum is xi' g, as each
    pair's |xi_i + xi_j| = sign(xi_i + xi_j)(xi_i + xi_j) splits between
    its two rows.  Equal to the sorted-sum form
    2 sum_k k |xi|_(k) - sum_k (2k - n + 1) xi_(k) in exact arithmetic,
    it stays exact where a pair nearly cancels, as at n = 2, and the
    sorted-sum form does not.

    At s > 0 each pair is evaluated once, in upper-triangular row blocks.
    A block has ``STACK_CHUNK_VALUES // n`` rows unless ``block`` says
    otherwise, so none of its temporaries exceeds ``STACK_CHUNK_VALUES``
    values.  A pair's xi-derivative goes to both of its rows: the row and
    column sums of the blocks.  The blocks hold the standardized pair sums
    u = (xi_i + xi_j) / r, r = sqrt(2 s), and keep only the sums of
    u Phi(u), Phi(u) and e = exp(-u^2 / 2): as
    E|x + W| = r (u (2 Phi(u) - 1) + 2 e / sqrt(2 pi)), and the pairs'
    xi_i + xi_j add up to (n - 1) sum(xi), the total is
    r (2 sum u Phi + 2 sum e / sqrt(2 pi)) - (n - 1) sum(xi).  A pair's
    xi-derivative is 2 Phi(u) - 1, so the gradient is twice the row and
    column sums of Phi less n - 1, and the s-derivative is
    2 sum e / (r sqrt(2 pi)).  The curvature is not formed here, as a
    solve asks for it only at an accepted point: :func:`_walsh_weights`
    forms the pair weights 2 phi(xi_i + xi_j; 0, 2 s) = 2 e / (r sqrt(2 pi))
    again when it does, which are each pair's second xi-derivative and
    its s-derivative, by the heat equation.
    """
    n = xi.size
    if s == 0.0:
        ranked, neg = np.sort(xi), -xi
        above = n - np.searchsorted(ranked, neg, "right")
        dxi = (above - np.searchsorted(ranked, neg, "left")) - np.sign(xi)
        return float(xi @ dxi), dxi, 0.0
    if block is None:
        block = max(1, STACK_CHUNK_VALUES // n)
    dxi = np.zeros(n)
    r = math.sqrt(2.0 * s)
    u_cdf = e_sum = 0.0
    for i0, i1, inner, outer in _upper_blocks(xi / r, block):
        cdf_in, cdf_out = normal_cdf(inner), normal_cdf(outer)
        u_cdf += float(np.sum(inner * cdf_in)) + float(np.sum(outer * cdf_out))
        e_sum += float(np.sum(np.exp(-0.5 * inner * inner)))
        e_sum += float(np.sum(np.exp(-0.5 * outer * outer)))
        _spread(dxi, i0, i1, cdf_in, cdf_out)
    total = r * (2.0 * u_cdf + 2.0 * _INV_SQRT_2PI * e_sum) - (n - 1.0) * float(np.sum(xi))
    dxi *= 2.0
    dxi -= n - 1.0
    return total, dxi, 2.0 * _INV_SQRT_2PI * e_sum / r


def _walsh_weights(xi: np.ndarray, s: float, cols: np.ndarray, block: int | None = None):
    """W @ cols for the (n, k) ``cols``, with W the pair weights
    w_ij = 2 phi(xi_i + xi_j; 0, 2 s) for i != j and a zero diagonal, at
    s > 0: the second xi-derivative of each pair's E|xi_i + xi_j + U|,
    U ~ N(0, 2 s), and its s-derivative too.

    The pairs are formed in row blocks of ``STACK_CHUNK_VALUES // n`` rows
    unless ``block`` says otherwise.  Block i0:i1 forms e = exp(-u^2 / 2),
    u = (xi_i + xi_j) / sqrt(2 s), in place, for its rows against every
    row from i0 on: at most ``STACK_CHUNK_VALUES`` values, of which it
    zeroes its own diagonal.  Its product with cols[i0:] adds to its own
    rows, and the product of its part right of the block, transposed, with
    the block's cols adds to the later rows.  Each pair is formed once,
    or twice inside a block, whose square then needs no triangle indexing:
    one exp per value and no normal cdf.
    """
    n = xi.size
    if block is None:
        block = max(1, STACK_CHUNK_VALUES // n)
    r = math.sqrt(2.0 * s)
    v = xi / r
    out = np.zeros(cols.shape)
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        e = v[i0:i1, None] + v[None, i0:]
        e *= e
        e *= -0.5
        np.exp(e, out=e)
        e.ravel()[::n - i0 + 1] = 0.0  # the block's diagonal, i = j (e is C-ordered)
        out[i0:i1] += e @ cols[i0:]
        out[i1:] += e[:, i1 - i0:].T @ cols[i0:i1]
    out *= 2.0 * _INV_SQRT_2PI / r
    return out


@_entry
def target_walsh(ctx: TargetContext, theta):
    """Smoothed Walsh-average (pairwise absolute sum) regression criterion.

    Exact pair evaluation: O(n log n) by signed ranks at s = 0, O(n^2)
    otherwise; refuses beyond n = 5000, at lam = 0 too.  The gradient is a
    subgradient at s = 0, where there is no Hessian.  At s > 0 the Hessian
    takes one more pass over the pairs, with one exp and no normal cdf per
    pair (see :func:`_walsh_weights`).
    """
    if ctx.dataset.n > WALSH_PAIR_CAP:
        raise CapacityError(
            f"walsh family evaluates all pairs exactly; n = {ctx.dataset.n} exceeds "
            f"the cap of {WALSH_PAIR_CAP}"
        )
    return _kernel(ctx, theta, _walsh_loss, per_set=True)


def _walsh_loss(ctx: TargetContext, eta: np.ndarray, s: float):
    n = ctx.dataset.n
    xi = ctx.y - eta
    # the i = j terms are |2 xi_i + 2 U_i| = 2 |xi_i + U_i|
    diag, dx_diag, dv_diag = _abs_smooth(xi, s)
    # one pass yields the slopes too: at s > 0 the normal cdf dominates,
    # and at s = 0 the value is formed from the subgradient
    total, dxi, ds = _walsh_pairs(xi, s)
    scale = 2.0 * n * (n + 1.0)
    value = (2.0 * float(np.sum(diag)) + total) / scale

    def slopes():
        # times n, as the gradient's z' dl/deta is divided by n
        deta = -(dxi + 2.0 * dx_diag) * (n / scale)
        return deta, (ds + 2.0 * phi_sum()) / scale if s else 0.0

    if s == 0.0:
        # lam = 0 or a floored s: a kink, without curvature or an s-slope
        return value, slopes
    # the sum of the diagonal's phi(xi_i; 0, s), which the gradient and H read
    phi_sum = _once(lambda: float(np.add.reduce(dv_diag)))

    def second(mixed):
        # s > 0, so lam != 0 and the mixed slopes enter H.  By the heat
        # equation each term's s-slope is its xi-curvature at half weight:
        # the diagonal's 2 E|xi_i + U|, U ~ N(0, s), has xi-curvature
        # 4 phi_i and s-slope 2 phi_i, phi_i = phi(xi_i; 0, s) = dv_diag,
        # and a pair's s-slope is its weight w_ij, whose xi-slope is
        # -(xi_i + xi_j) w_ij / (2 s) and s-slope w_ij (u_ij^2 - 1) / (2 s).
        # Every pair sum is read from W applied to (1, xi, z):
        # sum_j (xi_i + xi_j) w_ij = xi_i (W 1)_i + (W xi)_i and
        # sum_{i<j} w_ij (xi_i + xi_j)^2 = xi^2' W 1 + xi' W xi.  Where
        # xi_j is near -xi_i these cancel, and lose some |xi| / sqrt(s)
        # units in the last place of the pair terms.
        z = ctx.z
        w = _walsh_weights(xi, s, np.column_stack((np.ones(n), xi, z)))
        w1, wxi = w[:, 0], w[:, 1]
        # M's diagonal, and M z and d2l/deta ds, times n as H divides them by n
        d = 4.0 * dv_diag
        d += w1
        mz = d[:, None] * z
        mz += w[:, 2:]
        mz *= n / scale
        # sum_j (xi_i + xi_j) w_ij / (2 s) + 2 xi_i phi_i / s
        dx = xi * d
        dx += wxi
        dx *= n / (2.0 * s * scale)
        xi2 = xi * xi
        pairs = float(xi2 @ w1 + xi @ wxi) / (2.0 * s) - 0.5 * float(np.add.reduce(w1))
        dss = pairs / (2.0 * s) + (float(xi2 @ dv_diag) / s - phi_sum()) / s
        return mz, dx, dss / scale, (ds + 2.0 * phi_sum()) / scale

    return value, slopes, second


@_entry
def target_expectile(ctx: TargetContext, theta):
    """Smoothed asymmetric-squared-loss criterion for expectile regression.

    At tau = 1/2 the objective degenerates to (1/2) mean(xi^2 + s) for any
    lam >= -1, which at lam = -1 is the bias-corrected least-squares
    criterion.  Otherwise, per observation, the xi-derivative is
    2 (2 tau - 1)(xi Phi + s phi) + 2 (1 - tau) xi, the s-derivative
    (2 tau - 1) Phi + 1 - tau and the second xi-derivative
    2 ((2 tau - 1) Phi + 1 - tau), with Phi and phi of N(0, s) at xi.
    """
    if ctx.model.tau == 0.5:
        return _kernel(ctx, theta, _expectile_half_loss)
    return _kernel(ctx, theta, _expectile_loss, per_set=True)


def _expectile_half_loss(ctx: TargetContext, eta, s):
    xi = ctx.y - eta
    second = lambda mixed: (np.ones_like(xi), np.zeros_like(xi), 0.0, 0.5)  # noqa: E731
    xi2 = xi * xi
    if ctx.lam != 0.0:
        xi2 += _against_rows(s)
    return 0.5 * _mean(xi2), lambda: (-xi, 0.5), second


def _expectile_loss(ctx: TargetContext, eta: np.ndarray, s: float):
    tau = ctx.model.tau
    a = 2.0 * tau - 1.0
    xi = ctx.y - eta
    xi2 = xi * xi
    if s == 0.0:
        # the step cdf waits for a gradient
        value, cdf, spdf = float(_mean(np.where(xi < 0, 1.0 - tau, tau) * xi2)), None, 0.0
    else:
        # in u = xi / r, as for quantile: s phi(xi; 0, s) = s c e
        r = math.sqrt(s)
        u = xi / r
        cdf, e = normal_cdf(u), np.exp(-0.5 * u * u)
        c = _INV_SQRT_2PI / r
        spdf = (s * c) * e
        m_xe = float(_mean(xi * e))
        value = (a * (float(_mean((xi2 + s) * cdf)) + s * c * m_xe)
                 + (1.0 - tau) * (float(_mean(xi2)) + s))
    step = _once(lambda: normal_cdf(xi, 0.0, 0.0) if cdf is None else cdf)

    def slopes():
        dxi = 2.0 * a * (xi * step() + spdf) + 2.0 * (1.0 - tau) * xi
        return -dxi, a * float(_mean(step())) + 1.0 - tau

    def second(mixed):
        d2 = 2.0 * (a * step() + (1.0 - tau))
        if not mixed:
            return d2, None, None, None
        # d/deta of a Phi + 1 - tau is -a phi, and d/ds of it -a xi phi / (2 s)
        return d2, (-a * c) * e, (-0.5 * a * c / s) * m_xe, a * float(_mean(cdf)) + 1.0 - tau

    # at lam != 0 a floored s = 0 has no s-slopes to chain
    return (value, slopes, second) if s > 0.0 or ctx.lam == 0.0 else (value, slopes)


def _mean_values(fn, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    m = np.asarray(fn(x, theta), dtype=float)
    if m.shape != (x.shape[0],):
        raise ConfigError(
            f"mean_fn returned shape {m.shape} for a design of {x.shape[0]} "
            "rows; it must return one mean per row"
        )
    return m


def _generic_chunks(ctx: TargetContext):
    """The node-shifted design of the generic objective at ``ctx.lam > 0``,
    as (x, weights, roots) triples, one per chunk of at most
    ``GENERIC_CHUNK_ROWS`` design rows: x[k * n + i] = z[i] + u[k] for the
    chunk's nodes u[k], their quadrature weights w[k] as a list, and the
    column sqrt(w[k] / (n pi^(p/2))), which scales the Jacobian (see
    :func:`_gauss_newton`).

    The design does not depend on theta.  When it fits in one chunk, it is
    kept on the context and every later value call at ``ctx`` reuses it.
    It is reused only while the context's z, lam and dataset are the very
    objects it was built from, so a context that :meth:`TargetContext.take`
    made, or a copy with another z or lam, builds its own.  A larger design
    is built chunk by chunk on every call, so no call holds more than one
    chunk.
    """
    z_, lam, dataset, design = ctx.__dict__.get("_generic_design", (None,) * 4)
    if z_ is ctx.z and lam == ctx.lam and dataset is ctx.dataset:
        return design
    d, z = ctx.dataset, ctx.z
    scale = math.sqrt(2.0) * math.sqrt(ctx.lam) * d.sigma_root
    points, weights = tensor_hermite_rule(GENERIC_TENSOR_NODES, d.p)
    shifts = points @ scale.T
    chunk = max(1, GENERIC_CHUNK_ROWS // d.n)
    roots = np.sqrt(weights / (d.n * math.pi ** (d.p / 2.0)))[:, None]

    def build(k0):
        u = shifts[k0 : k0 + chunk]
        k = u.shape[0]
        # one contiguous (k, n) block per covariate: x[k * n + i] = z[i] + u[k]
        cols = np.empty((d.p, k, d.n))
        for j in range(d.p):
            np.add.outer(u[:, j], z[:, j], out=cols[j])
        cols.setflags(write=False)  # a kept design must not change under fn
        part = slice(k0, k0 + chunk)
        return cols.reshape(d.p, k * d.n).T, weights[part].tolist(), roots[part]

    if weights.size > chunk:
        return (build(k0) for k0 in range(0, weights.size, chunk))
    design = [build(0)]
    # a private attribute of the frozen context, outside its fields
    object.__setattr__(ctx, "_generic_design", (z, ctx.lam, d, design))
    return design


@_entry
def target_generic_ls(ctx: TargetContext, theta):
    """Least-squares objective for a user-supplied mean function.

    The Gaussian expectation over the inflated noise is computed by
    tensor-product Gauss-Hermite quadrature (``GENERIC_TENSOR_NODES`` per
    covariate) after the change of variables u = sqrt(lam) * root t, where
    root is the dataset's cached ``sigma_root``; capped at p = 3 covariates.
    The mean function is called once on the design shifted to every node,
    stacked into one (nodes**p * n, p) array, in chunks of at most
    ``GENERIC_CHUNK_ROWS`` rows.  A design of one chunk is built once per
    context and reused by every later call there, such as the 2q calls of
    the gradient (see :func:`_generic_chunks`).  Theta must have
    ``mean_fn.n_params`` entries when the mean function declares them.
    The objective is a weighted sum of squared residuals r = y - m, so
    ``grad`` and ``grad.hessian`` give its gradient and its Gauss-Newton
    curvature from the Jacobian of m (see :func:`_gauss_newton`).
    """
    d, y, z = ctx.dataset, ctx.y, ctx.z
    if d.p > GENERIC_MAX_P:
        raise CapacityError(
            f"generic family supports at most {GENERIC_MAX_P} covariates, got {d.p}"
        )
    m = ctx.model.mean_fn.fn
    if ctx.lam == 0.0:
        r = y - _mean_values(m, z, theta)
        resid, v = [r], float(r @ r) / d.n
    else:
        acc, resid = 0.0, []
        for x, weights, _ in _generic_chunks(ctx):
            r = y - _mean_values(m, x, theta).reshape(len(weights), d.n)
            resid.append(r.ravel())
            sums = (r[:, None, :] @ r[:, :, None]).ravel()
            # weighted sums of squares, added node by node in rule order
            for wt, ss in zip(weights, sums.tolist()):
                acc += wt * ss
        v = acc / (d.n * math.pi ** (d.p / 2.0))
    # one Jacobian pass gives both, at the first call of either
    slopes = cache(lambda: _gauss_newton(ctx, theta, resid))
    grad = lambda: slopes()[0]  # noqa: E731
    grad.hessian = lambda: slopes()[1]
    return _guard(v), grad


def _gauss_newton(ctx: TargetContext, th: np.ndarray, resid: list):
    """The gradient -2 J'Wr / N and the Gauss-Newton curvature 2 J'WJ / N
    of the generic objective at ``th``, from its residuals ``resid``, one
    flat array per design chunk (Nocedal & Wright, *Numerical
    Optimization*, 2006, ch. 10).

    W holds the quadrature weight of each design row's node, and N is n at
    lambda = 0 and n pi^(p/2) above it.  Column j of J = dm/dtheta is the
    central difference of the mean function with step h_j = max(1e-6,
    1e-7 |theta_j|): 2q calls per chunk, one pair at a time.  Each pair's
    difference, 2 h_j sqrt(W / N) dm/dtheta_j, goes into row j of a (q, rows)
    buffer kept on the context's plan, so no call allocates J afresh; the steps
    are divided out of the q and q x q sums.  The residuals are scaled by
    sqrt(W / N) in place, so this runs once per kernel call.  The sums are
    dot products of the buffer's rows, which cost a few times less than a
    BLAS product of so skinny a matrix, and only the upper triangle is
    summed, so the curvature is symmetric bit for bit.  A non-finite mean
    value gives a non-finite gradient, as inf entries.
    """
    d, m = ctx.dataset, ctx.model.mean_fn.fn
    n = d.n
    chunks = [(ctx.z, None, math.sqrt(1.0 / n))] if ctx.lam == 0.0 else _generic_chunks(ctx)
    q = th.size
    steps = np.diag(np.maximum(1e-6, 1e-7 * np.abs(th)))
    g, gram = np.zeros(q), np.zeros((q, q))
    for (x, _, root), r in zip(chunks, resid):
        jac = _jacobian_buffer(ctx, q, r.size)
        for j, step in enumerate(steps):
            np.subtract(_mean_values(m, x, th + step), _mean_values(m, x, th - step),
                        out=jac[j])
            col = jac[j].reshape(-1, n)  # one node's rows per line, a view
            col *= root
        nodes = r.reshape(-1, n)
        nodes *= root
        for j in range(q):
            g[j] -= jac[j] @ r
            for k in range(j, q):
                gram[j, k] += jac[j] @ jac[k]
    scale = 1.0 / np.diag(steps)
    h = 0.5 * gram * np.outer(scale, scale)
    iu, ju = _upper_pairs(q)
    h[ju, iu] = h[iu, ju]
    return _guard_vec(g * scale), h


def _jacobian_buffer(ctx: TargetContext, q: int, rows: int) -> np.ndarray:
    """A (q, rows) view of the Jacobian buffer kept on the context's plan,
    grown when it is too small: one allocation serves every gradient of
    every context that shares the plan, such as the grid points of a fit."""
    buf = ctx.plan.jacobian
    if buf is None or buf.shape[0] != q or buf.shape[1] < rows:
        buf = ctx.plan.jacobian = np.empty((q, rows))
    return buf[:, :rows]


# --------------------------------------------------------------------------
# starts, data-generating mechanisms, and the family table
# --------------------------------------------------------------------------


def _ols(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(x, y, rcond=None)[0]


def _start_least_squares(model: ModelSpec, d: Dataset) -> np.ndarray:
    if model.has_intercept:
        return _ols(d.y, np.column_stack([np.ones(d.n), d.z]))
    return _ols(d.y, d.z)


def _start_level(model: ModelSpec, d: Dataset) -> np.ndarray:
    start = _start_least_squares(model, d)
    if model.tau != 0.5:
        # shift any constant column by the residual tau-quantile so the
        # simplex search begins near the asymmetric optimum
        resid = d.y - d.z @ start
        for j in range(d.p):
            col = d.z[:, j]
            if col[0] != 0.0 and np.all(col == col[0]):
                start[j] += float(np.quantile(resid, model.tau)) / col[0]
                break
    return start


def _start_logistic(model: ModelSpec, d: Dataset) -> np.ndarray:
    start = np.zeros(model.n_params(d.p))
    if model.has_intercept:
        ybar = min(max(float(_mean(d.y)), 1e-3), 1.0 - 1e-3)
        start[0] = math.log(ybar / (1.0 - ybar))
    return start


def _start_generic(model: ModelSpec, d: Dataset) -> np.ndarray:
    q = model.mean_fn.n_params
    if q is None:
        raise ConfigError("generic family needs mean_fn.n_params or an explicit start")
    return np.zeros(q)


def _start_flat(model: ModelSpec, d: Dataset) -> np.ndarray:
    # exponential, sine: start flat and let the optimizer walk
    return np.zeros(d.p)


def _start_log_ols(model: ModelSpec, d: Dataset) -> np.ndarray:
    return _ols(np.log(d.y), d.z)


def _start_poisson(model: ModelSpec, d: Dataset) -> np.ndarray:
    return _ols(np.log(d.y + 0.5), d.z)


def lognormal_error(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive multiplicative error with unit mean."""
    s = _LOGNORMAL_SIGMA
    return np.exp(rng.normal(-0.5 * s * s, s, n))


def _simulate_additive(eta, draw_eps, rng) -> np.ndarray:
    return eta + draw_eps()


def _simulate_exponential(eta, draw_eps, rng) -> np.ndarray:
    return np.exp(eta) + draw_eps()


def _simulate_sine(eta, draw_eps, rng) -> np.ndarray:
    return np.sin(eta) + draw_eps()


def _simulate_poisson(eta, draw_eps, rng) -> np.ndarray:
    return rng.poisson(np.exp(eta)).astype(float)


def _simulate_logistic(eta, draw_eps, rng) -> np.ndarray:
    return rng.binomial(1, 1.0 / (1.0 + np.exp(-eta))).astype(float)


def _simulate_multiplicative(eta, draw_eps, rng) -> np.ndarray:
    return np.exp(eta) * lognormal_error(rng, eta.size)


_POSITIVE = ("strictly positive responses", lambda y: bool(np.all(y > 0)))


@dataclass(frozen=True)
class Family:
    """What the package knows about one model family.

    ``kernel(ctx, theta)`` returns ``(value, grad)``: the conditional-
    expectation loss at theta and a zero-argument callable that finishes its
    gradient from the value's own intermediates, with ``grad.hessian`` where
    the family states its curvature.  Generic, the one family with a
    ``mean_fn``, differentiates the user's mean function by central
    differences and takes Gauss-Newton curvature (:func:`_gauss_newton`).
    Every other kernel is the one skeleton :func:`_kernel` over the
    family's loss in (eta, s).  Each kernel is a public entry point
    (:func:`_entry`): it refuses a theta of the wrong length with
    ConfigError, and its value warns nothing, even where it overflows.  So
    do :func:`target_value`, :func:`target_gradient` and :func:`hessian`,
    whose gradient and Hessian warn nothing either; a ``grad`` or
    ``grad.hessian`` called directly runs in its caller's error state.  The
    solvers call the kernel's body (:func:`solver_kernel`) inside the one
    error state of each solve.
    ``start(model, dataset)`` is a cheap deterministic initial point for the
    lambda = 0 minimization.  ``simulate(eta, draw_eps, rng)`` draws
    responses given the linear predictor, calling ``draw_eps()`` for
    additive noise (None: no data-generating mechanism).  ``pluggable``
    marks an objective defined at lambda = -1, ``smooth_at_zero`` one that
    quasi-Newton can minimize at lambda = 0, and ``intercept`` and ``tau``
    the families that accept an intercept and require a level.
    ``y_domain`` is a (description, predicate) pair for valid responses.
    Every kernel but generic's also takes stacked data sets (see
    :class:`TargetContext`), so a quasi-Newton solve of several data sets
    at one noise level is one batch (see ``extrapolate.row_solver``).
    """

    kernel: Callable[[TargetContext, np.ndarray], tuple]
    start: Callable[[ModelSpec, Dataset], np.ndarray]
    simulate: Callable[..., np.ndarray] | None = None
    pluggable: bool = False
    smooth_at_zero: bool = True
    intercept: bool = False
    tau: bool = False
    y_domain: tuple[str, Callable[[np.ndarray], bool]] | None = None


FAMILIES: dict[str, Family] = {
    "linear": Family(
        target_linear, _start_least_squares, simulate=_simulate_additive,
        pluggable=True, intercept=True,
    ),
    "exponential": Family(
        target_exponential, _start_flat, simulate=_simulate_exponential, pluggable=True,
    ),
    "sine": Family(target_sine, _start_flat, simulate=_simulate_sine, pluggable=True),
    "poisson": Family(
        target_poisson_negloglik, _start_poisson, simulate=_simulate_poisson, pluggable=True,
        y_domain=(
            "nonnegative integer responses",
            lambda y: bool(np.all((y >= 0) & (y == np.floor(y)))),
        ),
    ),
    "logistic": Family(
        target_logistic, _start_logistic, simulate=_simulate_logistic, intercept=True,
        y_domain=("0/1 responses", lambda y: bool(np.all((y == 0.0) | (y == 1.0)))),
    ),
    "lpre": Family(
        target_lpre, _start_log_ols, simulate=_simulate_multiplicative,
        pluggable=True, y_domain=_POSITIVE,
    ),
    "lare": Family(
        target_lare, _start_log_ols, simulate=_simulate_multiplicative,
        smooth_at_zero=False, y_domain=_POSITIVE,
    ),
    "quantile": Family(
        target_quantile, _start_level, simulate=_simulate_additive,
        smooth_at_zero=False, tau=True,
    ),
    "walsh": Family(
        target_walsh, _start_least_squares, simulate=_simulate_additive, smooth_at_zero=False,
    ),
    "expectile": Family(target_expectile, _start_level, simulate=_simulate_additive, tau=True),
    "generic": Family(target_generic_ls, _start_generic),
}


def target_value(ctx: TargetContext, theta) -> float:
    """Evaluate the family objective for the context at theta."""
    return ctx.model.record.kernel(ctx, theta)[0]


def target_gradient(ctx: TargetContext, theta) -> np.ndarray:
    """Gradient of the family objective: the family's analytic gradient, or
    for generic -2 J'Wr / N from central differences of its mean function
    with step max(1e-6, 1e-7 |theta_j|) (see :func:`_gauss_newton`)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ctx.model.record.kernel(ctx, theta)[1]()


def hessian(ctx: TargetContext, theta) -> np.ndarray:
    """Hessian of the family objective at theta: (q, q), or (B, q, q) for
    a stack, each row with the bits of its own scalar call; symmetric bit
    for bit.

    Every family but generic states second slopes where its loss has
    curvature: linear, exponential, sine, poisson, lpre, logistic and
    expectile at every admissible lambda, quantile, lare and walsh where
    the smoothing variance s is above ``S_FLOOR``.  Generic returns its
    Gauss-Newton curvature 2 J'WJ / N at every lambda, which is its exact
    Hessian where the mean function is linear in theta.  A point without
    curvature raises ConfigError: quantile, lare and walsh at s = 0, and
    the set-by-set families (logistic, lare, quantile, walsh and expectile
    at tau != 1/2) where lam != 0 but s was floored to zero.  A
    stack of such families has a NaN row for each set without curvature,
    and raises ConfigError when no set has any.
    """
    curvature = getattr(ctx.model.record.kernel(ctx, theta)[1], "hessian", None)
    if curvature is None:
        raise ConfigError(f"family {ctx.model.family!r} has no analytic second slopes")
    with np.errstate(over="ignore", invalid="ignore"):
        return curvature()


def naive_start(model: ModelSpec, dataset: Dataset) -> np.ndarray:
    """Cheap deterministic initial point for the lambda = 0 minimization.

    The responses are checked against the family domain first, so an
    invalid y raises ModelMismatchError before any start is computed.
    """
    model.validate_y(dataset.y)
    return model.record.start(model, dataset)
