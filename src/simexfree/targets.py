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

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import CapacityError, ConfigError, ModelMismatchError
from .gaussian import hermite_rule, normal_cdf, normal_pdf, tensor_hermite_rule
from .optimize import batch_dot, finite_difference_gradient

# Below this, the smoothing variance s = lam * beta' sigma_u beta is treated
# as exactly zero: the closed-form limits are known and the normal cdf/pdf
# become numerically unstable.
S_FLOOR = 1e-12

WALSH_PAIR_CAP = 5000
# Values per temporary of a stacked objective call and of a walsh pair block.
# Each temporary then stays within 128 KiB, glibc's default mmap threshold:
# above it, every temporary is a fresh mapping, and its page faults made a
# 100 x 500 exponential evaluation cost about three times as much per value.
STACK_CHUNK_VALUES = 1 << 14
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
    every quadrature node into one call.  A result of any other shape
    raises ConfigError.
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

    ``z`` and ``y`` default to ``dataset.z`` and ``dataset.y``.  For any
    family they may instead be one data set of the same shape, (n, p) and
    (n,), that shares the dataset's sigma_u, so a pseudo-data solve needs no
    Dataset of its own.  For a family whose record is ``batched``, ``z`` may
    also be a stack of B such sets, shape (B, n, p), with ``y`` either the
    dataset's responses, shared by every set, or a stack of shape (B, n);
    the kernel then takes theta of shape (B, q) and returns B values, one
    per set.  The responses are checked against the family domain once, on
    construction; :meth:`take` selects stack rows without checking again.
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
        elif not self.model.record.batched:
            raise ConfigError(f"family {self.model.family!r} takes no stacked surrogates")
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
        if self.lam < -1.0:
            raise ConfigError(f"lam must be at least -1, got {self.lam}")
        if self.nodes < 2:
            raise ConfigError("quadrature node count must be at least 2")
        if self.lam < 0.0 and not self.model.pluggable:
            raise ConfigError(
                f"family {self.model.family!r} forbids negative lam; "
                "use the lambda-grid extrapolation path"
            )
        self.model.validate_y(self.y)

    def take(self, rows: np.ndarray) -> "TargetContext":
        """The context of the stacked sets ``rows``, an increasing index array.

        A gap-free run of rows is a view of the stack, any other selection a
        copy; shared responses stay shared.
        """
        if rows.size == self.z.shape[0]:
            return self  # increasing rows, as many as the stack has: all of them
        # increasing rows without a gap are a slice
        if rows[-1] - rows[0] == rows.size - 1:
            rows = slice(rows[0], rows[-1] + 1)
        sub = copy.copy(self)
        object.__setattr__(sub, "z", self.z[rows])
        if self.y.ndim == 2:
            object.__setattr__(sub, "y", self.y[rows])
        return sub


def _split(ctx: TargetContext, theta) -> tuple[float | np.ndarray, np.ndarray]:
    """Split flat parameters, (q,) or a batch (B, q), into (intercept, slopes).

    The intercept keeps a trailing axis of length 1, so it broadcasts
    against the rows; without one it is 0.0.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    q = ctx.model.n_params(ctx.dataset.p)
    if q is not None and th.shape[-1] != q:
        raise ConfigError(f"theta has length {th.shape[-1]}, expected {q}")
    if ctx.model.has_intercept:
        return th[..., :1], th[..., 1:]
    return 0.0, th


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` for a (..., m, k) and v (..., k), batch axes broadcast.

    Each batch row gets the bits of its own ``a @ v``; with one column that
    is the exact product, taken elementwise because a stack of (m, 1)
    matrix products costs several times more.
    """
    if v.ndim == 1:
        return a @ v
    if a.shape[-1] == 1:
        return a[..., 0] * v[..., :1]
    return (a @ v[..., None])[..., 0]


def _vecmat(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a.T @ v`` for a (..., m, k) and v (..., m), batch axes broadcast."""
    if v.ndim == 1 and a.ndim == 2:
        return a.T @ v
    return (v[..., None, :] @ a)[..., 0, :]


def _mean(a: np.ndarray) -> float | np.ndarray:
    """Mean over the last axis (the rows)."""
    return a.sum(axis=-1) / a.shape[-1]


def _quad(ctx: TargetContext, beta: np.ndarray, inner: bool = False):
    """``sigma_u beta`` and the quadratic form beta' sigma_u beta, for beta
    of shape (q,) or a batch (B, q).

    The form is summed as (beta' sigma_u) beta, or with ``inner`` as
    beta' (sigma_u beta); the two can differ in the last bit when beta has
    two or more coordinates.  Each kernel takes the order that keeps its
    fixed-seed results bit-identical to earlier releases: the inner one for
    exponential, poisson, sine and lpre.
    """
    su_beta = _matvec(ctx.dataset.sigma_u, beta)
    if inner:
        return su_beta, batch_dot(beta, su_beta)
    return su_beta, batch_dot(_vecmat(beta, ctx.dataset.sigma_u), beta)


def _smoothing_variance(ctx: TargetContext, quad) -> float:
    """s = lam * beta' sigma_u beta, floored to exactly zero below S_FLOOR."""
    s = ctx.lam * float(quad)
    if 0.0 < s < S_FLOOR:
        return 0.0
    return s


def _guard(value):
    """inf for a non-finite value: a float for one value, an array for a batch."""
    if isinstance(value, np.ndarray) and value.ndim:
        return _guard_vec(value)
    value = float(value)
    return value if math.isfinite(value) else math.inf


def _guard_vec(g: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(g), g, np.inf)


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)), written so that neither exp overflows."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 + 0.5 * np.tanh(0.5 * x)


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
# objective at theta, and a zero-argument callable that finishes its analytic
# gradient from the intermediates the value already computed (None for
# generic).  Calling ``grad`` only at an accepted point means a rejected
# line-search trial never pays for a gradient.
#
# The linear, exponential and poisson kernels are ``batched``: theta may be
# (B, q) against stacked surrogates (B, n, p).  For one theta they reduce to
# the same operations, and bits, as plain matrix-vector products.


def target_linear(ctx: TargetContext, theta):
    """Least-squares criterion plus lam times the slope penalty beta' sigma_u beta."""
    alpha, beta = _split(ctx, theta)
    d, y = ctx.dataset, ctx.y
    su_b, quad = _quad(ctx, beta)
    r = y - alpha - _matvec(ctx.z, beta)

    def grad():
        gb = (-2.0 / d.n) * _vecmat(r, ctx.z) + 2.0 * ctx.lam * su_b
        if ctx.model.has_intercept:
            return np.concatenate(((-2.0 * _mean(r))[..., None], gb), axis=-1)
        return gb

    return _guard(batch_dot(r, r) / d.n + ctx.lam * quad), grad


def target_exponential(ctx: TargetContext, theta):
    """Corrected squared-error criterion for the mean function exp(z' theta)."""
    _, t = _split(ctx, theta)
    d, y = ctx.dataset, ctx.y
    su_t, quad = _quad(ctx, t, inner=True)
    quad = quad[..., None]
    zt = _matvec(ctx.z, t)
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = np.exp(zt + 0.5 * ctx.lam * quad)
        e2 = np.exp(2.0 * zt + 2.0 * ctx.lam * quad)
        value = _mean(y * y - 2.0 * y * e1 + e2)

    def grad():
        with np.errstate(over="ignore", invalid="ignore"):
            ye1 = y * e1
            g = (
                -2.0 * (_vecmat(ye1, ctx.z) / d.n + ctx.lam * su_t * _mean(ye1)[..., None])
                + 2.0 * _vecmat(e2, ctx.z) / d.n
                + 4.0 * ctx.lam * su_t * _mean(e2)[..., None]
            )
        return _guard_vec(g)

    return _guard(value), grad


def target_sine(ctx: TargetContext, theta):
    """Corrected squared-error criterion for the mean function sin(z' theta)."""
    _, t = _split(ctx, theta)
    d, y, z = ctx.dataset, ctx.y, ctx.z
    su_t, quad = _quad(ctx, t, inner=True)
    zt = z @ t
    sin = np.sin(zt)
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = np.exp(-0.5 * ctx.lam * float(quad))
        e2 = np.exp(-2.0 * ctx.lam * float(quad))
        value = float(
            _mean(y * y - 2.0 * y * sin * e1 - 0.5 * np.cos(2.0 * zt) * e2) + 1.0
        )

    def grad():
        cos = np.cos(zt)
        with np.errstate(over="ignore", invalid="ignore"):
            # sin(2 zt) = 2 sin cos and cos(2 zt) = 1 - 2 sin^2
            g = (
                -2.0 * e1 * (z.T @ (y * cos) / d.n)
                + 2.0 * ctx.lam * e1 * su_t * float(_mean(y * sin))
                + 2.0 * e2 * (z.T @ (sin * cos) / d.n)
                + 2.0 * ctx.lam * e2 * su_t * (1.0 - 2.0 * float(_mean(sin * sin)))
            )
        return _guard_vec(g)

    return _guard(value), grad


def target_poisson_negloglik(ctx: TargetContext, theta):
    """Corrected Poisson negative log-likelihood (theta-free terms dropped)."""
    _, t = _split(ctx, theta)
    d, y = ctx.dataset, ctx.y
    su_t, quad = _quad(ctx, t, inner=True)
    zt = _matvec(ctx.z, t)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.exp(zt + 0.5 * ctx.lam * quad[..., None])
        value = -_mean(y * zt - mu)

    def grad():
        with np.errstate(over="ignore", invalid="ignore"):
            g = -_vecmat(y - mu, ctx.z) / d.n + ctx.lam * su_t * _mean(mu)[..., None]
        return _guard_vec(g)

    return _guard(value), grad


def target_logistic(ctx: TargetContext, theta):
    """Corrected Bernoulli negative log-likelihood.

    The log-partition term is the expectation of log(1 + exp(eta + u)) over
    u ~ N(0, s) with s = lam * beta' sigma_u beta, computed by Gauss-Hermite
    quadrature; at s = 0 it collapses to the plain softplus.  The gradient
    differentiates the same Hermite sum: the sigmoid at each node for eta,
    and node t times the sigmoid over sqrt(2 s) for s, chained through
    ds/dbeta = 2 lam sigma_u beta.
    """
    alpha, beta = _split(ctx, theta)
    d, y, z = ctx.dataset, ctx.y, ctx.z
    su_b, quad = _quad(ctx, beta)
    eta = alpha + z @ beta
    s = _smoothing_variance(ctx, quad)
    if s == 0.0:
        shifted = eta
        part = _softplus(eta)
    else:
        t, w = hermite_rule(ctx.nodes)
        root = math.sqrt(2.0 * s)
        shifted = eta[:, None] + (root * t)[None, :]
        part = _softplus(shifted) @ w / math.sqrt(math.pi)

    def grad():
        sig = _sigmoid(shifted)
        if s == 0.0:
            resid = y - sig
            gb = -(z.T @ resid) / d.n
        else:
            resid = y - sig @ w / math.sqrt(math.pi)
            dpart_ds = float(_mean(sig @ (w * t))) / (root * math.sqrt(math.pi))
            gb = -(z.T @ resid) / d.n + dpart_ds * 2.0 * ctx.lam * su_b
        if ctx.model.has_intercept:
            gb = np.concatenate(([-float(_mean(resid))], gb))
        return _guard_vec(gb)

    return _guard(-float(_mean(y * eta - part))), grad


def target_lpre(ctx: TargetContext, theta):
    """Corrected least-product-relative-error criterion (multiplicative model)."""
    _, t = _split(ctx, theta)
    d, y, z = ctx.dataset, ctx.y, ctx.z
    su_t, quad = _quad(ctx, t, inner=True)
    zt = z @ t
    with np.errstate(over="ignore", invalid="ignore"):
        lo = y * np.exp(-zt)
        hi = np.exp(zt) / y
        base = float(_mean(lo + hi))
        scale = math.exp(min(0.5 * ctx.lam * float(quad), 709.0))

    def grad():
        with np.errstate(over="ignore", invalid="ignore"):
            g = scale * (z.T @ (hi - lo) / d.n + ctx.lam * su_t * base)
        return _guard_vec(g)

    return _guard(base * scale), grad


def target_lare(ctx: TargetContext, theta):
    """Corrected least-absolute-relative-error criterion (multiplicative model).

    With s = lam * theta' sigma_u theta and l_i = log(y_i) - z_i' theta, the
    per-observation conditional expectation F is the sum of

        up = exp(z'theta + s/2) / y * [1 - 2 Phi(l - s; 0, s)] and
        down = y * exp(-z'theta + s/2) * [2 Phi(l + s; 0, s) - 1],

    which reduces to the plain criterion at s = 0.  With eta = z' theta the
    normal density terms cancel in dF/deta = up - down, and
    dF/ds = (1/2) d2F/deta2 = F/2 + 2 phi(l; 0, s).  At s = 0 the gradient
    is a subgradient of the plain criterion.
    """
    _, t = _split(ctx, theta)
    d, y, z = ctx.dataset, ctx.y, ctx.z
    su_t, quad = _quad(ctx, t)
    zt = z @ t
    s = _smoothing_variance(ctx, quad)

    def terms():
        with np.errstate(over="ignore", invalid="ignore"):
            ell = np.log(y) - zt
            up = np.exp(zt + 0.5 * s) / y * (1.0 - 2.0 * normal_cdf(ell - s, 0.0, s))
            down = y * np.exp(-zt + 0.5 * s) * (2.0 * normal_cdf(ell + s, 0.0, s) - 1.0)
        return ell, up, down

    if s == 0.0:
        # the plain criterion; the terms wait for a gradient, which a
        # simplex solve never asks for
        shared = None
        with np.errstate(over="ignore", invalid="ignore"):
            dev = np.abs(y - np.exp(zt))
            value = float(_mean(dev / y + np.exp(-zt) * dev))
    else:
        shared = terms()
        value = float(_mean(shared[1] + shared[2]))

    def grad():
        ell, up, down = shared or terms()
        with np.errstate(over="ignore", invalid="ignore"):
            g = z.T @ (up - down) / d.n
            if s > 0.0:
                ds = float(_mean(0.5 * (up + down) + 2.0 * normal_pdf(ell, 0.0, s)))
                g = g + ds * 2.0 * ctx.lam * su_t
        return _guard_vec(g)

    return _guard(value), grad


def target_quantile(ctx: TargetContext, theta):
    """Smoothed check-loss criterion for quantile regression.

    Per observation, with xi = y - z' beta and s = lam * beta' sigma_u beta:
    (tau - 1) xi + xi Phi(xi; 0, s) + s phi(xi; 0, s); the s = 0 branch is
    the plain check loss.  Its xi-derivative is tau - 1 + Phi(xi; 0, s) and
    its s-derivative phi(xi; 0, s) / 2; at s = 0 the gradient is a
    subgradient of the check loss.
    """
    _, beta = _split(ctx, theta)
    d, y, z = ctx.dataset, ctx.y, ctx.z
    tau = ctx.model.tau
    su_b, quad = _quad(ctx, beta)
    xi = y - z @ beta
    s = _smoothing_variance(ctx, quad)
    if s == 0.0:
        # the step cdf waits for a gradient, which a simplex solve never asks for
        value, cdf = float(_mean(xi * (tau - (xi < 0)))), None
    else:
        cdf, pdf = normal_cdf(xi, 0.0, s), normal_pdf(xi, 0.0, s)
        value = _guard(float(_mean((tau - 1.0) * xi + xi * cdf + s * pdf)))

    def grad():
        step = normal_cdf(xi, 0.0, s) if cdf is None else cdf
        g = -(z.T @ (tau - 1.0 + step)) / d.n
        if s > 0.0:
            g = g + float(_mean(pdf)) * ctx.lam * su_b
        return _guard_vec(g)

    return value, grad


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


def _walsh_pairs(xi: np.ndarray, s: float, slopes: bool = True, block: int | None = None):
    """Sum over the pairs i < j of E|xi_i + xi_j + W|, W ~ N(0, 2 s), its
    gradient in xi and its derivative in s.

    Each pair is evaluated once, in upper-triangular row blocks.  A block
    has ``STACK_CHUNK_VALUES // n`` rows unless ``block`` says otherwise, so
    none of its temporaries exceeds ``STACK_CHUNK_VALUES`` values.  A pair's
    xi-derivative goes to both of its rows: the row and column sums of the
    blocks.  Without ``slopes`` the gradient is None and the derivative 0.0.
    """
    if block is None:
        block = max(1, STACK_CHUNK_VALUES // xi.size)
    total, ds = 0.0, 0.0
    dxi = np.zeros(xi.size) if slopes else None
    for i0, i1, inner, outer in _upper_blocks(xi, block):
        v_in, dx_in, dv_in = _abs_smooth(inner, 2.0 * s, slopes)
        v_out, dx_out, dv_out = _abs_smooth(outer, 2.0 * s, slopes)
        total += float(np.sum(v_in))
        total += float(np.sum(v_out))
        if slopes:
            iu, ju = _upper_pairs(i1 - i0)
            dxi[i0:i1] += (
                np.bincount(iu, dx_in, i1 - i0)
                + np.bincount(ju, dx_in, i1 - i0)
                + dx_out.sum(axis=1)
            )
            dxi[i1:] += dx_out.sum(axis=0)
            # the pair variance is 2 s
            ds += 2.0 * (float(np.sum(dv_in)) + float(np.sum(dv_out)))
    return total, dxi, ds


def target_walsh(ctx: TargetContext, theta):
    """Smoothed Walsh-average (pairwise absolute sum) regression criterion.

    Exact O(n^2) pair evaluation; refuses beyond n = 5000.  The gradient is
    a subgradient at s = 0.
    """
    d, y = ctx.dataset, ctx.y
    n = d.n
    if n > WALSH_PAIR_CAP:
        raise CapacityError(
            f"walsh family evaluates all pairs exactly; n = {n} exceeds "
            f"the cap of {WALSH_PAIR_CAP}"
        )
    _, beta = _split(ctx, theta)
    su_b, quad = _quad(ctx, beta)
    xi = y - ctx.z @ beta
    s = _smoothing_variance(ctx, quad)
    # the i = j terms are |2 xi_i + 2 U_i| = 2 |xi_i + U_i|
    diag, dx_diag, dv_diag = _abs_smooth(xi, s)
    # at s > 0 the normal cdf dominates and one pass yields the slopes too;
    # at s = 0 they wait for a gradient, which a simplex solve never asks for
    pairs = _walsh_pairs(xi, s, slopes=s > 0.0)
    scale = 2.0 * n * (n + 1.0)

    def grad():
        _, dxi, ds = pairs if pairs[1] is not None else _walsh_pairs(xi, s)
        dxi = dxi + 2.0 * dx_diag
        ds += 2.0 * float(np.sum(dv_diag))
        g = -(ctx.z.T @ dxi) + ds * 2.0 * ctx.lam * su_b
        return _guard_vec(g / scale)

    return _guard((2.0 * float(np.sum(diag)) + pairs[0]) / scale), grad


def target_expectile(ctx: TargetContext, theta):
    """Smoothed asymmetric-squared-loss criterion for expectile regression.

    At tau = 1/2 the objective degenerates to (1/2) mean(xi^2 + s) for any
    lam >= -1, which at lam = -1 is the bias-corrected least-squares
    criterion.  Otherwise, per observation, the xi-derivative is
    2 (2 tau - 1)(xi Phi + s phi) + 2 (1 - tau) xi and the s-derivative
    (2 tau - 1) Phi + 1 - tau, with Phi and phi of N(0, s) at xi.
    """
    _, beta = _split(ctx, theta)
    d, y, z = ctx.dataset, ctx.y, ctx.z
    tau = ctx.model.tau
    su_b, quad = _quad(ctx, beta)
    xi = y - z @ beta
    if tau == 0.5:
        value = 0.5 * float(_mean(xi * xi + ctx.lam * float(quad)))
        return value, lambda: -(z.T @ xi) / d.n + ctx.lam * su_b
    s = _smoothing_variance(ctx, quad)
    if s == 0.0:
        # the step cdf waits for a gradient
        value, cdf, spdf = float(_mean(np.where(xi < 0, 1.0 - tau, tau) * xi * xi)), None, 0.0
    else:
        cdf, pdf = normal_cdf(xi, 0.0, s), normal_pdf(xi, 0.0, s)
        spdf = s * pdf
        v = (2.0 * tau - 1.0) * (xi * xi * cdf + s * xi * pdf + s * cdf) + (
            1.0 - tau
        ) * (xi * xi + s)
        value = _guard(float(_mean(v)))

    def grad():
        step = normal_cdf(xi, 0.0, s) if cdf is None else cdf
        dxi = 2.0 * (2.0 * tau - 1.0) * (xi * step + spdf) + 2.0 * (1.0 - tau) * xi
        g = -(z.T @ dxi) / d.n
        if s > 0.0:
            g = g + ((2.0 * tau - 1.0) * float(_mean(step)) + 1.0 - tau) * 2.0 * ctx.lam * su_b
        return _guard_vec(g)

    return value, grad


def _mean_values(fn, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    m = np.asarray(fn(x, theta), dtype=float)
    if m.shape != (x.shape[0],):
        raise ConfigError(
            f"mean_fn returned shape {m.shape} for a design of {x.shape[0]} "
            "rows; it must return one mean per row"
        )
    return m


def target_generic_ls(ctx: TargetContext, theta):
    """Least-squares objective for a user-supplied mean function.

    The Gaussian expectation over the inflated noise is computed by
    tensor-product Gauss-Hermite quadrature (``GENERIC_TENSOR_NODES`` per
    covariate) after the change of variables u = sqrt(lam) * root t, where
    root is the dataset's cached ``sigma_root``; capped at p = 3 covariates.
    The mean function is called once on the design shifted to every node,
    stacked into one (nodes**p * n, p) array, in chunks of at most
    ``GENERIC_CHUNK_ROWS`` rows.  The gradient is None: the objective runs
    user code, which is differentiated by central finite differences.
    """
    d, y, z = ctx.dataset, ctx.y, ctx.z
    if d.p > GENERIC_MAX_P:
        raise CapacityError(
            f"generic family supports at most {GENERIC_MAX_P} covariates, got {d.p}"
        )
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    m = ctx.model.mean_fn.fn
    with np.errstate(over="ignore", invalid="ignore"):
        if ctx.lam == 0.0:
            r = y - _mean_values(m, z, th)
            return _guard(float(r @ r) / d.n), None
        scale = math.sqrt(2.0) * math.sqrt(ctx.lam) * d.sigma_root
        points, weights = tensor_hermite_rule(GENERIC_TENSOR_NODES, d.p)
        shifts = points @ scale.T
        chunk = max(1, GENERIC_CHUNK_ROWS // d.n)
        acc = 0.0
        for k0 in range(0, weights.size, chunk):
            u = shifts[k0 : k0 + chunk]
            k = u.shape[0]
            # one contiguous (k, n) block per covariate: x[k * n + i] = z[i] + u[k]
            cols = np.empty((d.p, k, d.n))
            for j in range(d.p):
                np.add.outer(u[:, j], z[:, j], out=cols[j])
            x = cols.reshape(d.p, k * d.n).T
            r = y - _mean_values(m, x, th).reshape(k, d.n)
            sums = (r[:, None, :] @ r[:, :, None]).ravel()
            # weighted sums of squares, added node by node in rule order
            for wt, ss in zip(weights[k0 : k0 + chunk].tolist(), sums.tolist()):
                acc += wt * ss
        v = acc / (d.n * math.pi ** (d.p / 2.0))
    return _guard(v), None


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
    analytic gradient from the value's own intermediates.  ``grad`` is None
    when the objective runs user code (generic, the one family with a
    ``mean_fn``), which :func:`target_gradient` and the quasi-Newton solver
    then differentiate by central finite differences.
    ``start(model, dataset)`` is a cheap deterministic initial point for the
    lambda = 0 minimization.  ``simulate(eta, draw_eps, rng)`` draws
    responses given the linear predictor, calling ``draw_eps()`` for
    additive noise (None: no data-generating mechanism).  ``pluggable``
    marks an objective defined at lambda = -1, ``smooth_at_zero`` one that
    quasi-Newton can minimize at lambda = 0, and ``intercept`` and ``tau``
    the families that accept an intercept and require a level.
    ``y_domain`` is a (description, predicate) pair for valid responses.
    ``batched`` marks a kernel that broadcasts over stacked surrogates (see
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
    batched: bool = False


FAMILIES: dict[str, Family] = {
    "linear": Family(
        target_linear, _start_least_squares, simulate=_simulate_additive,
        pluggable=True, intercept=True, batched=True,
    ),
    "exponential": Family(
        target_exponential, _start_flat, simulate=_simulate_exponential,
        pluggable=True, batched=True,
    ),
    "sine": Family(target_sine, _start_flat, simulate=_simulate_sine, pluggable=True),
    "poisson": Family(
        target_poisson_negloglik, _start_poisson, simulate=_simulate_poisson,
        pluggable=True, batched=True,
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
        target_walsh, _start_least_squares, simulate=_simulate_additive,
        smooth_at_zero=False,
    ),
    "expectile": Family(target_expectile, _start_level, simulate=_simulate_additive, tau=True),
    "generic": Family(target_generic_ls, _start_generic),
}


def target_value(ctx: TargetContext, theta) -> float:
    """Evaluate the family objective for the context at theta."""
    return ctx.model.record.kernel(ctx, theta)[0]


def target_gradient(ctx: TargetContext, theta) -> np.ndarray:
    """Gradient of the family objective: the family's analytic gradient, or
    for generic central finite differences with step max(1e-6, 1e-7 |theta_j|)."""
    grad = ctx.model.record.kernel(ctx, theta)[1]
    if grad is not None:
        return grad()
    return finite_difference_gradient(lambda th: target_value(ctx, th), theta)


def naive_start(model: ModelSpec, dataset: Dataset) -> np.ndarray:
    """Cheap deterministic initial point for the lambda = 0 minimization.

    The responses are checked against the family domain first, so an
    invalid y raises ModelMismatchError before any start is computed.
    """
    model.validate_y(dataset.y)
    return model.record.start(model, dataset)
