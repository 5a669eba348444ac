"""Conditional-expectation objectives and the table of model families.

Each objective is the exact conditional expectation, given the observed
data, of the family's classical loss evaluated on noise-inflated surrogates
``z + sqrt(lam) * v`` with ``v ~ N(0, sigma_u)``.  The noise level ``lam``
indexes the objectives: ``lam = 0`` recovers the classical loss on the
observed data, and for the pluggable families ``lam = -1`` removes the
measurement-error bias in one shot.

All functions are pure; a :class:`TargetContext` bundles the dataset, the
model, the noise level, and quadrature settings.  :data:`FAMILIES` holds one
:class:`Family` record per family: its objective, gradient, start, data
simulator, and the rules the rest of the package reads from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .data import Dataset, psd_factor
from .errors import CapacityError, ConfigError, ModelMismatchError
from .gaussian import hermite_rule, normal_cdf, normal_pdf, tensor_hermite_rule
from .optimize import finite_difference_gradient

# Below this, the smoothing variance s = lam * beta' sigma_u beta is treated
# as exactly zero: the closed-form limits are known and the normal cdf/pdf
# become numerically unstable.
S_FLOOR = 1e-12

WALSH_PAIR_CAP = 5000
# rows per block of the walsh pair sums, and stacked design rows per call of
# a generic mean function: both bound the temporaries at a few megabytes
WALSH_BLOCK = 256
GENERIC_CHUNK_ROWS = 1 << 16
GENERIC_MAX_P = 3
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
    """Dataset, model, noise level, and quadrature sizes for one objective."""

    dataset: Dataset
    model: ModelSpec
    lam: float
    nodes: int = 30
    tensor_nodes: int = 15

    def __post_init__(self):
        if self.lam < -1.0:
            raise ConfigError(f"lam must be at least -1, got {self.lam}")
        if self.nodes < 2 or self.tensor_nodes < 2:
            raise ConfigError("quadrature node counts must be at least 2")
        if self.lam < 0.0 and not self.model.pluggable:
            raise ConfigError(
                f"family {self.model.family!r} forbids negative lam; "
                "use the lambda-grid extrapolation path"
            )
        self.model.validate_y(self.dataset.y)


def _split(ctx: TargetContext, theta) -> tuple[float, np.ndarray]:
    """Split a flat parameter vector into (intercept, slopes)."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    q = ctx.model.n_params(ctx.dataset.p)
    if q is not None and th.size != q:
        raise ConfigError(f"theta has length {th.size}, expected {q}")
    if ctx.model.has_intercept:
        return float(th[0]), th[1:]
    return 0.0, th


def _smoothing_variance(ctx: TargetContext, beta: np.ndarray) -> float:
    s = ctx.lam * float(beta @ ctx.dataset.sigma_u @ beta)
    if 0.0 < s < S_FLOOR:
        return 0.0
    return s


def _guard(value: float) -> float:
    return value if np.isfinite(value) else np.inf


def _guard_vec(g: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(g), g, np.inf)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def _abs_smooth(x: np.ndarray, v: float) -> np.ndarray:
    """E|x + W| for W ~ N(0, v); |x| at v = 0."""
    if v == 0.0:
        return np.abs(x)
    # x (2 Phi(x; 0, v) - 1) + 2 v phi(x; 0, v), in the standardized u = x / r
    r = math.sqrt(v)
    u = x / r
    return x * (2.0 * normal_cdf(u) - 1.0) + (2.0 * r * _INV_SQRT_2PI) * np.exp(-0.5 * u * u)


def _abs_smooth_slopes(x: np.ndarray, v: float):
    """Derivatives of :func:`_abs_smooth` in x and in v.

    At v = 0 the x-derivative is sign(x) and the v-derivative is dropped,
    as the objectives treat a floored smoothing variance as exactly zero.
    """
    if v == 0.0:
        return np.sign(x), 0.0
    r = math.sqrt(v)
    u = x / r
    # d/dv E f(x + W) = E f''(x + W) / 2, and f'' = 2 delta for f = |.|
    return 2.0 * normal_cdf(u) - 1.0, (_INV_SQRT_2PI / r) * np.exp(-0.5 * u * u)


# --------------------------------------------------------------------------
# family objectives
# --------------------------------------------------------------------------


def target_linear(ctx: TargetContext, theta) -> float:
    """Least-squares criterion plus lam times the slope penalty beta' sigma_u beta."""
    alpha, beta = _split(ctx, theta)
    d = ctx.dataset
    r = d.y - alpha - d.z @ beta
    return float(r @ r) / d.n + ctx.lam * float(beta @ d.sigma_u @ beta)


def target_linear_gradient(ctx: TargetContext, theta) -> np.ndarray:
    alpha, beta = _split(ctx, theta)
    d = ctx.dataset
    r = d.y - alpha - d.z @ beta
    gb = (-2.0 / d.n) * (d.z.T @ r) + 2.0 * ctx.lam * (d.sigma_u @ beta)
    if ctx.model.has_intercept:
        return np.concatenate(([-2.0 * float(np.mean(r))], gb))
    return gb


def target_exponential(ctx: TargetContext, theta) -> float:
    """Corrected squared-error criterion for the mean function exp(z' theta)."""
    _, t = _split(ctx, theta)
    d = ctx.dataset
    quad = float(t @ d.sigma_u @ t)
    zt = d.z @ t
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = np.exp(zt + 0.5 * ctx.lam * quad)
        e2 = np.exp(2.0 * zt + 2.0 * ctx.lam * quad)
        v = float(np.mean(d.y * d.y - 2.0 * d.y * e1 + e2))
    return _guard(v)


def target_exponential_gradient(ctx: TargetContext, theta) -> np.ndarray:
    """Analytic gradient of :func:`target_exponential` (any admissible lam)."""
    _, t = _split(ctx, theta)
    d = ctx.dataset
    su_t = d.sigma_u @ t
    quad = float(t @ su_t)
    zt = d.z @ t
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = np.exp(zt + 0.5 * ctx.lam * quad)
        e2 = np.exp(2.0 * zt + 2.0 * ctx.lam * quad)
        ye1 = d.y * e1
        g = (
            -2.0 * (d.z.T @ ye1 / d.n + ctx.lam * su_t * float(np.mean(ye1)))
            + 2.0 * d.z.T @ e2 / d.n
            + 4.0 * ctx.lam * su_t * float(np.mean(e2))
        )
    return _guard_vec(g)


def target_sine(ctx: TargetContext, theta) -> float:
    """Corrected squared-error criterion for the mean function sin(z' theta)."""
    _, t = _split(ctx, theta)
    d = ctx.dataset
    quad = float(t @ d.sigma_u @ t)
    zt = d.z @ t
    with np.errstate(over="ignore", invalid="ignore"):
        v = float(
            np.mean(
                d.y * d.y
                - 2.0 * d.y * np.sin(zt) * np.exp(-0.5 * ctx.lam * quad)
                - 0.5 * np.cos(2.0 * zt) * np.exp(-2.0 * ctx.lam * quad)
            )
            + 1.0
        )
    return _guard(v)


def target_sine_gradient(ctx: TargetContext, theta) -> np.ndarray:
    """Analytic gradient of :func:`target_sine` (any admissible lam)."""
    _, t = _split(ctx, theta)
    d = ctx.dataset
    su_t = d.sigma_u @ t
    quad = float(t @ su_t)
    zt = d.z @ t
    sin, cos = np.sin(zt), np.cos(zt)
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = np.exp(-0.5 * ctx.lam * quad)
        e2 = np.exp(-2.0 * ctx.lam * quad)
        # sin(2 zt) = 2 sin cos and cos(2 zt) = 1 - 2 sin^2
        g = (
            -2.0 * e1 * (d.z.T @ (d.y * cos) / d.n)
            + 2.0 * ctx.lam * e1 * su_t * float(np.mean(d.y * sin))
            + 2.0 * e2 * (d.z.T @ (sin * cos) / d.n)
            + 2.0 * ctx.lam * e2 * su_t * (1.0 - 2.0 * float(np.mean(sin * sin)))
        )
    return _guard_vec(g)


def target_poisson_negloglik(ctx: TargetContext, theta) -> float:
    """Corrected Poisson negative log-likelihood (theta-free terms dropped)."""
    _, t = _split(ctx, theta)
    d = ctx.dataset
    quad = float(t @ d.sigma_u @ t)
    zt = d.z @ t
    with np.errstate(over="ignore", invalid="ignore"):
        v = -float(np.mean(d.y * zt - np.exp(zt + 0.5 * ctx.lam * quad)))
    return _guard(v)


def target_poisson_gradient(ctx: TargetContext, theta) -> np.ndarray:
    _, t = _split(ctx, theta)
    d = ctx.dataset
    su_t = d.sigma_u @ t
    quad = float(t @ su_t)
    zt = d.z @ t
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.exp(zt + 0.5 * ctx.lam * quad)
        g = -(d.z.T @ (d.y - mu)) / d.n + ctx.lam * su_t * float(np.mean(mu))
    return _guard_vec(g)


def target_logistic(ctx: TargetContext, theta) -> float:
    """Corrected Bernoulli negative log-likelihood.

    The log-partition term is the expectation of log(1 + exp(eta + u)) over
    u ~ N(0, s) with s = lam * beta' sigma_u beta, computed by Gauss-Hermite
    quadrature; at s = 0 it collapses to the plain softplus.
    """
    alpha, beta = _split(ctx, theta)
    d = ctx.dataset
    eta = alpha + d.z @ beta
    s = _smoothing_variance(ctx, beta)
    if s == 0.0:
        part = _softplus(eta)
    else:
        t, w = hermite_rule(ctx.nodes)
        u = math.sqrt(2.0 * s) * t
        part = _softplus(eta[:, None] + u[None, :]) @ w / math.sqrt(math.pi)
    return _guard(-float(np.mean(d.y * eta - part)))


def target_logistic_gradient(ctx: TargetContext, theta) -> np.ndarray:
    """Analytic gradient of :func:`target_logistic`.

    It differentiates the same Hermite sum: the sigmoid at each node for
    eta, and node t times the sigmoid over sqrt(2 s) for s, chained through
    ds/dbeta = 2 lam sigma_u beta.
    """
    alpha, beta = _split(ctx, theta)
    d = ctx.dataset
    eta = alpha + d.z @ beta
    s = _smoothing_variance(ctx, beta)
    if s == 0.0:
        resid = d.y - _sigmoid(eta)
        gb = -(d.z.T @ resid) / d.n
    else:
        t, w = hermite_rule(ctx.nodes)
        root = math.sqrt(2.0 * s)
        sig = _sigmoid(eta[:, None] + (root * t)[None, :])
        resid = d.y - sig @ w / math.sqrt(math.pi)
        dpart_ds = float(np.mean(sig @ (w * t))) / (root * math.sqrt(math.pi))
        gb = -(d.z.T @ resid) / d.n + dpart_ds * 2.0 * ctx.lam * (d.sigma_u @ beta)
    if ctx.model.has_intercept:
        gb = np.concatenate(([-float(np.mean(resid))], gb))
    return _guard_vec(gb)


def target_lpre(ctx: TargetContext, theta) -> float:
    """Corrected least-product-relative-error criterion (multiplicative model)."""
    _, t = _split(ctx, theta)
    d = ctx.dataset
    quad = float(t @ d.sigma_u @ t)
    zt = d.z @ t
    with np.errstate(over="ignore", invalid="ignore"):
        base = float(np.mean(d.y * np.exp(-zt) + np.exp(zt) / d.y))
        v = base * math.exp(min(0.5 * ctx.lam * quad, 709.0))
    return _guard(v)


def target_lpre_gradient(ctx: TargetContext, theta) -> np.ndarray:
    _, t = _split(ctx, theta)
    d = ctx.dataset
    su_t = d.sigma_u @ t
    quad = float(t @ su_t)
    zt = d.z @ t
    with np.errstate(over="ignore", invalid="ignore"):
        lo = d.y * np.exp(-zt)
        hi = np.exp(zt) / d.y
        scale = math.exp(min(0.5 * ctx.lam * quad, 709.0))
        g = scale * (
            d.z.T @ (hi - lo) / d.n
            + ctx.lam * su_t * float(np.mean(lo + hi))
        )
    return _guard_vec(g)


def target_lare(ctx: TargetContext, theta) -> float:
    """Corrected least-absolute-relative-error criterion (multiplicative model).

    With s = lam * theta' sigma_u theta and l_i = log(y_i) - z_i' theta, the
    per-observation conditional expectation is

        exp(z'theta + s/2) / y * [1 - 2 Phi(l - s; 0, s)]
        + y * exp(-z'theta + s/2) * [2 Phi(l + s; 0, s) - 1],

    which reduces to the plain criterion at s = 0.
    """
    _, t = _split(ctx, theta)
    d = ctx.dataset
    zt = d.z @ t
    s = _smoothing_variance(ctx, t)
    with np.errstate(over="ignore", invalid="ignore"):
        if s == 0.0:
            dev = np.abs(d.y - np.exp(zt))
            return _guard(float(np.mean(dev / d.y + np.exp(-zt) * dev)))
        ell = np.log(d.y) - zt
        lo = 1.0 - 2.0 * normal_cdf(ell - s, 0.0, s)
        hi = 2.0 * normal_cdf(ell + s, 0.0, s) - 1.0
        v = float(
            np.mean(
                np.exp(zt + 0.5 * s) / d.y * lo
                + d.y * np.exp(-zt + 0.5 * s) * hi
            )
        )
    return _guard(v)


def target_lare_gradient(ctx: TargetContext, theta) -> np.ndarray:
    """Analytic gradient of :func:`target_lare`.

    With F(eta, s) the per-observation term and eta = z' theta, the normal
    density terms cancel in dF/deta = e^(eta+s/2)/y lo - y e^(-eta+s/2) hi,
    and dF/ds = (1/2) d2F/deta2 = F/2 + 2 phi(l; 0, s).  At s = 0 this is a
    subgradient of the plain criterion.
    """
    _, t = _split(ctx, theta)
    d = ctx.dataset
    zt = d.z @ t
    s = _smoothing_variance(ctx, t)
    with np.errstate(over="ignore", invalid="ignore"):
        ell = np.log(d.y) - zt
        up = np.exp(zt + 0.5 * s) / d.y * (1.0 - 2.0 * normal_cdf(ell - s, 0.0, s))
        down = d.y * np.exp(-zt + 0.5 * s) * (2.0 * normal_cdf(ell + s, 0.0, s) - 1.0)
        g = d.z.T @ (up - down) / d.n
        if s > 0.0:
            ds = float(np.mean(0.5 * (up + down) + 2.0 * normal_pdf(ell, 0.0, s)))
            g = g + ds * 2.0 * ctx.lam * (d.sigma_u @ t)
    return _guard_vec(g)


def target_quantile(ctx: TargetContext, theta) -> float:
    """Smoothed check-loss criterion for quantile regression.

    Per observation, with xi = y - z' beta and s = lam * beta' sigma_u beta:
    (tau - 1) xi + xi Phi(xi; 0, s) + s phi(xi; 0, s); the s = 0 branch is
    the plain check loss.
    """
    _, beta = _split(ctx, theta)
    d = ctx.dataset
    tau = ctx.model.tau
    xi = d.y - d.z @ beta
    s = _smoothing_variance(ctx, beta)
    if s == 0.0:
        return float(np.mean(xi * (tau - (xi < 0))))
    v = (tau - 1.0) * xi + xi * normal_cdf(xi, 0.0, s) + s * normal_pdf(xi, 0.0, s)
    return _guard(float(np.mean(v)))


def target_quantile_gradient(ctx: TargetContext, theta) -> np.ndarray:
    """Analytic gradient of :func:`target_quantile`: per observation the
    xi-derivative is tau - 1 + Phi(xi; 0, s) and the s-derivative
    phi(xi; 0, s) / 2.  At s = 0 this is a subgradient of the check loss."""
    _, beta = _split(ctx, theta)
    d = ctx.dataset
    xi = d.y - d.z @ beta
    s = _smoothing_variance(ctx, beta)
    g = -(d.z.T @ (ctx.model.tau - 1.0 + normal_cdf(xi, 0.0, s))) / d.n
    if s > 0.0:
        g = g + float(np.mean(normal_pdf(xi, 0.0, s))) * ctx.lam * (d.sigma_u @ beta)
    return _guard_vec(g)


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


def _walsh_pair_sum(xi: np.ndarray, s: float, block: int = WALSH_BLOCK) -> float:
    """Sum over the pairs i < j of E|xi_i + xi_j + W|, W ~ N(0, 2 s).

    Each pair is evaluated once, in upper-triangular row blocks that bound
    memory at the n = 5000 cap.
    """
    total = 0.0
    for _, _, inner, outer in _upper_blocks(xi, block):
        total += float(np.sum(_abs_smooth(inner, 2.0 * s)))
        total += float(np.sum(_abs_smooth(outer, 2.0 * s)))
    return total


def _walsh_pair_slopes(
    xi: np.ndarray, s: float, block: int = WALSH_BLOCK
) -> tuple[np.ndarray, float]:
    """Gradient of :func:`_walsh_pair_sum` in xi, and its derivative in s.

    A pair's xi-derivative goes to both of its rows: the row and column sums
    of the blocks that :func:`_walsh_pair_sum` sums.
    """
    dxi = np.zeros(xi.size)
    ds = 0.0
    for i0, i1, inner, outer in _upper_blocks(xi, block):
        iu, ju = _upper_pairs(i1 - i0)
        dx_in, dv_in = _abs_smooth_slopes(inner, 2.0 * s)
        dx_out, dv_out = _abs_smooth_slopes(outer, 2.0 * s)
        dxi[i0:i1] += (
            np.bincount(iu, dx_in, i1 - i0)
            + np.bincount(ju, dx_in, i1 - i0)
            + dx_out.sum(axis=1)
        )
        dxi[i1:] += dx_out.sum(axis=0)
        # the pair variance is 2 s
        ds += 2.0 * (float(np.sum(dv_in)) + float(np.sum(dv_out)))
    return dxi, ds


def _walsh_residuals(ctx: TargetContext, theta) -> tuple[np.ndarray, np.ndarray, float]:
    d = ctx.dataset
    if d.n > WALSH_PAIR_CAP:
        raise CapacityError(
            f"walsh family evaluates all pairs exactly; n = {d.n} exceeds "
            f"the cap of {WALSH_PAIR_CAP}"
        )
    _, beta = _split(ctx, theta)
    return beta, d.y - d.z @ beta, _smoothing_variance(ctx, beta)


def target_walsh(ctx: TargetContext, theta) -> float:
    """Smoothed Walsh-average (pairwise absolute sum) regression criterion.

    Exact O(n^2) pair evaluation; refuses beyond n = 5000.
    """
    n = ctx.dataset.n
    _, xi, s = _walsh_residuals(ctx, theta)
    # the i = j terms are |2 xi_i + 2 U_i| = 2 |xi_i + U_i|
    diag = 2.0 * float(np.sum(_abs_smooth(xi, s)))
    pairs = _walsh_pair_sum(xi, s)
    return _guard((diag + pairs) / (2.0 * n * (n + 1.0)))


def target_walsh_gradient(ctx: TargetContext, theta) -> np.ndarray:
    """Analytic gradient of :func:`target_walsh`; a subgradient at s = 0."""
    d = ctx.dataset
    beta, xi, s = _walsh_residuals(ctx, theta)
    dx_diag, dv_diag = _abs_smooth_slopes(xi, s)
    dxi, ds = _walsh_pair_slopes(xi, s)
    dxi += 2.0 * dx_diag
    ds += 2.0 * float(np.sum(dv_diag))
    g = -(d.z.T @ dxi) + ds * 2.0 * ctx.lam * (d.sigma_u @ beta)
    return _guard_vec(g / (2.0 * d.n * (d.n + 1.0)))


def target_expectile(ctx: TargetContext, theta) -> float:
    """Smoothed asymmetric-squared-loss criterion for expectile regression.

    At tau = 1/2 the objective degenerates to (1/2) mean(xi^2 + s) for any
    lam >= -1, which at lam = -1 is the bias-corrected least-squares
    criterion.
    """
    _, beta = _split(ctx, theta)
    d = ctx.dataset
    tau = ctx.model.tau
    xi = d.y - d.z @ beta
    if tau == 0.5:
        s = ctx.lam * float(beta @ d.sigma_u @ beta)
        return 0.5 * float(np.mean(xi * xi + s))
    s = _smoothing_variance(ctx, beta)
    if s == 0.0:
        return float(np.mean(np.where(xi < 0, 1.0 - tau, tau) * xi * xi))
    cdf = normal_cdf(xi, 0.0, s)
    pdf = normal_pdf(xi, 0.0, s)
    v = (2.0 * tau - 1.0) * (xi * xi * cdf + s * xi * pdf + s * cdf) + (
        1.0 - tau
    ) * (xi * xi + s)
    return _guard(float(np.mean(v)))


def target_expectile_gradient(ctx: TargetContext, theta) -> np.ndarray:
    """Analytic gradient of :func:`target_expectile`.

    Per observation the xi-derivative is
    2 (2 tau - 1)(xi Phi + s phi) + 2 (1 - tau) xi and the s-derivative
    (2 tau - 1) Phi + 1 - tau, with Phi and phi of N(0, s) at xi.
    """
    _, beta = _split(ctx, theta)
    d = ctx.dataset
    tau = ctx.model.tau
    xi = d.y - d.z @ beta
    if tau == 0.5:
        return -(d.z.T @ xi) / d.n + ctx.lam * (d.sigma_u @ beta)
    s = _smoothing_variance(ctx, beta)
    cdf = normal_cdf(xi, 0.0, s)
    spdf = s * normal_pdf(xi, 0.0, s) if s > 0.0 else 0.0
    dxi = 2.0 * (2.0 * tau - 1.0) * (xi * cdf + spdf) + 2.0 * (1.0 - tau) * xi
    g = -(d.z.T @ dxi) / d.n
    if s > 0.0:
        ds = (2.0 * tau - 1.0) * float(np.mean(cdf)) + 1.0 - tau
        g = g + ds * 2.0 * ctx.lam * (d.sigma_u @ beta)
    return _guard_vec(g)


def _mean_values(fn, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    m = np.asarray(fn(x, theta), dtype=float)
    if m.shape != (x.shape[0],):
        raise ConfigError(
            f"mean_fn returned shape {m.shape} for a design of {x.shape[0]} "
            "rows; it must return one mean per row"
        )
    return m


def target_generic_ls(ctx: TargetContext, theta) -> float:
    """Least-squares objective for a user-supplied mean function.

    The Gaussian expectation over the inflated noise is computed by
    tensor-product Gauss-Hermite quadrature after the change of variables
    u = sqrt(lam) * chol(sigma_u) t; capped at p = 3 covariates.  The mean
    function is called once on the design shifted to every node, stacked
    into one (nodes**p * n, p) array, in chunks of at most
    ``GENERIC_CHUNK_ROWS`` rows.
    """
    d = ctx.dataset
    if d.p > GENERIC_MAX_P:
        raise CapacityError(
            f"generic family supports at most {GENERIC_MAX_P} covariates, got {d.p}"
        )
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    m = ctx.model.mean_fn.fn
    with np.errstate(over="ignore", invalid="ignore"):
        if ctx.lam == 0.0:
            r = d.y - _mean_values(m, d.z, th)
            return _guard(float(r @ r) / d.n)
        scale = math.sqrt(2.0) * math.sqrt(ctx.lam) * psd_factor(d.sigma_u)
        points, weights = tensor_hermite_rule(ctx.tensor_nodes, d.p)
        shifts = points @ scale.T
        chunk = max(1, GENERIC_CHUNK_ROWS // d.n)
        acc = 0.0
        for k0 in range(0, weights.size, chunk):
            u = shifts[k0 : k0 + chunk]
            k = u.shape[0]
            # one contiguous (k, n) block per covariate: x[k * n + i] = z[i] + u[k]
            cols = np.empty((d.p, k, d.n))
            for j in range(d.p):
                np.add.outer(u[:, j], d.z[:, j], out=cols[j])
            x = cols.reshape(d.p, k * d.n).T
            r = d.y - _mean_values(m, x, th).reshape(k, d.n)
            sums = (r[:, None, :] @ r[:, :, None]).ravel()
            # weighted sums of squares, added node by node in rule order
            for wt, ss in zip(weights[k0 : k0 + chunk].tolist(), sums.tolist()):
                acc += wt * ss
        v = acc / (d.n * math.pi ** (d.p / 2.0))
    return _guard(v)


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
        ybar = min(max(float(np.mean(d.y)), 1e-3), 1.0 - 1e-3)
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

    ``objective(ctx, theta)`` is the conditional-expectation loss and
    ``gradient`` its analytic gradient, or None when the objective runs user
    code (generic), which :func:`target_gradient` then differentiates by
    central finite differences.
    ``start(model, dataset)`` is a cheap deterministic initial point for the
    lambda = 0 minimization.  ``simulate(eta, draw_eps, rng)`` draws
    responses given the linear predictor, calling ``draw_eps()`` for
    additive noise (None: no data-generating mechanism).  ``pluggable``
    marks an objective defined at lambda = -1, ``smooth_at_zero`` one that
    quasi-Newton can minimize at lambda = 0, and ``intercept`` and ``tau``
    the families that accept an intercept and require a level.
    ``y_domain`` is a (description, predicate) pair for valid responses.
    """

    objective: Callable[[TargetContext, np.ndarray], float]
    start: Callable[[ModelSpec, Dataset], np.ndarray]
    gradient: Callable[[TargetContext, np.ndarray], np.ndarray] | None = None
    simulate: Callable[..., np.ndarray] | None = None
    pluggable: bool = False
    smooth_at_zero: bool = True
    intercept: bool = False
    tau: bool = False
    y_domain: tuple[str, Callable[[np.ndarray], bool]] | None = None


FAMILIES: dict[str, Family] = {
    "linear": Family(
        target_linear, _start_least_squares, gradient=target_linear_gradient,
        simulate=_simulate_additive, pluggable=True, intercept=True,
    ),
    "exponential": Family(
        target_exponential, _start_flat, gradient=target_exponential_gradient,
        simulate=_simulate_exponential, pluggable=True,
    ),
    "sine": Family(
        target_sine, _start_flat, gradient=target_sine_gradient,
        simulate=_simulate_sine, pluggable=True,
    ),
    "poisson": Family(
        target_poisson_negloglik, _start_poisson, gradient=target_poisson_gradient,
        simulate=_simulate_poisson, pluggable=True,
        y_domain=(
            "nonnegative integer responses",
            lambda y: bool(np.all((y >= 0) & (y == np.floor(y)))),
        ),
    ),
    "logistic": Family(
        target_logistic, _start_logistic, gradient=target_logistic_gradient,
        simulate=_simulate_logistic, intercept=True,
        y_domain=("0/1 responses", lambda y: bool(np.all((y == 0.0) | (y == 1.0)))),
    ),
    "lpre": Family(
        target_lpre, _start_log_ols, gradient=target_lpre_gradient,
        simulate=_simulate_multiplicative, pluggable=True, y_domain=_POSITIVE,
    ),
    "lare": Family(
        target_lare, _start_log_ols, gradient=target_lare_gradient,
        simulate=_simulate_multiplicative, smooth_at_zero=False, y_domain=_POSITIVE,
    ),
    "quantile": Family(
        target_quantile, _start_level, gradient=target_quantile_gradient,
        simulate=_simulate_additive, smooth_at_zero=False, tau=True,
    ),
    "walsh": Family(
        target_walsh, _start_least_squares, gradient=target_walsh_gradient,
        simulate=_simulate_additive, smooth_at_zero=False,
    ),
    "expectile": Family(
        target_expectile, _start_level, gradient=target_expectile_gradient,
        simulate=_simulate_additive, tau=True,
    ),
    "generic": Family(target_generic_ls, _start_generic),
}


def target_value(ctx: TargetContext, theta) -> float:
    """Evaluate the family objective for the context at theta."""
    return ctx.model.record.objective(ctx, theta)


def target_gradient(ctx: TargetContext, theta) -> np.ndarray:
    """Gradient of the family objective: the family's analytic gradient, or
    for generic central finite differences with step max(1e-6, 1e-7 |theta_j|)."""
    fn = ctx.model.record.gradient
    if fn is not None:
        return fn(ctx, theta)
    return finite_difference_gradient(lambda th: target_value(ctx, th), theta)


def naive_start(model: ModelSpec, dataset: Dataset) -> np.ndarray:
    """Cheap deterministic initial point for the lambda = 0 minimization.

    The responses are checked against the family domain first, so an
    invalid y raises ModelMismatchError before any start is computed.
    """
    model.validate_y(dataset.y)
    return model.record.start(model, dataset)
