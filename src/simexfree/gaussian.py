"""Normal density utilities, the Gaussian product identity, and quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ConfigError, DataError, FactorizationError

_LOG_2PI = math.log(2.0 * math.pi)


def normal_pdf(x, mean=0.0, var=1.0):
    """Density of N(mean, var) at x, parameterized by the variance.

    At var = 0 the density degenerates: 0 away from the mean, inf at it.
    """
    if var < 0:
        raise DataError(f"variance must be nonnegative, got {var}")
    x = np.asarray(x, dtype=float)
    if var == 0:
        return np.where(x == mean, np.inf, 0.0)
    d = x - mean
    return np.exp(-0.5 * d * d / var) / math.sqrt(2.0 * math.pi * var)


def normal_cdf(x, mean=0.0, var=1.0):
    """CDF of N(mean, var) at x, parameterized by the variance.

    At var = 0 returns the step 1{x >= mean}, with value 1/2 at x = mean.
    scipy.special is imported on the first call, so that families which never
    need the normal cdf do not pay for it at import time.
    """
    from scipy.special import ndtr

    if var < 0:
        raise DataError(f"variance must be nonnegative, got {var}")
    x = np.asarray(x, dtype=float)
    if var == 0:
        return np.where(x > mean, 1.0, np.where(x < mean, 0.0, 0.5))
    if mean != 0.0 or var != 1.0:
        x = (x - mean) / math.sqrt(var)
    return ndtr(x)


def _mvn_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("covariance is singular") from exc
    d = np.linalg.solve(chol, x - mean)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (len(x) * _LOG_2PI + logdet + d @ d)


@dataclass(frozen=True)
class GaussianFactorization:
    """Product of two normal densities, rewritten as mass times one density.

    phi(x; mu1, cov1) * phi(x; mu2, cov2) == mass * phi(x; mean, cov)
    for every x.
    """

    mass: float
    mean: np.ndarray
    cov: np.ndarray

    def density(self, x) -> float:
        """Evaluate the factorized product at a point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.mass * math.exp(_mvn_logpdf(x, self.mean, self.cov))


def density_product_factorize(mu1, cov1, mu2, cov2) -> GaussianFactorization:
    """Factorize the pointwise product of two normal densities.

    The combined covariance is (cov1^-1 + cov2^-1)^-1, the combined mean is
    its weighted average of mu1 and mu2, and the mass is the density of
    N(mu2, cov1 + cov2) evaluated at mu1.
    """
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    mu2 = np.atleast_1d(np.asarray(mu2, dtype=float))
    cov1 = np.atleast_2d(np.asarray(cov1, dtype=float))
    cov2 = np.atleast_2d(np.asarray(cov2, dtype=float))
    p = mu1.shape[0]
    if mu2.shape != (p,) or cov1.shape != (p, p) or cov2.shape != (p, p):
        raise DataError("dimension mismatch between means and covariances")
    for c in (cov1, cov2):
        try:
            np.linalg.cholesky(c)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError("component covariance is singular") from exc
    total = cov1 + cov2
    # (cov1^-1 + cov2^-1)^-1 == cov1 (cov1+cov2)^-1 cov2, solved without inverses
    cov = cov1 @ np.linalg.solve(total, cov2)
    cov = 0.5 * (cov + cov.T)
    mean = cov2 @ np.linalg.solve(total, mu1) + cov1 @ np.linalg.solve(total, mu2)
    mass = math.exp(_mvn_logpdf(mu1, mu2, total))
    return GaussianFactorization(mass=mass, mean=mean, cov=cov)


@lru_cache(maxsize=32)
def hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for weight function exp(-t^2)."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@lru_cache(maxsize=32)
def tensor_hermite_rule(nodes: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Hermite rule on R^p for weight exp(-|t|^2).

    Returns (points, weights) of shapes (nodes**p, p) and (nodes**p,), with
    the last coordinate varying fastest and each weight the left-to-right
    product of its coordinate weights.
    """
    t, w = hermite_rule(nodes)
    combos = list(product(range(nodes), repeat=p))
    points = t[np.array(combos, dtype=np.intp).reshape(len(combos), p)]
    weights = np.array([math.prod(w[k] for k in combo) for combo in combos])
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def gauss_hermite_expectation(f, mean: float, var: float, nodes: int = 30) -> float:
    """Approximate E[f(U)] for U ~ N(mean, var) by Gauss-Hermite quadrature.

    ``f`` must accept an array of evaluation points.  Exact for polynomials
    up to degree 2 * nodes - 1.
    """
    if nodes < 2:
        raise ConfigError(f"need at least 2 quadrature nodes, got {nodes}")
    if var <= 0:
        raise DataError(f"variance must be positive, got {var}")
    t, w = hermite_rule(int(nodes))
    x = mean + math.sqrt(2.0 * var) * t
    return float(w @ np.asarray(f(x), dtype=float)) / math.sqrt(math.pi)
