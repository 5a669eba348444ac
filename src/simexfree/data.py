"""Datasets, table loading, and measurement-error covariance handling.

The observed design is a surrogate matrix ``z = x + u`` where the latent
covariates ``x`` are contaminated by additive normal noise ``u`` with known
covariance ``sigma_u``.  When two replicate measurements per subject are
available instead, ``sigma_u`` can be estimated from the half-differences of
the replicates and the surrogate is taken to be the replicate mean.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def repair_psd(sigma: np.ndarray, *, rtol: float = 1e-10) -> np.ndarray:
    """Symmetrize and clamp a nominally PSD matrix.

    Eigenvalues below ``-rtol * trace`` are rejected; small negative ones
    (numerical noise) are clamped to zero with a warning.
    """
    sym = 0.5 * (sigma + sigma.T)
    w, v = np.linalg.eigh(sym)
    floor = -rtol * max(np.trace(sym), 0.0)
    if w.min() < floor:
        raise DataError(
            f"sigma_u is not positive semidefinite (min eigenvalue {w.min():.3e})"
        )
    if w.min() < 0.0:
        warnings.warn(
            "clamped small negative eigenvalues of sigma_u to zero",
            stacklevel=3,
        )
        w = np.clip(w, 0.0, None)
        sym = (v * w) @ v.T
        sym = 0.5 * (sym + sym.T)
    return sym


def psd_factor(sigma: np.ndarray) -> np.ndarray:
    """Return A with A @ A.T equal to ``sigma``; works for singular PSD input."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(0.5 * (sigma + sigma.T))
        return v * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Responses, surrogate covariates, and known error covariance.

    Parameters
    ----------
    y : array of shape (n,)
        Responses, in model units.
    z : array of shape (n, p)
        Surrogate covariates (latent covariates plus normal noise).
    sigma_u : array of shape (p, p)
        Known covariance of the additive measurement error.  Symmetrized and
        eigenvalue-clamped to PSD on construction.

    All arrays are stored as read-only float copies; instances are immutable
    and safe to share across threads.  ``sigma_root`` is the factor of
    ``sigma_u`` (see :func:`psd_factor`), computed on first use.
    """

    y: np.ndarray
    z: np.ndarray
    sigma_u: np.ndarray
    n: int = field(init=False)
    p: int = field(init=False)

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        z = np.asarray(self.z, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        if y.ndim != 1 or z.ndim != 2:
            raise DataError("y must be a vector and z a matrix")
        if y.shape[0] != z.shape[0]:
            raise DataError(
                f"y has {y.shape[0]} rows but z has {z.shape[0]}"
            )
        n, p = z.shape
        if n < 1 or p < 1:
            raise DataError("need at least one observation and one covariate")
        sigma = np.asarray(self.sigma_u, dtype=float)
        if sigma.ndim == 0:
            sigma = sigma.reshape(1, 1)
        if sigma.shape != (p, p):
            raise DataError(
                f"sigma_u has shape {sigma.shape}, expected ({p}, {p})"
            )
        if not np.all(np.isfinite(y)):
            raise DataError("y contains non-finite entries")
        if not np.all(np.isfinite(z)):
            raise DataError("z contains non-finite entries")
        if not np.all(np.isfinite(sigma)):
            raise DataError("sigma_u contains non-finite entries")
        sigma = repair_psd(sigma)
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "z", _readonly(z))
        object.__setattr__(self, "sigma_u", _readonly(sigma))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)

    @cached_property
    def sigma_root(self) -> np.ndarray:
        return _readonly(psd_factor(self.sigma_u))


@dataclass(frozen=True, eq=False)
class ReplicatePairs:
    """Two replicate surrogate measurements per subject."""

    z1: np.ndarray
    z2: np.ndarray

    def __post_init__(self):
        z1 = np.asarray(self.z1, dtype=float)
        z2 = np.asarray(self.z2, dtype=float)
        if z1.ndim == 1:
            z1 = z1[:, None]
        if z2.ndim == 1:
            z2 = z2[:, None]
        if z1.shape != z2.shape:
            raise DataError(
                f"replicate shapes differ: {z1.shape} vs {z2.shape}"
            )
        if not (np.all(np.isfinite(z1)) and np.all(np.isfinite(z2))):
            raise DataError("replicates contain non-finite entries")
        object.__setattr__(self, "z1", _readonly(z1))
        object.__setattr__(self, "z2", _readonly(z2))

    @property
    def n(self) -> int:
        return self.z1.shape[0]

    @property
    def p(self) -> int:
        return self.z1.shape[1]

    def means(self) -> np.ndarray:
        """Per-row replicate means, the surrogate used downstream."""
        return 0.5 * (self.z1 + self.z2)


def estimate_sigma_u_from_replicates(reps: ReplicatePairs) -> np.ndarray:
    """Estimate the error covariance of the replicate-mean surrogate.

    Returns the sample covariance (denominator n - 1) of the half-differences
    d_i = (z1_i - z2_i) / 2.  For a single covariate this is the squared
    sample standard deviation of the half-differences.
    """
    if reps.n < 2:
        raise DataError("at least two replicate rows are required")
    d = 0.5 * (reps.z1 - reps.z2)
    cov = np.cov(d, rowvar=False, ddof=1)
    return np.atleast_2d(np.asarray(cov, dtype=float)).reshape(reps.p, reps.p)


def _sniff_delimiter(header: str) -> str:
    return "\t" if "\t" in header else ","


def _parse_table(source) -> tuple[list[str], np.ndarray]:
    """Parse a delimited text table with one header row into column names and floats."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise DataError("input is empty")
    delim = _sniff_delimiter(lines[0])
    reader = csv.reader(io.StringIO(text), delimiter=delim)
    header = [c.strip() for c in next(reader)]
    rows = []
    for i, raw in enumerate(reader, start=1):
        if not raw or all(not c.strip() for c in raw):
            continue
        if len(raw) != len(header):
            raise DataError(
                f"row {i} has {len(raw)} fields, expected {len(header)}"
            )
        vals = []
        for name, cell in zip(header, raw):
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataError(
                    f"non-numeric value {cell.strip()!r} at row {i}, column {name!r}"
                ) from None
        rows.append(vals)
    if not rows:
        raise DataError("input has a header but no data rows")
    return header, np.asarray(rows, dtype=float)


def _column(header: Sequence[str], table: np.ndarray, name: str) -> np.ndarray:
    try:
        idx = header.index(name)
    except ValueError:
        raise DataError(
            f"column {name!r} not found; available: {list(header)}"
        ) from None
    return table[:, idx]


def load_dataset(
    source,
    *,
    response: str,
    covariates: Sequence[str] | None = None,
    replicates: Sequence[tuple[str, str]] | None = None,
    sigma_u=None,
) -> Dataset:
    """Load a dataset from delimited text (comma or tab, one header row).

    Parameters
    ----------
    source : path or text file-like
    response : str
        Name of the response column.
    covariates : sequence of str, optional
        Surrogate covariate columns; requires an explicit ``sigma_u`` matrix.
    replicates : sequence of (str, str) pairs, optional
        Per-covariate replicate column pairs.  The surrogate becomes the
        pairwise replicate mean; with ``sigma_u="from-replicates"`` (or None)
        the error covariance is estimated from the half-differences.
    sigma_u : array-like, scalar, or "from-replicates"

    Parsing is deterministic and preserves row order.
    """
    if (covariates is None) == (replicates is None):
        raise ConfigError("specify exactly one of covariates or replicates")
    header, table = _parse_table(source)
    y = _column(header, table, response)
    if covariates is not None:
        if isinstance(sigma_u, str):
            raise ConfigError(
                "sigma_u='from-replicates' requires replicate column pairs"
            )
        if sigma_u is None:
            raise ConfigError("an explicit sigma_u matrix is required")
        z = np.column_stack([_column(header, table, c) for c in covariates])
        return Dataset(y=y, z=z, sigma_u=np.asarray(sigma_u, dtype=float))
    z1 = np.column_stack([_column(header, table, a) for a, _ in replicates])
    z2 = np.column_stack([_column(header, table, b) for _, b in replicates])
    reps = ReplicatePairs(z1=z1, z2=z2)
    if sigma_u is None or (isinstance(sigma_u, str) and sigma_u == "from-replicates"):
        sig = estimate_sigma_u_from_replicates(reps)
    elif isinstance(sigma_u, str):
        raise ConfigError(f"unknown sigma_u mode {sigma_u!r}")
    else:
        sig = np.asarray(sigma_u, dtype=float)
    return Dataset(y=y, z=reps.means(), sigma_u=sig)
