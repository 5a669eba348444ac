"""Dataset construction, parsing, and replicate-based sigma_u estimation."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simexfree import (
    ConfigError,
    DataError,
    Dataset,
    ModelSpec,
    ModelMismatchError,
    ReplicatePairs,
    estimate_sigma_u_from_replicates,
    load_dataset,
)
from simexfree.data import psd_factor


def test_dataset_shapes_and_dims():
    ds = Dataset(y=[1.0, 2.0, 3.0], z=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                 sigma_u=np.eye(2) * 0.1)
    assert ds.n == 3 and ds.p == 2
    assert ds.y.flags.writeable is False
    assert ds.z.flags.writeable is False


def test_dataset_rejects_mismatched_rows():
    with pytest.raises(DataError):
        Dataset(y=[1.0, 2.0], z=[[1.0], [2.0], [3.0]], sigma_u=[[0.1]])


def test_dataset_rejects_nonfinite():
    with pytest.raises(DataError):
        Dataset(y=[1.0, np.nan], z=[[1.0], [2.0]], sigma_u=[[0.1]])
    with pytest.raises(DataError):
        Dataset(y=[1.0, 2.0], z=[[np.inf], [2.0]], sigma_u=[[0.1]])


def test_sigma_u_symmetrized_and_clamped():
    # tiny negative eigenvalue within tolerance gets clamped with a warning
    sig = np.array([[0.1, 0.0], [0.0, -1e-13]])
    with pytest.warns(UserWarning):
        ds = Dataset(y=[1.0], z=[[1.0, 2.0]], sigma_u=sig)
    w = np.linalg.eigvalsh(ds.sigma_u)
    assert w.min() >= 0


def test_sigma_root_is_the_cached_read_only_factor():
    sig = np.array([[0.3, 0.1], [0.1, 0.2]])
    ds = Dataset(y=np.zeros(3), z=np.ones((3, 2)), sigma_u=sig)
    root = ds.sigma_root
    assert np.array_equal(root, psd_factor(ds.sigma_u))
    assert ds.sigma_root is root
    assert not root.flags.writeable


def test_sigma_u_rejects_asymmetry_beyond_rounding():
    with pytest.raises(DataError, match="sigma_u is not symmetric"):
        Dataset(y=[1.0], z=[[1.0, 2.0]], sigma_u=[[0.25, 0.2], [0.0, 0.25]])
    # an asymmetry at the rounding level is symmetrized away
    ds = Dataset(y=[1.0], z=[[1.0, 2.0]], sigma_u=[[0.25, 0.1 + 1e-15], [0.1, 0.25]])
    assert np.array_equal(ds.sigma_u, ds.sigma_u.T)
    assert abs(ds.sigma_u[0, 1] - 0.1) < 1e-15


def test_sigma_u_rejects_indefinite():
    with pytest.raises(DataError):
        Dataset(y=[1.0], z=[[1.0, 2.0]], sigma_u=[[0.1, 0.0], [0.0, -0.1]])


def test_load_dataset_three_rows():
    text = "y,z1,z2\n1,0.5,0.1\n2,1.5,0.2\n3,2.5,0.3\n"
    ds = load_dataset(io.StringIO(text), response="y", covariates=["z1", "z2"],
                      sigma_u=np.diag([0.1, 0.2]))
    assert ds.n == 3 and ds.p == 2
    assert np.allclose(ds.y, [1, 2, 3])
    assert np.allclose(ds.z[:, 0], [0.5, 1.5, 2.5])


def test_load_dataset_tab_delimited():
    text = "y\tz1\n1\t0.5\n2\t1.5\n"
    ds = load_dataset(io.StringIO(text), response="y", covariates=["z1"],
                      sigma_u=[[0.1]])
    assert ds.n == 2


def test_load_dataset_bad_cell_names_row():
    text = "y,z1\n1,0.5\n2,oops\n3,2.5\n"
    with pytest.raises(DataError, match="row 2"):
        load_dataset(io.StringIO(text), response="y", covariates=["z1"],
                     sigma_u=[[0.1]])


def test_load_dataset_missing_column():
    text = "y,z1\n1,0.5\n"
    with pytest.raises(DataError, match="z9"):
        load_dataset(io.StringIO(text), response="y", covariates=["z9"],
                     sigma_u=[[0.1]])


def test_load_dataset_from_replicates_hand_computed():
    # four rows: z = pair means, sigma_u = var of half-differences (ddof 1)
    z1 = np.array([1.0, 2.0, 3.0, 4.0])
    z2 = np.array([1.2, 1.6, 3.4, 3.6])
    text = "y,za,zb\n" + "".join(
        f"{i + 1.0},{a},{b}\n" for i, (a, b) in enumerate(zip(z1, z2))
    )
    ds = load_dataset(io.StringIO(text), response="y",
                      replicates=[("za", "zb")], sigma_u="from-replicates")
    assert np.allclose(ds.z[:, 0], (z1 + z2) / 2)
    d = (z1 - z2) / 2
    assert np.isclose(ds.sigma_u[0, 0], np.var(d, ddof=1))


def test_load_dataset_requires_one_source_of_covariates():
    text = "y,z1\n1,0.5\n"
    with pytest.raises(ConfigError):
        load_dataset(io.StringIO(text), response="y", sigma_u=[[0.1]])


def test_load_dataset_needs_a_covariate_column():
    text = "y,z1\n1,0.5\n"
    with pytest.raises(ConfigError, match="no covariate columns"):
        load_dataset(io.StringIO(text), response="y", covariates=[], sigma_u=[[0.1]])


def test_load_dataset_deterministic_and_order_preserving():
    text = "y,z1\n3,30\n1,10\n2,20\n"
    a = load_dataset(io.StringIO(text), response="y", covariates=["z1"], sigma_u=[[0.1]])
    b = load_dataset(io.StringIO(text), response="y", covariates=["z1"], sigma_u=[[0.1]])
    assert np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z)
    assert np.array_equal(a.y, [3, 1, 2])
    # permuting input rows permutes the dataset identically
    perm = "y,z1\n1,10\n2,20\n3,30\n"
    c = load_dataset(io.StringIO(perm), response="y", covariates=["z1"], sigma_u=[[0.1]])
    assert np.array_equal(np.sort(c.y), np.sort(a.y))
    assert np.array_equal(c.y, [1, 2, 3])


def test_replicates_identical_gives_zero_matrix():
    z = np.arange(6.0).reshape(3, 2)
    sig = estimate_sigma_u_from_replicates(ReplicatePairs(z1=z, z2=z))
    assert np.allclose(sig, 0.0)


def test_replicates_textbook_variance():
    # half-differences are exactly {-1, 0, 1}: sample variance 1
    z1 = np.array([0.0, 0.0, 0.0])
    z2 = np.array([2.0, 0.0, -2.0])
    sig = estimate_sigma_u_from_replicates(ReplicatePairs(z1=z1, z2=z2))
    assert np.isclose(sig[0, 0], 1.0)


def test_replicates_against_brute_force_covariance():
    rng = np.random.default_rng(5)
    z1 = rng.standard_normal((50, 2))
    z2 = rng.standard_normal((50, 2))
    sig = estimate_sigma_u_from_replicates(ReplicatePairs(z1=z1, z2=z2))
    d = (z1 - z2) / 2
    dc = d - d.mean(axis=0)
    brute = dc.T @ dc / (50 - 1)
    assert np.allclose(sig, brute, atol=1e-12)


def test_replicates_need_two_rows():
    with pytest.raises(DataError):
        estimate_sigma_u_from_replicates(ReplicatePairs(z1=[[1.0]], z2=[[2.0]]))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_replicate_estimate_is_symmetric_psd(n, p, seed):
    rng = np.random.default_rng(seed)
    reps = ReplicatePairs(z1=rng.standard_normal((n, p)),
                          z2=rng.standard_normal((n, p)))
    sig = estimate_sigma_u_from_replicates(reps)
    assert np.allclose(sig, sig.T)
    assert np.linalg.eigvalsh(sig).min() >= -1e-12


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(family="nope")
    with pytest.raises(ConfigError):
        ModelSpec(family="quantile")  # tau missing
    with pytest.raises(ConfigError):
        ModelSpec(family="quantile", tau=1.5)
    with pytest.raises(ConfigError):
        ModelSpec(family="poisson", tau=0.5)
    with pytest.raises(ConfigError):
        ModelSpec(family="exponential", intercept=True)
    assert ModelSpec(family="linear").has_intercept
    assert not ModelSpec(family="linear", intercept=False).has_intercept
    assert ModelSpec(family="expectile", tau=0.5).pluggable
    assert not ModelSpec(family="expectile", tau=0.3).pluggable
    assert ModelSpec(family="exponential").pluggable
    assert not ModelSpec(family="quantile", tau=0.5).pluggable


def test_model_spec_y_domains():
    with pytest.raises(ModelMismatchError):
        ModelSpec(family="poisson").validate_y(np.array([1.0, -2.0]))
    with pytest.raises(ModelMismatchError):
        ModelSpec(family="poisson").validate_y(np.array([1.5]))
    with pytest.raises(ModelMismatchError):
        ModelSpec(family="logistic").validate_y(np.array([0.0, 2.0]))
    with pytest.raises(ModelMismatchError):
        ModelSpec(family="lpre").validate_y(np.array([1.0, 0.0]))
    ModelSpec(family="lare").validate_y(np.array([0.5, 2.0]))
