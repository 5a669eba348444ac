"""Normal utilities, the density product identity, and Gauss-Hermite quadrature."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from simexfree import (
    ConfigError,
    DataError,
    FactorizationError,
    density_product_factorize,
    gauss_hermite_expectation,
    normal_cdf,
    normal_pdf,
)
from simexfree.gaussian import tensor_hermite_rule


def test_standard_normal_values():
    assert np.isclose(normal_cdf(0.0, 0.0, 1.0), 0.5)
    assert np.isclose(normal_pdf(0.0, 0.0, 1.0), 1.0 / math.sqrt(2 * math.pi))


def test_cdf_matches_numerical_integration():
    val = float(normal_cdf(1.2, 0.5, 4.0))
    num, _ = quad(lambda u: normal_pdf(u, 0.5, 4.0), -60.0, 1.2)
    assert abs(val - num) < 1e-10


def test_degenerate_variance():
    assert normal_pdf(1.0, 0.0, 0.0) == 0.0
    assert normal_cdf(1.0, 0.0, 0.0) == 1.0
    assert normal_cdf(-1.0, 0.0, 0.0) == 0.0
    assert normal_cdf(0.0, 0.0, 0.0) == 0.5
    with pytest.raises(DataError):
        normal_pdf(0.0, 0.0, -1.0)
    with pytest.raises(DataError):
        normal_cdf(0.0, 0.0, -1.0)


def test_density_product_scalar_hand_case():
    fac = density_product_factorize(0.0, 1.0, 0.0, 1.0)
    assert np.isclose(fac.mass, 1.0 / math.sqrt(4 * math.pi))
    assert np.allclose(fac.mean, 0.0)
    assert np.allclose(fac.cov, 0.5)
    # both sides equal (1/2 pi) exp(-x^2)
    for x in (-1.3, 0.2, 2.5):
        lhs = float(normal_pdf(x, 0.0, 1.0)) ** 2
        assert np.isclose(lhs, fac.density(x), rtol=1e-12)


def test_density_product_identical_components():
    mu = np.array([0.3, -1.1])
    cov = np.array([[1.0, 0.2], [0.2, 0.8]])
    fac = density_product_factorize(mu, cov, mu, cov)
    assert np.allclose(fac.mean, mu)
    assert np.allclose(fac.cov, cov / 2)


def _mvn_pdf(x, mean, cov):
    p = len(mean)
    d = x - mean
    sol = np.linalg.solve(cov, d)
    det = np.linalg.det(cov)
    return math.exp(-0.5 * d @ sol) / math.sqrt((2 * math.pi) ** p * det)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_density_product_identity_random(p):
    rng = np.random.default_rng(100 + p)
    for _ in range(20):
        mu1 = rng.standard_normal(p)
        mu2 = rng.standard_normal(p)
        a = rng.standard_normal((p, p))
        b = rng.standard_normal((p, p))
        cov1 = a @ a.T + 0.3 * np.eye(p)
        cov2 = b @ b.T + 0.3 * np.eye(p)
        fac = density_product_factorize(mu1, cov1, mu2, cov2)
        for _ in range(10):
            x = rng.standard_normal(p) * 2.0
            lhs = _mvn_pdf(x, mu1, cov1) * _mvn_pdf(x, mu2, cov2)
            assert abs(lhs - fac.density(x)) <= 1e-12 * max(1.0, abs(lhs))


def test_density_product_rejects_singular():
    with pytest.raises(FactorizationError):
        density_product_factorize([0.0, 0.0], np.zeros((2, 2)), [0.0, 0.0], np.eye(2))


def test_gauss_hermite_constant():
    for mean, var in [(0.0, 1.0), (2.0, 0.3), (-5.0, 7.0)]:
        assert np.isclose(gauss_hermite_expectation(lambda u: np.ones_like(u), mean, var), 1.0)


def test_gauss_hermite_mgf():
    # E exp(U) = exp(var / 2) for U ~ N(0, var)
    for var in (0.25, 1.0, 2.0):
        val = gauss_hermite_expectation(np.exp, 0.0, var, nodes=30)
        assert abs(val - math.exp(var / 2)) < 1e-10


def test_gauss_hermite_softplus_against_adaptive_quadrature():
    mean, var = 0.7, 0.3

    def integrand(u):
        softplus = math.log1p(math.exp(-abs(u))) + max(u, 0.0)
        return softplus * float(normal_pdf(u, mean, var))

    val = gauss_hermite_expectation(lambda u: np.logaddexp(0.0, u), mean, var, nodes=30)
    ref, _ = quad(integrand, -40.0, 40.0, limit=200)
    assert abs(val - ref) < 1e-8


def _normal_moment(d, mean, var):
    # recursion m_d = mean m_{d-1} + (d-1) var m_{d-2}
    m = [1.0, mean]
    for k in range(2, d + 1):
        m.append(mean * m[k - 1] + (k - 1) * var * m[k - 2])
    return m[d]


@pytest.mark.parametrize("nodes", [2, 5, 12])
def test_gauss_hermite_polynomial_exactness(nodes):
    mean, var = 0.4, 1.7
    for d in range(0, 2 * nodes):
        val = gauss_hermite_expectation(lambda u, d=d: u**d, mean, var, nodes=nodes)
        ref = _normal_moment(d, mean, var)
        assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


def test_gauss_hermite_configuration_errors():
    with pytest.raises(ConfigError):
        gauss_hermite_expectation(np.exp, 0.0, 1.0, nodes=1)
    with pytest.raises(DataError):
        gauss_hermite_expectation(np.exp, 0.0, 0.0)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_tensor_hermite_rule_integrates_quadratics(p):
    points, weights = tensor_hermite_rule(5, p)
    assert points.shape == (5**p, p) and weights.shape == (5**p,)
    # weight exp(-|t|^2): mass pi^(p/2), E t_j^2 = 1/2 under the normalized weight
    assert np.isclose(weights.sum(), math.pi ** (p / 2))
    assert np.allclose(weights @ points**2 / weights.sum(), 0.5)
    assert tensor_hermite_rule(5, p)[0] is points  # cached


def test_fitting_a_family_without_normal_cdf_never_imports_scipy_special():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import simexfree as sf\n"
        "rng = np.random.default_rng(0)\n"
        "x = rng.standard_normal(200)\n"
        "z = x + rng.normal(0.0, 0.5, 200)\n"
        "y = np.exp(x) + rng.standard_normal(200)\n"
        "sf.ex_estimate(sf.ModelSpec(family='exponential'), sf.Dataset(y=y, z=z, sigma_u=0.25))\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'\n"
        "sf.normal_cdf(0.0)\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
