import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from zmf.errors import PoleError
from zmf.gamma import cpow, log_gamma
from zmf.hyper import _LG_ERR


def gamma(z):
    return cmath.exp(log_gamma(z))


def test_gamma_integers():
    for n in range(1, 12):
        assert gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-14)


def test_gamma_half():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)


def test_log_gamma_matches_scipy_on_positive_axis():
    for x in np.linspace(0.1, 30.0, 47):
        assert log_gamma(x).real == pytest.approx(gammaln(x), rel=1e-13, abs=1e-13)
        assert abs(log_gamma(x).imag) < 1e-13


def test_reflection_negative_real():
    # Gamma(-0.5) = -2 sqrt(pi)
    assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


def test_gamma_complex_conjugation():
    z = 1.3 + 2.1j
    assert gamma(z.conjugate()) == pytest.approx(gamma(z).conjugate(), rel=1e-13)


def test_gamma_recurrence_complex():
    for z in (0.3 + 0.7j, -1.4 + 2.0j, 5.5 - 3.0j):
        assert gamma(z + 1) == pytest.approx(z * gamma(z), rel=1e-12)


@pytest.mark.parametrize("z", [-2.5 + 0.1j, -3.3 + 0.5j, -1.5 + 0.01j])
def test_log_gamma_principal_branch(z):
    # The reflection formula put the imaginary part 2 pi off here
    # (-3.03 against -9.31 at -2.5 + 0.1i).
    assert log_gamma(z) == pytest.approx(complex(mpmath.loggamma(z)), rel=1e-14)


def test_log_gamma_within_the_prefactor_error_rule():
    # The per-factor error that zmf's Gamma prefactors charge.
    rng = np.random.default_rng(15)
    zs = rng.uniform(-6.0, 12.0, 400) + 1j * rng.uniform(-40.0, 40.0, 400)
    with mpmath.workdps(30):
        for z in list(zs) + [1.0 + 1e-7, 2.0 - 1e-7j, -2.5 + 1e-9j]:
            lg = log_gamma(z)
            assert abs(lg - complex(mpmath.loggamma(z))) <= _LG_ERR * (1.0 + abs(lg))


def test_log_gamma_pole():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_cpow_principal_branch():
    assert cpow(4.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    # (-1)^(1/2) on the principal branch is +i
    assert cpow(-1.0, 0.5) == pytest.approx(1j, rel=1e-14)
    assert cpow(0.0, 2.0) == 0.0
    assert cpow(0.0, 0.0) == 1.0


def test_cpow_log_identity():
    z, s = -2.0 + 1.5j, 0.7 - 0.2j
    assert cpow(z, s) == pytest.approx(cmath.exp(s * cmath.log(z)), rel=1e-14)
