import math

import mpmath
import numpy as np
import pytest

from zmf.errors import DomainError, EdgeSingularityError
from zmf.density import g_recursion, mellin_H, moment, moment_quadrature, p_hat, p_r
from zmf.oracle import density_quadrature
from zmf.types import ZmfPoint


def test_p_hat_r1_closed_form():
    for x in (0.3, 1.0, 1.9, -1.2):
        want = 1.0 / (math.pi * math.sqrt(4.0 - x * x))
        assert p_hat(1, x) == pytest.approx(want, rel=1e-12)


def test_p_hat_support():
    assert p_hat(1, 2.5) == 0.0
    assert p_hat(2, 4.7) == 0.0
    assert p_hat(3, -9.0) == 0.0


def test_p_hat_edge_singularities():
    with pytest.raises(EdgeSingularityError):
        p_hat(1, 2.0)
    with pytest.raises(EdgeSingularityError):
        p_hat(2, 0.0)


def test_p_hat_symmetry():
    for r in (1, 2, 3):
        for x in (0.4, 1.7, 3.0):
            if abs(x) < 2.0**r:
                assert p_hat(r, x) == pytest.approx(p_hat(r, -x), rel=1e-14)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_normalization(r):
    got = moment_quadrature(r, 0)
    assert got.value.real == pytest.approx(1.0, abs=1e-8)


def _g_mp(r: int, y) -> float:
    """G_2 or G_3 at y from mpmath's 2F1 at the working precision."""
    y = mpmath.mpf(y)
    if r == 2:
        return float(mpmath.hyp2f1(0.5, 0.5, 1, y) / (4 * mpmath.pi))
    return float(
        mpmath.sqrt(y) / (4 * mpmath.pi**2)
        * mpmath.hyp2f1(0.25, 0.25, 0.5, y)
        * mpmath.hyp2f1(0.75, 0.75, 1.5, y)
    )


@pytest.mark.parametrize("r", [2, 3])
def test_recursion_matches_closed_form(r):
    from zmf.density import _g_closed

    ys = np.linspace(0.02, 0.98, 20)
    for y in ys:
        closed = _g_closed(r, np.array([y]), np.array([1.0 - y]))[0]
        rec = g_recursion(r, float(y)).value.real
        assert rec == pytest.approx(closed, abs=1e-13, rel=1e-13)


@pytest.mark.parametrize("r", [2, 3])
def test_recursion_error_bar_holds(r):
    # With the distance 1 - v read exactly next to v = 1, G_2 and G_3 are at
    # rounding level; forming 1 - v from a node left them 1e-8 off.
    for y in np.linspace(0.02, 0.98, 20):
        got = g_recursion(r, float(y))
        with mpmath.workdps(30):
            want = _g_mp(r, float(y))
        assert got.value.real == pytest.approx(want, rel=1e-13)
        assert abs(got.value.real - want) <= got.abs_err


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("x", [2e-14, -3e-14, 1e-9, 1e-4])
def test_p_hat_near_zero(r, x):
    # 1 - x^2/4^r rounds to 1 below |x| ~ 1e-8 * 2^r; the density reads the
    # distance x^2/4^r itself and stays finite and right down to _EDGE_TOL.
    got = p_hat(r, x)
    with mpmath.workdps(60):
        want = _g_mp(r, 1 - mpmath.mpf(x) ** 2 / 4**r)
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-13)


def test_recursion_r4_matches_reference():
    # Reference: mpmath.quad of the recursion over the 2F1 form of G_3 at 25
    # digits, split at v = 1/2.  Forming 1 - v from a node left it 9e-9 off.
    got = g_recursion(4, 0.5)
    assert got.value.real == pytest.approx(0.005193905439858086, rel=1e-14)
    assert abs(got.value.real - 0.005193905439858086) <= got.abs_err


def test_recursion_reaches_r6():
    v4 = g_recursion(4, 0.5)
    v6 = g_recursion(6, 0.5)
    assert v4.value.real > 0.0 and v6.value.real > 0.0
    assert v4.abs_err < 1e-8 and v6.abs_err < 1e-6


def test_folded_density_matches_moment():
    # int x^2 p_r(k;x) dx must equal k^2 + 2^r; density_quadrature anchors
    # every singular point of the signed-product integrand at the end of a
    # piece, so the moment holds to rounding level
    for r, k in ((1, 1.0), (2, 3.0), (3, 2.0)):
        got = density_quadrature(ZmfPoint(r, k, 2.0))
        assert got.value.real == pytest.approx(k * k + 2.0**r, rel=1e-12)


def test_even_moments_are_central_binomials():
    for r in (1, 2, 3):
        for n in (1, 2, 3):
            want = float(math.comb(2 * n, n)) ** r
            got = moment(r, 2 * n, True)
            assert got.real == pytest.approx(want, rel=1e-12)


def test_even_moment_quadrature_matches_integers():
    for r in (1, 2, 3):
        for n in (1, 3, 5):
            want = float(math.comb(2 * n, n)) ** r
            got = moment_quadrature(r, 2 * n)
            assert got.value.real == pytest.approx(want, rel=1e-10)
    assert moment_quadrature(2, 3).value == 0.0


def test_odd_two_sided_moments_vanish():
    for r in (1, 2, 3):
        for v in (1, 3, 5):
            assert abs(moment(r, v, True)) < 1e-12


def test_one_sided_moment_positive():
    assert moment(1, 1.0, False).real == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_mellin_H_r1():
    # H-transform factor at s = 1 for one variable: G(1/2)G(2)/(2 pi G(5/2))
    want = math.gamma(0.5) * math.gamma(2.0) / (2.0 * math.pi * math.gamma(2.5))
    assert mellin_H(1, 1.0) == pytest.approx(want, rel=1e-12)


def test_p_r_recursion_raises_at_singular_abscissa():
    # G_4 diverges at y = 1, i.e. at x = k; the recursion path used to clip y
    # to 1 - 1e-15 and return a finite value there.
    with pytest.raises(EdgeSingularityError):
        p_r(4, 1.0, 1.0)
    assert p_r(4, 1.0, 1.5) > 0.0


def test_p_r_folding():
    # for x > k the folded density is p_hat(x-k)+p_hat(x+k) restricted to support
    r, k, x = 2, 1.0, 1.5
    want = p_hat(r, x - k) + p_hat(r, x + k)
    assert p_r(r, k, x) == pytest.approx(want, rel=1e-12)


def test_bad_inputs():
    with pytest.raises(DomainError):
        p_hat(7, 0.5)
    with pytest.raises(DomainError):
        g_recursion(1, 0.5)
