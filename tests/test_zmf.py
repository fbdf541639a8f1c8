import cmath
import math

import pytest

import zmf.zmf as zmf_module
from zmf.errors import DomainError, PoleError
from zmf.meijer import meijer_triple_integral
from zmf.zmf import (
    boundary_derivative_check,
    f_rs,
    h_rs,
    k_zero_derivatives,
    w,
    w1,
    w2,
    w2_odd,
    w3,
    w_light,
    w_real_s,
)

SQRT3 = math.sqrt(3.0)


class TestW1:
    def test_light_integer_moment(self):
        # E(k + 2cos)^2 = k^2 + 2
        assert w1(3.0, 2.0).value.real == pytest.approx(11.0, rel=1e-13)
        assert w1(5.0, 2.0).value.real == pytest.approx(27.0, rel=1e-13)

    def test_heavy_first_moment(self):
        want = 1.0 / 3.0 + 2.0 * SQRT3 / math.pi
        assert w1(1.0, 1.0).value.real == pytest.approx(want, rel=1e-13)

    def test_k_sign_symmetry(self):
        s = 1.3 + 0.4j
        assert w1(-1.5, s).value == pytest.approx(w1(1.5, s).value, rel=1e-13)

    def test_s_zero_is_one(self):
        for k in (0.5, 2.0, 3.0):
            assert w1(k, 0.0).value == pytest.approx(1.0, rel=1e-13)

    def test_boundary_value(self):
        # at |k| = 2 the integrand 2 + 2cos is one-signed, so the integer
        # moments stay the polynomial values k^2 + 2 etc.
        assert w1(2.0, 1.0).value.real == pytest.approx(2.0, rel=1e-13)
        assert w1(2.0, 2.0).value.real == pytest.approx(6.0, rel=1e-13)

    def test_boundary_domain_limit(self):
        with pytest.raises(DomainError):
            w1(2.0, -0.6)

    def test_heavy_pole_and_trivial_zero(self):
        with pytest.raises(PoleError):
            w1(1.0, -3.0)
        assert w1(1.0, -2.0).value == 0.0

    def test_schwarz_reflection(self):
        for k in (1.0, 3.0):
            v = w1(k, 0.7 + 1.1j).value
            vc = w1(k, 0.7 - 1.1j).value
            assert vc == pytest.approx(v.conjugate(), rel=1e-12)


class TestLightAndBoundary:
    def test_r2_light_moment(self):
        assert w_light(2, 5.0, 2.0).value.real == pytest.approx(29.0, rel=1e-12)

    def test_r2_boundary_first_moment(self):
        # E|4 + prod| = 4 by symmetry of the product
        assert w_light(2, 4.0, 1.0).value.real == pytest.approx(4.0, rel=1e-10)

    def test_r3_light_moment(self):
        assert w_light(3, 9.0, 2.0).value.real == pytest.approx(89.0, rel=1e-12)

    def test_light_requires_light_k(self):
        with pytest.raises(DomainError):
            w_light(2, 3.0, 1.0)


class TestHeavyClosedForms:
    def test_w2_at_zero_k(self):
        assert w2(0.0, 2.0).value.real == pytest.approx(4.0, rel=1e-12)

    def test_w2_even_moment(self):
        assert w2(1.0, 2.0).value.real == pytest.approx(5.0, rel=1e-12)

    def test_w2_matches_real_s_route(self):
        a = w2(2.0, 1.5).value
        b = w_real_s(2, 2.0, 1.5).value
        assert a == pytest.approx(b, rel=1e-9)

    def test_w2_odd_routes_agree(self):
        res = w2_odd(1.0, 1)
        assert res.abs_err < 1e-6
        # frozen from the r = 2 torus oracle at tol 1e-10
        assert res.value.real == pytest.approx(1.8379053649810637, abs=1e-8)

    def test_w3_even_moment(self):
        assert w3(4.0, 2.0).value.real == pytest.approx(24.0, rel=1e-10)

    def test_w3_matches_real_s_route(self):
        a = w3(2.0, 1.7).value
        b = w_real_s(3, 2.0, 1.7).value
        assert a == pytest.approx(b, rel=1e-9)

    def test_w3_both_g_methods(self, monkeypatch):
        a = w3(1.0, 0.5).value
        # the same formula with the Meijer-G term from its triple integral
        monkeypatch.setattr(
            zmf_module, "meijer_mb", lambda spec: meijer_triple_integral(0.5, 1.0)
        )
        b = w3(1.0, 0.5).value
        assert a == pytest.approx(b, rel=1e-7)
        # frozen from the r = 3 torus oracle at tol 1e-8
        assert a.real == pytest.approx(1.388316577246579, abs=1e-9)


class TestShiftedMomentFunction:
    def test_negative_argument_relation(self):
        # for real s, F(-x) = e^{i pi s} conj(F(x)) on the boundary values
        s = 1.3
        fp = f_rs(2, s, 1.5).value
        fm = f_rs(2, s, -1.5).value
        phase = cmath.exp(1j * math.pi * s)
        assert fm == pytest.approx(phase * fp.conjugate(), rel=1e-10)

    def test_reconstruction_identity(self):
        # h_rs recombines the two branches into the heavy W_r
        for r, k, s in ((2, 1.0, 1.5), (2, 3.0, 0.7)):
            got = h_rs(r, k, complex(s)).value
            want = w(r, k, complex(s)).value
            assert got == pytest.approx(want, rel=1e-8)

    def test_large_argument_series(self):
        # |z| > 2^r: the plain series coincides with the light evaluator
        val = f_rs(1, 2.0, 3.0).value
        want = w1(3.0, 2.0).value
        assert val == pytest.approx(want, rel=1e-11)


class TestDerivatives:
    def test_boundary_derivative(self):
        rep = boundary_derivative_check(1, 2.0)
        assert max(rep.residual_left, rep.residual_right) < 1e-5

    def test_k_zero_even_derivative(self):
        rep = k_zero_derivatives(2, 3.5, 0)
        assert max(rep.residual_left, rep.residual_right) < 1e-8

    def test_k_zero_odd_derivative_vanishes(self):
        rep = k_zero_derivatives(2, 3.5, 1)
        assert abs(rep.reference) == 0.0
        assert max(rep.residual_left, rep.residual_right) < 1e-8


class TestDispatcher:
    def test_regime_dispatch_consistency(self):
        # closed forms on both sides of each regime edge stay continuous
        for r, k in ((1, 2.0), (2, 4.0)):
            below = w(r, k - 1e-9, 1.2).value
            edge = w(r, k, 1.2).value
            above = w(r, k + 1e-9, 1.2).value
            assert below == pytest.approx(edge, rel=1e-5)
            assert above == pytest.approx(edge, rel=1e-5)

    def test_r3_odd_limit(self):
        res = w(3, 2.0, 1.0)
        assert res.value.imag == pytest.approx(0.0, abs=1e-9)
        assert res.abs_err < 1e-3
        # frozen from the r = 3 torus oracle
        assert res.value.real == pytest.approx(2.8201924574301704, abs=1e-5)

    def test_r5_heavy_rejected(self):
        with pytest.raises(DomainError):
            w(5, 1.0, 1.5)

    def test_r4_real_s(self):
        # E(8 + prod)^2 = 64 + 2^4
        assert w(4, 8.0, 2.0).value.real == pytest.approx(80.0, rel=1e-9)
