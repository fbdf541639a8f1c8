import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zmf.zmf as zmf_module
from zmf.errors import DomainError, PoleError, ZmfError
from zmf.hyper import SeriesSpec, pfq
from zmf.meijer import meijer_mb, meijer_triple_integral, w3_g_spec
from zmf.oracle import torus_quadrature
from zmf.types import Method, QuadratureConfig, Regime, ZmfPoint
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


def _mp_heavy(r, k, s):
    """W_r(k;s) for 0 < k < 2^r in 60 digits as (F(k) + F(-k)) / (1 + e^{i pi s}),
    with F(+-k) the boundary values of (+-k)^s pFq(4^r/k^2) from the upper half
    plane.  At an odd integer s, where this is 0/0, the s -> n limit is taken
    at s = n + 1e-25."""
    with mpmath.workdps(60):
        kk = mpmath.mpf(k)
        s = mpmath.mpmathify(s)
        if s.imag == 0 and s.real % 2 == 1:
            s += mpmath.mpf(10) ** -25
        z = 4**r / kk**2
        tiny = mpmath.mpf(10) ** -40
        phase = mpmath.exp(1j * mpmath.pi * s)

        def family(zz):
            upper = [-s / 2, (1 - s) / 2] + [mpmath.mpf(1) / 2] * (r - 1)
            return kk**s * mpmath.hyper(upper, [1] * r, zz)

        return complex((family(mpmath.mpc(z, -tiny)) + phase * family(mpmath.mpc(z, tiny)))
                       / (1 + phase))


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

    @pytest.mark.parametrize("s", [1e-9, 2.0 + 1e-9])
    def test_no_snap_to_a_terminating_series(self, s):
        # -s/2 within 1e-9 of 0 or -1 ended the light series: 1.4e-10 and
        # 6.0e-11 off with abs_err 2.0e-15 and 2.0e-14.
        res = w1(3.0, s)
        assert abs(res.value - _mp_w1(3.0, s)) <= res.abs_err

    def test_heavy_pole_and_trivial_zero(self):
        with pytest.raises(PoleError):
            w1(1.0, -3.0)
        assert w1(1.0, -2.0).value == 0.0

    @pytest.mark.parametrize("s", [-2.0 + 5e-13, -4.0 + 5e-13])
    def test_no_snap_to_the_trivial_zero(self, s):
        # Within 1e-12 of an even negative integer w1 returned 0 with abs_err
        # 1e-16: 2,170x its bar off at s = -2 + 5e-13 (W_1 = -2.17e-13).
        res = w1(1.0, s)
        assert abs(res.value - _mp_w1(1.0, s)) <= res.abs_err
        assert abs(res.value) > 1e-14

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

    def test_near_unit_ignores_global_mp_precision(self):
        # The near-unit tail sum used to run at the caller's mp.dps: at the
        # default 15 digits this point was 1.7e-10 off.  Later it was 5.3e-12
        # off with abs_err 1.7e-12, while the tail error was a fudge.
        runs = []
        for dps in (15, 50):
            with mpmath.workdps(dps):
                runs.append(w(2, 4.001, -0.5))
        assert runs[0].value == runs[1].value and runs[0].abs_err == runs[1].abs_err
        with mpmath.workdps(30):
            k, s = mpmath.mpf(4.001), mpmath.mpf(-0.5)
            want = complex(k**s * mpmath.hyper([-s / 2, (1 - s) / 2, 0.5], [1, 1], 16 / k**2))
        assert abs(runs[0].value - want) < 1e-11
        assert abs(runs[0].value - want) <= runs[0].abs_err


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

    @pytest.mark.parametrize("k, n", [(1.0, 3), (2.0, 1)])
    def test_w2_odd_matches_mpmath_limit(self, k, n):
        ref = _mp_heavy(2, k, n)
        res = w2_odd(k, n)
        assert abs(res.value - ref) <= 1e-13 * abs(ref)
        assert abs(res.value - ref) <= res.abs_err

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.5])
    def test_w2_circle_matches_meijer_route(self, k, n):
        # The circle in s and the Meijer-G formula share no code.
        a = w(2, k, n)
        b = w2_odd(k, n)
        assert a.method is Method.CONTOUR
        assert abs(a.value - b.value) <= a.abs_err + b.abs_err

    def test_w3_even_moment(self):
        assert w3(4.0, 2.0).value.real == pytest.approx(24.0, rel=1e-10)

    def test_w3_matches_real_s_route(self):
        a = w3(2.0, 1.7).value
        b = w_real_s(3, 2.0, 1.7).value
        assert a == pytest.approx(b, rel=1e-9)

    def test_w3_both_g_methods(self, monkeypatch):
        a = w3(1.0, 0.5).value
        # the same formula with the Meijer-G term from its triple integral and
        # its 4F3 term from pfq, not from the G block's residue series
        f2 = pfq(SeriesSpec((0.5,) * 4, (1.0, 1.25, 1.75), 1.0 / 64.0))
        monkeypatch.setattr(
            zmf_module, "meijer_mb", lambda spec, series: (meijer_triple_integral(0.5, 1.0), f2)
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

    @pytest.mark.parametrize("r, k, s", [(2, 1.5, 1.3), (4, 2.5, 2.5), (4, 9.0, -0.6)])
    def test_real_s_takes_one_walk(self, monkeypatch, r, k, s):
        # At real s, F(-k) = e^{i pi s} conj F(k) replaces the second walk.
        calls = []
        real_walk = zmf_module.pfq_continued
        monkeypatch.setattr(
            zmf_module, "pfq_continued", lambda *a: calls.append(a) or real_walk(*a)
        )
        got = h_rs(r, k, s)
        assert len(calls) == 1
        two_walk = (f_rs(r, s, k).value + f_rs(r, s, -k).value) / (1.0 + cmath.exp(1j * math.pi * s))
        assert abs(got.value - two_walk) <= 1e-14 * abs(two_walk)


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
        # The Neville i*delta limit was 1.1e-9 to 3.9e-9 off, abs_err ~2e-4.
        for k in (1.0, 2.5, 4.0, 7.5):
            for n in (1, 3):
                ref = _mp_heavy(3, k, n)
                res = w(3, k, n)
                assert res.method is Method.CONTOUR
                assert abs(res.value - ref) <= 1e-13 * abs(ref)
                assert abs(res.value - ref) <= res.abs_err

    def test_r5_heavy_rejected(self):
        with pytest.raises(DomainError):
            w(5, 1.0, 1.5)

    def test_r4_real_s(self):
        # E(8 + prod)^2 = 64 + 2^4
        assert w(4, 8.0, 2.0).value.real == pytest.approx(80.0, rel=1e-9)

    @pytest.mark.parametrize(
        "k, s", [(1.5, 0.4 - 2j), (4.0, -0.2 + 1.5j), (9.0, 2.5 + 1j), (6.0, -0.6), (12.5, -0.3)]
    )
    def test_r4_complex_and_negative_s(self, k, s):
        # Both raised DomainError: the r = 4 heavy route took real s > 0 only.
        res = w(4, k, s)
        assert abs(res.value - _mp_heavy(4, k, s)) <= res.abs_err

    @pytest.mark.parametrize(
        "k, s", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, complex(1.0, math.inf))]
    )
    @pytest.mark.parametrize("method", [None, "quadrature", "monte-carlo"])
    def test_non_finite_point_rejected(self, k, s, method):
        # k = nan summed 200,000 NaN terms and raised ConvergenceError; s = nan
        # and k = inf failed with unrelated ValueErrors.
        with pytest.raises(DomainError, match="finite"):
            w(1, k, s, method=method)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (w1, (math.nan, 1.0)),
            (w1, (1.0, math.nan)),
            (w_light, (1, 3.0, math.nan)),
            (w2, (1.0, math.nan)),
            (w3, (1.0, math.inf)),
            (w_real_s, (2, 1.0, math.inf)),
        ],
    )
    def test_closed_forms_reject_non_finite(self, fn, args):
        # w1(nan, 1) summed its full term budget into a ConvergenceError; the
        # others raised a bare ValueError or an OverflowError.
        with pytest.raises(DomainError, match="finite"):
            fn(*args)


# Both sides of the circle's window |s - n| <= 1/32 around n = 1 and 3.
_WINDOW_EDGE = [
    (r, k, n + sign * (1.0 + e) / 32)
    for r, k in ((2, 1.5), (3, 3.0))
    for n in (1, 3)
    for sign in (1, -1)
    for e in (1e-12, -1e-12)
]


class TestNearOddS:
    """Within 1/32 of an odd s at r = 2, 3 the value comes from the circle in
    s; the closed forms alone lost up to 1e-6 relative there, and raised
    NearDegenerateParameterError within 1e-6 of it."""

    @pytest.mark.parametrize(
        "r, k, s",
        [
            (2, 1.0, 1.0 + 2e-6),  # was 1.3e-6 off with abs_err 1.7e-9
            (2, 2.0, 3.0 + 1e-5),  # was 9.1e-7 off with abs_err 9.6e-10
            (2, 1.0, 1.0 + 0.02j),
            (3, 1.0, 1.0 + 0.02j),
            (2, 0.5, 3.0 + 1e-7j),
            (3, 2.0, 1.0 - 5e-7),
            (4, 2.5, 1.0 + 2e-6),  # was 2.0e-9 relative off by the real-s route
            (4, 6.0, 3.0 + 5e-6),  # was 1.8e-9 relative off
            (4, 2.5, 1.0),  # raised NearDegenerateParameterError
        ]
        + _WINDOW_EDGE,
    )
    def test_against_mpmath(self, r, k, s):
        res = w(r, k, s)
        if r < 4:
            assert res == {2: w2, 3: w3}[r](k, s)
        assert (res.method is Method.CONTOUR) == (abs(s - round(s.real)) <= 1 / 32)
        ref = _mp_heavy(r, k, s)
        assert abs(res.value - ref) <= res.abs_err
        # The closed forms and the r = 4 real-s route lost up to seven digits.
        assert abs(res.value - ref) <= 1e-12 * abs(ref)
        assert res.abs_err <= 1e-8 * abs(ref)

    def test_real_s_route_next_to_odd_s(self):
        # The continuation raised NearDegenerateParameterError within 1e-6 of
        # an odd s.  That guard hid a snap: an upper parameter within 1e-9 of
        # 0 ended the series, so w_real_s(2, 1.0, 1 + 1e-9) returned 1
        # against 1.8379.
        for r, k in ((2, 1.0), (4, 2.5)):
            for s in (1.0 + 1e-9, 1.0 - 3e-7, 3.0 + 1e-6, 3.0 - 1e-9):
                res = w_real_s(r, k, s)
                assert abs(res.value - _mp_heavy(r, k, s)) <= res.abs_err


def _mp_w_zero(r, s):
    """W_r(0;s), the r-th power of 2^s Gamma((s+1)/2) / (sqrt(pi) Gamma(1+s/2)),
    in 40-digit mpmath."""
    with mpmath.workdps(40):
        s = mpmath.mpmathify(s)
        one = 2**s * mpmath.gamma((s + 1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 + s / 2))
        return complex(one**r)


def _s_strategy(lo, hi, im):
    """Real s in [lo, hi], or complex s with |Im s| <= im, on a 1e-6 grid: at
    parts like 1e-200 the 60-digit references take seconds."""
    real, imag = (st.floats(a, b).map(lambda x: round(x, 6)) for a, b in ((lo, hi), (-im, im)))
    return st.one_of(real.map(complex), st.builds(complex, real, imag))


# row: (examples, strategy for (r, k, s), reference).  The w2 and w3
# references cost tens of ms each at 60 digits; at k = 3.9 and complex s
# mpmath's 3F2 just outside z = 1 takes about 100 s, so w2 stops at k = 3.7.
_SWEEP = {
    "w1-heavy": (150, st.tuples(st.just(1), st.floats(0.05, 1.95), _s_strategy(-0.9, 8.0, 8.0)),
                 lambda r, k, s: _mp_w1(k, s)),
    "k-zero": (150, st.tuples(st.integers(1, 6), st.just(0.0), _s_strategy(-0.9, 8.0, 8.0)),
               lambda r, k, s: _mp_w_zero(r, s)),
    "w2-heavy": (150, st.tuples(st.just(2), st.floats(0.1, 3.7), _s_strategy(-0.9, 4.0, 4.0)),
                 _mp_heavy),
    "w3-heavy": (10, st.tuples(st.just(3), st.floats(0.5, 7.5), _s_strategy(-0.8, 4.0, 2.0)),
                 _mp_heavy),
}


class TestGammaPrefactors:
    """Every Gamma prefactor carries _LG_ERR |c_i| (1 + |log Gamma(z_i)|) per
    factor, where constant floors stood before."""

    def test_w4_at_zero_k(self):
        # 6.2e-12 off with abs_err 5.1e-12 under the 1e-14 (1 + |val|) floor.
        s = 3.673826641513681 + 1.8273699914659938j
        res = w(4, 0.0, s)
        assert abs(res.value - _mp_w_zero(4, s)) <= res.abs_err

    def test_w2_prefactor_error(self):
        # scipy's loggamma with w2's bare 1e-14 floor left this 1.33e-13 off
        # with abs_err 1.14e-13.
        k, s = 0.4144814290401463, 2.855595325903904 - 3.137928056688681j
        res = w(2, k, s)
        assert abs(res.value - _mp_heavy(2, k, s)) <= res.abs_err

    @pytest.mark.parametrize("row", list(_SWEEP))
    def test_error_bar_sweep(self, row):
        examples, points, reference = _SWEEP[row]
        ratios = []

        @settings(max_examples=examples, derandomize=True, database=None, deadline=None)
        @given(points)
        def check(point):
            res = w(*point)
            ratios.append(abs(res.value - reference(*point)) / res.abs_err)
            assert ratios[-1] <= 1.0

        check()
        print(f"{row}: worst |value - mpmath| / abs_err {max(ratios):.3g} over {len(ratios)} points")


class TestTypes:
    @pytest.mark.parametrize("tol", [math.nan, 1e-15])
    def test_quadrature_tol_checked(self, tol):
        with pytest.raises(ValueError):
            QuadratureConfig(tol=tol)


def _mp_w1(k, s):
    """W_1(k;s) from the three-case closed form in 30-digit mpmath."""
    with mpmath.workdps(30):
        k, s = mpmath.mpf(k), mpmath.mpmathify(s)
        if k > 2:
            val = k**s * mpmath.hyp2f1(-s / 2, (1 - s) / 2, 1, 4 / k**2)
        else:
            pref = mpmath.power(4, s) * mpmath.gamma((1 + s) / 2) ** 2 / (
                mpmath.pi * mpmath.gamma(1 + s)
            )
            val = pref * mpmath.hyp2f1(-s / 2, -s / 2, 0.5, k**2 / 4)
        return complex(val)


class TestNearBoundary:
    """The regime is the exact sign of |k| - 2^r: no band moves a nearby k
    onto the boundary, and the near-unit series keeps the |k - 2^r|^(s + r/2)
    cusp."""

    @pytest.mark.parametrize("k, want", [(2.0 - 1e-13, 2.0206154), (2.0 + 1e-13, 2.0019909)])
    def test_r1_cusp_against_torus(self, k, want):
        # Both sides returned the boundary value 2.0700983.
        res = w(1, k, -0.4)
        ref = torus_quadrature(ZmfPoint(1, k, -0.4), QuadratureConfig(tol=1e-12))
        assert abs(res.value - ref.value) <= res.abs_err + ref.abs_err
        assert res.value.real == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize(
        "r, k, s, tol", [(1, 2.0 - 1e-12, -0.4, 1e-12), (2, 4.0 - 1e-12, 1.5, 1e-10)]
    )
    def test_just_below_edge_is_finite(self, r, k, s, tol):
        # Both raised DomainError: pFq series diverges for |z| > 1.
        res = w(r, k, s)
        ref = torus_quadrature(ZmfPoint(r, k, s), QuadratureConfig(tol=tol))
        assert cmath.isfinite(res.value)
        assert abs(res.value - ref.value) <= res.abs_err + ref.abs_err

    @pytest.mark.parametrize("k", [2.0 + 1e-9, 2.0 - 1e-7])
    def test_cusp_takes_log_z_from_the_exact_distance(self, k):
        # log z from the rounded k^2/4 or 4/k^2 was 1e-11 off here.
        res = w(1, k, -0.4)
        assert abs(res.value - _mp_w1(k, -0.4)) <= res.abs_err

    def test_regime_is_the_exact_sign(self):
        assert ZmfPoint(1, 2.0 - 1e-13, 0.5).regime is Regime.HEAVY
        assert ZmfPoint(1, 2.0, 0.5).regime is Regime.BOUNDARY
        assert ZmfPoint(1, 2.0 + 1e-13, 0.5).regime is Regime.LIGHT

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 0.5 + 1j, -0.45 + 3j, 1.5 - 2j])
    def test_unit_argument_series_matches_gamma_form(self, s):
        # w1 at |k| = 2 is 2^s Gamma(1/2 + s) / (Gamma(1 + s/2) Gamma((1 + s)/2));
        # w_light sums the same value as the 2F1 series at z = 1.
        series = w_light(1, 2.0, s)
        closed = w1(2.0, s)
        assert abs(series.value - closed.value) <= series.abs_err + closed.abs_err

    @pytest.mark.parametrize("k, s", [(2.0 - 1e-9, 0.5), (2.0 + 1e-9, 1.5)])
    @pytest.mark.parametrize("ds", [0.0, 1e-7])
    def test_integer_sigma_next_to_edge(self, k, s, ds):
        # sigma = 3/2 + s is the integer 2 (heavy side) or 3 (light side): the
        # tail takes its log form at ds = 0 and the combined pole pair at 1e-7.
        res = w(1, k, s + ds)
        want = _mp_w1(k, s + ds)
        assert abs(res.value - want) <= res.abs_err
        assert res.value == pytest.approx(want, rel=1e-13)

    def test_pfq_error_bar_covers_rounding(self):
        # sum |t_n| is 1.7e5 against |F| = 0.085; the error bar covered the
        # truncation only, and the true error was 17.6 times it.
        s = complex(-0.5, 10.14)
        res = w(1, 1.87, s)
        assert abs(res.value - _mp_w1(1.87, s)) <= res.abs_err

    def test_r3_meijer_term_just_below_edge(self):
        # Just below k = 8 the G block is still within its abs_err of the
        # independent triple integral, so w3 needs no refusal there.
        for s in (0.5, 2.5 + 1j, -0.9):
            g = meijer_mb(w3_g_spec(s, 8.0 - 1e-13))
            ti = meijer_triple_integral(s, 8.0 - 1e-13, tol=1e-12)
            assert abs(g.value - ti.value) <= g.abs_err
        assert cmath.isfinite(w(3, 8.0 - 1e-13, 0.5).value)

    @pytest.mark.parametrize("k", [8.0 - 1e-9, 8.0 - 1e-13])
    @pytest.mark.parametrize("s", [-0.9, 0.5])
    def test_r3_just_below_edge_against_independent_terms(self, k, s):
        # w3 reads its 4F3 term from the G block's double-pole series, whose
        # tail cusp has the exponent s + 3/2; the reference sums that 4F3 by
        # pfq with log z from the exact distance k - 8 and takes the G block
        # from the triple integral.
        res = w3(k, s)
        z, log_z = k * k / 64.0, 2.0 * math.log1p((k - 8.0) / 8.0)
        f1 = pfq(SeriesSpec((-s / 2,) * 4, ((1 - s) / 2, (1 - s) / 2, 0.5), z, log_z))
        f2 = pfq(SeriesSpec((0.5,) * 4, (1.0, 1 + s / 2, (3 + s) / 2), z, log_z))
        g = meijer_triple_integral(s, k, tol=1e-12)
        t = math.tan(0.5 * math.pi * s)
        parts = [
            (math.gamma(1 + s) ** 3 / math.gamma(1 + s / 2) ** 6, f1),
            (-t * t / (4 * math.pi * (1 + s)) * k ** (1 + s), f2),
            (4.0**s * math.gamma(1 + s) * t / math.pi**3.5, g),
        ]
        ref = sum(c * f.value for c, f in parts)
        ref_err = sum(abs(c) * f.abs_err for c, f in parts) + 1e-14 * abs(ref)
        assert abs(res.value - ref) <= res.abs_err + ref_err

    def test_r4_just_below_edge_raises_typed_error(self):
        # The continuation ODE cannot start at its singular point z = 1.
        with pytest.raises(ZmfError):
            w(4, 16.0 - 1e-13, 1.5)


class TestLanes:
    """w2 and w3 over an array of s: one body sums each pFq once over all
    lanes, and a lane equals its one-lane call bit for bit.  w1 and w_light
    take lanes too, each within the two error bars of its scalar call."""

    @pytest.mark.parametrize(
        "fn, k",
        [(w2, 0.0), (w2, 1.3), (w2, 3.7), (w2, 3.9995), (w3, 0.0), (w3, 2.6), (w3, 7.7), (w3, 7.9995)],
    )
    def test_lanes_equal_one_lane_calls(self, fn, k):
        # s = 2 ends the first pFq (upper parameter -1); the k next to 2^r take
        # the near-unit sums lane by lane.
        s = np.array([0.4, 2.0, 1.6 + 0.7j, -0.55, 0.3 - 1.2j, 3.3])
        res = fn(k, s)
        for i, x in enumerate(s):
            one = fn(k, s[i : i + 1])
            assert (one.value[0], one.abs_err[0]) == (res.value[i], res.abs_err[i])
            scalar = fn(k, complex(x))
            assert abs(scalar.value - res.value[i]) <= scalar.abs_err + res.abs_err[i]

    @pytest.mark.parametrize(
        "fn, k",
        [
            (w1, 0.7), (w1, 1.9), (w1, 2.0), (w1, 2.5), (w1, 4.6),
            (lambda k, s: w_light(2, k, s), 4.0), (lambda k, s: w_light(2, k, s), 5.5),
        ],
    )
    @pytest.mark.parametrize("cplx", [False, True])
    def test_w1_lanes_match_scalar_calls(self, fn, k, cplx):
        # W_1's domain is all s, so lanes reach left of Re s = -1 (at k = 2
        # and on the boundary of W_2 the closed forms need Re s > -1/2, -1).
        lo = -0.45 if k in (2.0, 4.0) else -2.9
        re = np.linspace(lo, 3.7, 9)
        s = re + 1j * np.linspace(-12.0, 12.0, 9) if cplx else re.astype(complex)
        res = fn(k, s)
        assert res.value.shape == res.abs_err.shape == (9,)
        for i, x in enumerate(s):
            scalar = fn(k, complex(x))
            assert abs(scalar.value - res.value[i]) <= scalar.abs_err + res.abs_err[i]

    def test_w1_lane_at_an_even_negative_integer_is_zero(self):
        # Those lanes take the reflection branch, as the scalar call does.
        res = w1(1.0, np.array([-2.0, -0.5 + 1.0j, -4.0, -2.0 + 1e-13]))
        assert res.value[0] == res.value[2] == 0.0
        near = w1(1.0, -2.0 + 1e-13)
        assert near.value != 0.0 and abs(res.value[3] - near.value) <= near.abs_err + res.abs_err[3]

    @pytest.mark.parametrize("pole", [-1.0, -3.0 + 1e-13j])
    def test_w1_lane_at_an_odd_negative_integer_raises(self, pole):
        with pytest.raises(PoleError):
            w1(1.0, np.array([-0.5, pole, 0.5]))

    def test_lane_in_an_odd_window_rejected(self):
        with pytest.raises(DomainError, match="odd"):
            w2(1.0, np.array([0.5, 1.01]))

    @pytest.mark.parametrize("r, name", [(2, "w2"), (3, "w3")])
    def test_odd_limit_makes_one_lane_call(self, monkeypatch, r, name):
        # The circle evaluated its 9 nodes in 9 scalar calls.
        shapes = []
        body = getattr(zmf_module, name)
        monkeypatch.setattr(zmf_module, name, lambda k, s: shapes.append(np.shape(s)) or body(k, s))
        res = w(r, 1.3, 1.0)
        assert res.method is Method.CONTOUR
        assert shapes == [(), (9,)]
