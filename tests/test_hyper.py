import math

import mpmath
import pytest
from scipy.special import hyp2f1

from zmf.errors import DomainError
from zmf.hyper import (
    ContinuationBranch,
    SeriesSpec,
    _hurwitz,
    _power_tails,
    _series_theta_derivatives,
    _shift_terms,
    _terms,
    family_spec,
    pfq,
    pfq_continued,
)


def mp_ref(upper, lower, z):
    return complex(mpmath.hyper(list(upper), list(lower), z))


def test_2f1_small_argument():
    got = pfq(SeriesSpec((0.3, 0.7), (1.1,), 0.25)).value
    assert got == pytest.approx(hyp2f1(0.3, 0.7, 1.1, 0.25), rel=1e-13)


def test_2f1_complex_parameters():
    spec = SeriesSpec((0.5 + 1j, -0.25), (1.5,), -0.6 + 0.2j)
    got = pfq(spec).value
    assert got == pytest.approx(mp_ref(spec.upper, spec.lower, spec.argument), rel=1e-12)


def test_3f2_and_4f3():
    s32 = SeriesSpec((0.5, 0.5, 0.5), (1.0, 1.5), 0.3)
    assert pfq(s32).value == pytest.approx(mp_ref(s32.upper, s32.lower, 0.3), rel=1e-12)
    s43 = SeriesSpec((-0.6, -0.6, -0.6, -0.6), (0.8, 0.8, 0.5), 0.45)
    assert pfq(s43).value == pytest.approx(mp_ref(s43.upper, s43.lower, 0.45), rel=1e-12)


def test_terminating_any_argument():
    # upper parameter -3 terminates the series; argument far outside the disk
    spec = SeriesSpec((-3.0, 0.7), (1.2,), 25.0)
    assert pfq(spec).value == pytest.approx(mp_ref(spec.upper, spec.lower, 25.0), rel=1e-13)


def test_zero_argument():
    assert pfq(SeriesSpec((0.4, 0.9), (1.3,), 0.0)).value == 1.0


def test_divergent_raises():
    with pytest.raises(DomainError):
        pfq(SeriesSpec((0.5, 0.5), (1.0,), 1.5))


@pytest.mark.parametrize("z", [0.999, 0.9999999, 1.0 - 1e-11, 1.0, -0.9995])
def test_near_unit_argument(z):
    # convergent at z = 1: Re(sum b - sum a) > 0
    spec = SeriesSpec((0.25, -0.4), (1.1,), z)
    got = pfq(spec).value
    want = mp_ref(spec.upper, spec.lower, z)
    assert got == pytest.approx(want, rel=2e-12)


def test_theta_derivative_initial_conditions():
    # (theta^j F)(z) = d^j/du^j F(e^u) at u = log z, theta = z d/dz; these
    # seed the continuation ODE
    s, z0 = 1.3 + 0.4j, 0.5
    spec = family_spec(3, s, z0)
    got = _series_theta_derivatives(spec, 3)
    with mpmath.workdps(30):
        want = [
            complex(mpmath.diff(
                lambda u: mpmath.hyper(spec.upper, spec.lower, mpmath.exp(u)),
                mpmath.log(z0),
                j,
            ))
            for j in range(4)
        ]
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        SeriesSpec((0.5,) * 4, (1.75, 1.25, 1.0), 0.99),
        SeriesSpec((0.3 + 2j, -0.7, 0.5), (1.2 - 1j, 2.5), -0.8 + 0.3j),
    ],
)
def test_shift_terms_match_scalar_terms_and_digamma(spec):
    # The numpy products and sums against the scalar recurrence and against
    # d_n = sum psi(a + n) - sum psi(b + n) - psi(1 + n) at each n.
    t, d, _, _ = _shift_terms(spec, 200)
    scalar = _terms(spec)
    want_t = [next(scalar) for _ in range(201)]
    assert max(abs(x - y) / abs(y) for x, y in zip(t, want_t)) <= 200 * 2.0**-52
    for n in (0, 1, 7, 200):
        want_d = complex(
            sum(mpmath.digamma(a + n) for a in spec.upper)
            - sum(mpmath.digamma(b + n) for b in spec.lower + (1.0,))
        )
        assert abs(d[n] - want_d) <= 1e-13 * (1.0 + abs(want_d))


def test_family_spec_structure():
    spec = family_spec(3, 1.2, 0.3)
    assert len(spec.upper) == 4 and len(spec.lower) == 3


def test_continuation_matches_series_inside_disk():
    # continue to a point still inside |z| < 1 and compare with plain summation
    s = 1.3
    direct = pfq(family_spec(2, s, 0.8)).value
    cont = pfq_continued(2, s, 0.8, ContinuationBranch.FROM_BELOW).value
    assert cont == pytest.approx(direct, rel=1e-9)


def test_continuation_branches_conjugate():
    # beyond the unit disk the two branch choices are complex conjugates
    s = 0.7
    up = pfq_continued(1, s, 2.5, ContinuationBranch.FROM_ABOVE).value
    dn = pfq_continued(1, s, 2.5, ContinuationBranch.FROM_BELOW).value
    assert up == pytest.approx(dn.conjugate(), rel=1e-9)


def test_continuation_against_2f1_continuation():
    # r = 1 family is a Gauss 2F1; scipy continues it for real argument > 1
    s = 0.9
    got = pfq_continued(1, s, 1.8, ContinuationBranch.FROM_BELOW).value
    a, b = -s / 2.0, (1.0 - s) / 2.0
    want = complex(mpmath.hyp2f1(a, b, 1.0, mpmath.mpc(1.8, -1e-20)))
    assert got == pytest.approx(want, rel=1e-8)


def test_hyper_and_zmf_do_not_bind_mpmath():
    # The near-unit tail is plain numpy; mpmath is left to PSLQ and the tests.
    import zmf.hyper
    import zmf.zmf

    assert not hasattr(zmf.hyper, "mpmath")
    assert not hasattr(zmf.zmf, "mpmath")


@pytest.mark.parametrize(
    "sigma", [1.0001 + 5j, 1.5, 2.0, 3.7 - 2j, 15.0 - 5j, -2.5 + 1j, -7.0]
)
def test_hurwitz_euler_maclaurin(sigma):
    # 30-digit mpmath is 2.5% off at sigma = 12 + 5i, so compare at 80 digits.
    a = 1001.0
    with mpmath.workdps(80):
        want = complex(mpmath.zeta(mpmath.mpc(sigma), a))
    assert complex(_hurwitz(sigma, a)) == pytest.approx(want, rel=1e-14)


_ALPHAS = (0.3 + 0.2j, 1.0, 2.0 + 1e-7, 3.0 - 4e-3, -0.004)
_LOG_ZS = (0.0, -1e-13, -9.9e-4, complex(-1e-4, 5e-4), complex(-5e-4, math.pi), complex(-1e-3, 0.5))


# At z = 1 only Re alpha > 0 converges.
@pytest.mark.parametrize(
    "alpha, log_z",
    [(a, lz) for a in _ALPHAS for lz in _LOG_ZS if lz != 0 or complex(a).real > 0],
)
def test_power_tails_against_lerch(alpha, log_z):
    # sum_{n >= a} z^n n^-sigma = z^a Phi(z, sigma, a), at sigma = 1 + alpha + j.
    # The near-integer alphas exercise the combined pole pair, alpha = 1 its
    # log form; Im log z = pi is the z -> -1 rim.
    a = 1001.0 if abs(log_z) * 1001 <= 2 else max(1001.0, math.ceil(36 / abs(log_z)) + 1.0)
    got = _power_tails(complex(alpha), a, complex(log_z))
    # z^a = e^(a log z) carries the rounding of a log z.
    rel = 1e-13 + 8 * 2.0**-52 * a * abs(log_z)
    with mpmath.workdps(40):
        z = mpmath.exp(mpmath.mpc(log_z))
        for j in (0, 1, len(got) - 1):
            g, sigma = got[j], 1 + mpmath.mpc(alpha) + j
            if log_z == 0:
                want = mpmath.zeta(sigma, a)
            else:
                want = z**a * mpmath.lerchphi(z, sigma, a)
            assert g == pytest.approx(complex(want), rel=rel, abs=1e-300)


@pytest.mark.parametrize(
    "upper, lower, z",
    [((60.3, 0.4), (59.9,), 0.9999), ((30.2, 0.5), (31.1,), 1.0)],
)
def test_near_unit_large_parameters(upper, lower, z):
    # The Stirling fit nodes need n >> |p|, so the direct sum runs to 32 |p|.
    res = pfq(SeriesSpec(upper, lower, z))
    assert abs(res.value - mp_ref(upper, lower, z)) <= res.abs_err
