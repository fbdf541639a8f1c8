import math
import random

import mpmath
import numpy as np
import pytest
from scipy.special import hyp2f1

from zmf.errors import DomainError, PoleError
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
    pfq_shift_derivative,
)
from zmf.types import ROUNDING


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
    # The sum stops at its first zero term (t_1 at z = 0, the underflowed
    # t_2 at z = 1e-200) and reports the rounding of sum |t_n| = 1.
    for z in (0.0, 1e-200):
        res = pfq(SeriesSpec((0.5, -0.3 + 1j), (1.0,), z))
        assert abs(res.value - 1.0) <= z
        assert res.abs_err == ROUNDING


def test_divergent_raises():
    with pytest.raises(DomainError):
        pfq(SeriesSpec((0.5, 0.5), (1.0,), 1.5))


@pytest.mark.parametrize("z", [1.0001, 1.2, -1.5])
def test_shift_derivative_divergent_raises(z):
    # pfq_shift_derivative summed the divergent series where pfq raises: a
    # shifted sum of -3.14 with abs_err 2.3e-13 at z = 1.0001, and -2.2e62
    # at z = 1.2.
    with pytest.raises(DomainError):
        pfq(SeriesSpec((0.5, 0.5), (1.0,), z))
    for spec in (SeriesSpec((0.5, 0.5), (1.0,), z), SeriesSpec((np.array([0.5, 0.3]), 0.5), (1.0,), z)):
        with pytest.raises(DomainError):
            pfq_shift_derivative(spec)


@pytest.mark.parametrize("z", [0.999, 0.9999999, 1.0 - 1e-11, 1.0, -0.9995])
def test_near_unit_argument(z):
    # convergent at z = 1: Re(sum b - sum a) > 0
    spec = SeriesSpec((0.25, -0.4), (1.1,), z)
    got = pfq(spec).value
    want = mp_ref(spec.upper, spec.lower, z)
    assert got == pytest.approx(want, rel=2e-12)


@pytest.mark.parametrize("z, log_z", [(0.9995, None), (1.0 - 1e-9, math.log1p(-1e-9))])
def test_near_unit_plain_sum_is_pfq(z, log_z):
    # One near-unit sum gives both of pfq_shift_derivative's results; its
    # plain sum is pfq's, bit for bit.
    spec = SeriesSpec((0.25, -0.4 + 0.3j, 0.7), (1.1, 0.9), z, log_z)
    plain, _ = pfq_shift_derivative(spec)
    want = pfq(spec)
    assert (plain.value, plain.abs_err) == (want.value, want.abs_err)
    assert abs(plain.value - mp_ref(spec.upper, spec.lower, z)) <= plain.abs_err


@pytest.mark.parametrize("upper, z", [((-40.0, 1.0), 2.0), ((-30.0, 1.0), 1.0)])
def test_terminating_bar_measures_cancellation(upper, z):
    # (1 - z)^40 = 1 summed to -512.0004 with abs_err 5.1e-13, and (1 - 1)^30 = 0
    # to 5.3e-14 with abs_err 1.0e-15: the bar was 1e-15 (1 + |value|).
    res = pfq(SeriesSpec(upper, (1.0,), z))
    with mpmath.workdps(30):
        want = mp_ref(upper, (1.0,), z)
    assert abs(res.value - want) <= res.abs_err


def test_near_unit_cusp_carries_its_rounding():
    # 7.2e-15 relative off with a 1.5e-15 bar: the Erdelyi cusp term is the
    # exp of an exponent of size 32.6, whose rounding the bar left out.
    upper, lower, z = (2.0433381847276006, 2.2612930965577425), (0.7308049059017094,), 0.999844138998241
    res = pfq(SeriesSpec(upper, lower, z))
    with mpmath.workdps(30):
        want = mp_ref(upper, lower, z)
    assert abs(res.value - want) <= res.abs_err


def _mp_shift_derivative(spec):
    """sum_n t_n (log z + d_n) in 30-digit mpmath, as the derivative at e = 0 of
    z^e G(e) F(e) / G(0): G(e) = prod Gamma(a + e) / (prod Gamma(b + e) Gamma(1 + e))
    and F(e) = (p+2)F(p+1)(a + e, 1; b + e, 1 + e; z)."""
    with mpmath.workdps(30):
        up, lo = list(map(mpmath.mpmathify, spec.upper)), list(map(mpmath.mpmathify, spec.lower))
        z = mpmath.mpmathify(spec.argument)

        def gam(e):
            return mpmath.fprod(mpmath.gamma(a + e) for a in up) / mpmath.fprod(
                mpmath.gamma(b + e) for b in lo + [1]
            )

        def scaled(e):
            return z**e * gam(e) * mpmath.hyper([a + e for a in up] + [1], [b + e for b in lo + [1]], z)

        return complex(mpmath.diff(scaled, 0) / gam(0))


def test_shift_derivative_error_bar_sweep():
    # 3F2 specs with complex parameters half of the time and 0.3 < z < 0.98.
    # 16 of these 24 were off by more than abs_err, the worst by 56x: the bar
    # left out the ratio chain of t_n and the error of log z + d_n.
    rng = random.Random(1)

    def param(lo):
        x = rng.uniform(lo, 2.5)
        return complex(x, rng.uniform(-1.5, 1.5)) if rng.random() < 0.5 else complex(x)

    for _ in range(24):
        upper, lower = tuple(param(0.2) for _ in range(3)), tuple(param(0.3) for _ in range(2))
        spec = SeriesSpec(upper, lower, rng.uniform(0.3, 0.98))
        plain, res = pfq_shift_derivative(spec)
        assert abs(res.value - _mp_shift_derivative(spec)) <= res.abs_err
        with mpmath.workdps(30):
            want = complex(mpmath.hyper(spec.upper, spec.lower, spec.argument))
        assert abs(plain.value - want) <= plain.abs_err


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
    t, d = (x[0] for x in _shift_terms(spec, 200)[:2])
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


@pytest.mark.parametrize("seed", range(6))
def test_dop853_takes_scipys_steps(seed):
    # zmf.ode replaces scipy.integrate.solve_ivp(method="DOP853") on [0, 1]:
    # the same steps, evaluations and bits on a complex linear system.
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    from zmf.ode import solve_ivp

    rng = np.random.default_rng(seed)
    n = 2 + seed % 5
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    y0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    fun = lambda t, y: (3.0 + seed) * (1.0 + t) * (m @ y)  # noqa: E731
    want = scipy_solve_ivp(fun, (0.0, 1.0), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    got = solve_ivp(fun, y0, 1e-12, 1e-14)
    assert got.success and got.nfev == want.nfev
    assert np.array_equal(got.y, want.y[:, -1])


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
    got, _ = _power_tails(complex(alpha), a, complex(log_z))
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


def _seeded_lanes(seed, lanes=7):
    """3F2 parameters over lanes, each lane real or complex half of the time,
    and one argument z in (0.1, 0.98)."""
    rng = np.random.default_rng(seed)

    def param(lo):
        x = rng.uniform(lo, 2.5, lanes)
        return x + 1j * np.where(rng.random(lanes) < 0.5, rng.uniform(-1.5, 1.5, lanes), 0.0)

    return [param(0.2) for _ in range(3)], [param(0.3) for _ in range(2)], rng.uniform(0.1, 0.98)


def _one_lane(upper, lower, z, i):
    return SeriesSpec(tuple(p[i : i + 1] for p in upper), tuple(p[i : i + 1] for p in lower), z)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lanes_equal_one_lane_calls(seed):
    # Each lane stops at its own count and the products and sums over the
    # parameters run lane by lane, so a lane's value and error are the bits
    # of its one-lane call.  Lane 1 terminates: its first upper parameter is
    # exactly -3.
    upper, lower, z = _seeded_lanes(seed)
    plain, shifted = pfq_shift_derivative(SeriesSpec(tuple(upper), tuple(lower), z))
    for i in range(len(upper[0])):
        one_plain, one_shifted = pfq_shift_derivative(_one_lane(upper, lower, z, i))
        assert (one_shifted.value[0], one_shifted.abs_err[0]) == (shifted.value[i], shifted.abs_err[i])
        assert (one_plain.value[0], one_plain.abs_err[0]) == (plain.value[i], plain.abs_err[i])
        # a scalar spec is summed as one lane, with Python numbers back
        scalar = SeriesSpec(tuple(complex(p[i]) for p in upper), tuple(complex(p[i]) for p in lower), z)
        scalar_plain, scalar_shifted = pfq_shift_derivative(scalar)
        assert (scalar_shifted.value, scalar_shifted.abs_err) == (shifted.value[i], shifted.abs_err[i])
        assert (scalar_plain.value, scalar_plain.abs_err) == (plain.value[i], plain.abs_err[i])
        assert (type(scalar_shifted.value), type(scalar_shifted.abs_err)) == (complex, float)
    upper[0][1] = -3.0
    res = pfq(SeriesSpec(tuple(upper), tuple(lower), z))
    for i in range(len(upper[0])):
        one = pfq(_one_lane(upper, lower, z, i))
        assert (one.value[0], one.abs_err[0]) == (res.value[i], res.abs_err[i])
        scalar = pfq(SeriesSpec(tuple(complex(p[i]) for p in upper), tuple(complex(p[i]) for p in lower), z))
        assert abs(scalar.value - res.value[i]) <= scalar.abs_err + res.abs_err[i]


def test_lane_next_to_a_pole_raises():
    # A lower parameter within 1e-9 of -2 in one lane: that lane's one-lane
    # call raises PoleError, and so does the call over all lanes.
    upper, lower, z = _seeded_lanes(4)
    lower[1][2] = -2.0 + 1e-12
    with pytest.raises(PoleError):
        pfq(SeriesSpec(tuple(upper), tuple(lower), z))
    with pytest.raises(PoleError):
        pfq(_one_lane(upper, lower, z, 2))
    pfq(_one_lane(upper, lower, z, 3))
