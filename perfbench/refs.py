"""Reference values for the benchmark tasks.

Each reference comes from a route that shares no code with the route it
checks: closed forms are checked against mpmath (30 digits) or against the
torus and density oracles, and the oracles are checked against the closed
forms.  A reference is a pair (value, abs_err); ``digits`` is the number of
significant digits it can certify.
"""

from __future__ import annotations

import math

import mpmath

mpmath.mp.dps = 30
_MP_ERR = 1e-25


def _c(x) -> complex:
    return complex(x)


def _family(r, s, z):
    upper = [-s / 2, (1 - s) / 2] + [mpmath.mpf(1) / 2] * (r - 1)
    return mpmath.hyper(upper, [1] * r, z)


def mp_light(r: int, k: float, s: complex):
    """W_r(k;s) for |k| >= 2^r from the family series, summed by mpmath."""
    k = mpmath.mpf(k)
    s = mpmath.mpmathify(s)
    val = _c(k**s * _family(r, s, mpmath.mpf(4) ** r / k**2))
    return val, _MP_ERR * abs(val)


def mp_heavy(r: int, k: float, s: complex):
    """W_r(k;s) for 0 < |k| < 2^r, s not an odd integer, as
    (F(k) + F(-k)) / (1 + e^{i pi s}) with F(+-k) the boundary values of
    (+-k)^s pFq(4^r/k^2) from the upper half z-plane, continued by mpmath."""
    val = _c(_mp_heavy(r, mpmath.mpf(k), mpmath.mpmathify(s)))
    return val, _MP_ERR * abs(val)


def mp_odd(r: int, k: float, n: int):
    """W_r(k;n) at odd n as the s -> n limit of mp_heavy, taken at
    s = n + 1e-25 with 60 digits so the 0/0 cancels exactly enough."""
    with mpmath.workdps(60):
        val = _c(_mp_heavy(r, mpmath.mpf(k), mpmath.mpf(n) + mpmath.mpf(10) ** -25))
    return val, 1e-20 * abs(val)


def _mp_heavy(r, k, s):
    w = mpmath.mpf(4) ** r / k**2
    eps = mpmath.mpf(10) ** -40
    phase = mpmath.exp(1j * mpmath.pi * s)
    fp = k**s * _family(r, s, mpmath.mpc(w, -eps))
    fm = phase * k**s * _family(r, s, mpmath.mpc(w, eps))
    return (fp + fm) / (1 + phase)


def mp_mahler(r: int, k: float):
    """Mahler measure of k + prod(x_i + 1/x_i) as d/ds W_r(k;s) at s = 0."""
    k = mpmath.mpf(k)
    val = float(mpmath.diff(lambda s: mpmath.re(_mp_heavy(r, k, s)), 0))
    return complex(val), 1e-20 * (1.0 + abs(val))


def mp_g3(y: float):
    """Closed-form density G_3(y) = sqrt(y)/(4 pi^2) 2F1(1/4,1/4;1/2;y)
    2F1(3/4,3/4;3/2;y)."""
    y = mpmath.mpf(y)
    val = (
        mpmath.sqrt(y) / (4 * mpmath.pi**2)
        * mpmath.hyp2f1(0.25, 0.25, 0.5, y)
        * mpmath.hyp2f1(0.75, 0.75, 1.5, y)
    )
    return complex(val), _MP_ERR * abs(float(val))


def mp_w1(k: float, s: complex):
    """W_1(k;s) from the three-case closed form, summed by mpmath."""
    val = _c(_mp_w1(k, mpmath.mpmathify(s)))
    return val, _MP_ERR * abs(val)


def mp_k_zero(r: int, s: complex):
    """W_r(0;s): the r-th power of the one-factor absolute moment
    2^s Gamma((s+1)/2) / (sqrt(pi) Gamma(1+s/2))."""
    s = mpmath.mpmathify(s)
    one = mpmath.power(2, s) * mpmath.gamma((s + 1) / 2) / (
        mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 + s / 2))
    val = _c(one**r)
    return val, _MP_ERR * abs(val)


def _mp_w1(k, s):
    """W_1(k;s) in mpmath from the three-case closed form."""
    k = abs(mpmath.mpf(k))
    if k == 2:
        return mpmath.power(2, s) * mpmath.gamma(0.5 + s) / (
            mpmath.gamma(1 + s / 2) * mpmath.gamma((1 + s) / 2))
    if k > 2:
        return k**s * mpmath.hyp2f1(-s / 2, (1 - s) / 2, 1, 4 / k**2)
    pref = (
        mpmath.power(4, s) * mpmath.gamma((1 + s) / 2) ** 2
        / (mpmath.pi * mpmath.gamma(1 + s))
    )
    return pref * mpmath.hyp2f1(-s / 2, -s / 2, 0.5, k**2 / 4)


def mp_zeros_w1(k: float, t_lo: float, t_hi: float, dt: float = 0.02) -> list:
    """Zeros of t -> W_1(k; -1/2 + it) in (t_lo, t_hi): local minima of |W|
    on a grid that overhangs both ends, each polished by a complex secant
    iteration."""
    with mpmath.workdps(20):
        f = lambda t: _mp_w1(k, -0.5 + mpmath.j * t)  # noqa: E731
        a, b = t_lo - 0.1, t_hi + 0.1
        n = int(math.ceil((b - a) / dt)) + 1
        ts = [a + (b - a) * i / (n - 1) for i in range(n)]
        mags = [abs(f(t)) for t in ts]
        roots = []
        for i in range(1, n - 1):
            if not (mags[i] <= mags[i - 1] and mags[i] <= mags[i + 1]):
                continue
            try:
                z = mpmath.findroot(f, mpmath.mpc(ts[i], 0))
            except (ValueError, ZeroDivisionError):
                continue
            t = float(mpmath.re(z))
            if abs(float(mpmath.im(z))) < 1e-8 and t_lo < t < t_hi:
                if all(abs(t - u) > 1e-6 for u in roots):
                    roots.append(t)
        return sorted(roots)


def digits_of(value: complex, err: float) -> float:
    """Significant digits an absolute error certifies, capped at 16."""
    if err <= 0.0 or value == 0:
        return 16.0
    return min(16.0, -math.log10(err / abs(value)))
