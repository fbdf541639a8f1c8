"""Closed-form evaluators for W_r(k;s), the mean of |k + prod (x_i + 1/x_i)|^s
over the unit torus.

Coverage map (dispatcher `w`):

    |k| > 2^r   any r, any s        hypergeometric series (w_light)
    |k| = 2^r   any r, Re s > -r/2  unit-argument series (w_light), exact k only
    |k| < 2^r   r = 1               three-case closed form (w1)
                r = 2               two-term 3F2 combination (w2)
                r = 3               three-term formula with a Meijer G (w3)
                r = 4, Re s > -1    (F(k) + F(-k)) / (1 + e^{i pi s}) (h_rs): one
                                    continuation walk at real s (w_real_s), two
                                    at complex s
                k = 0, any r        product of one-factor moments

At r = 2, 3, 4 and s within 1/32 of an odd n >= 1, where the closed forms
are a 0/0 (tan(pi s / 2) at r = 2, 3, the vanishing 1 + e^{i pi s} at r = 4),
the value is a circle in s around n (_odd_limit): w2 and w3 take it
themselves, and w takes it through h_rs at r = 4.  w2_odd, the paper's
Meijer-G formula for W_2 at odd n, checks that circle.  The Meijer-G blocks
of w3 and w2_odd are summed as their right-pole residue series
(meijer.meijer_mb).

Lanes: w1, w_light, w2 and w3 take s as a scalar or as a 1-d array of
lanes (w2 and w3 kept off the circle's windows); one body serves both, and
with an array each pFq is summed once over all lanes and each Gamma
prefactor taken over all lanes (hyper).  W_1's domain is all s: a w1 lane
next to an even negative integer takes the scalar reflection branch (0 at
the integer itself), and one next to an odd negative integer raises
PoleError, as the scalar call does.  The circle evaluates its 9 upper
nodes as one such call (at r = 4, h_rs node by node), and so do the W_3
Mahler derivative stencil (analysis) with its four offsets and the
argument-principle box (analysis) with its 257 contour points.

The heavy-regime formulas all analytically continue the same hypergeometric
family past its z = 1 singularity; the continuation half-plane is fixed once
by the calibration constant CONTINUATION_BRANCH below (validated against
direct torus quadrature in the test suite).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError
from .gamma import _POLE_TOL, cpow, pole_order
from .hyper import (
    ContinuationBranch,
    SeriesSpec,
    family_spec,
    gamma_ratio,
    pfq,
    pfq_continued,
)
from .meijer import meijer_mb, w2_g_spec, w3_g_spec
from .types import ROUNDING, EvalResult, Method, ZmfPoint, check_finite, edge_log, stack

# Frozen calibration: continuing the family series to w = 4^r/k^2 > 1 through
# the lower half w-plane reproduces the torus integral (the boundary value
# F_{r,s}(|k|) is the limit from the upper half z-plane, and z -> 4^r/z^2
# reverses the half-plane).  See the calibration test before changing.
CONTINUATION_BRANCH = ContinuationBranch.FROM_BELOW

# Radius and node count of the circle |z - n| = rho around an odd n.  W_r(k;s)
# is analytic in s for Re s > -1, so the trapezoid rule converges like
# max(rho / 2, |s - n| / rho)^N; the circle serves |s - n| <= rho / 8, which
# keeps every node outside that window.
_ODD_RADIUS = 0.25
_ODD_NODES = 16
# The nodes z_j - n, j = 0..N-1: the upper half (j <= N/2, evaluated) and
# the mirror slice that maps nodes N/2 + 1 .. N - 1 onto their conjugates.
_ODD_UPPER = _ODD_RADIUS * np.exp(2j * np.pi * np.arange(_ODD_NODES // 2 + 1) / _ODD_NODES)
_ODD_MIRROR = slice(_ODD_NODES // 2 - 1, 0, -1)
_ODD_CIRCLE = np.concatenate((_ODD_UPPER, _ODD_UPPER[_ODD_MIRROR].conj()))


def _odd_center(s: complex):
    """The odd integer n >= 1 with |s - n| <= rho / 8, else None."""
    n = 2 * round((s.real - 1.0) / 2.0) + 1
    return n if n >= 1 and abs(s - n) <= _ODD_RADIUS / 8 else None


def _lanes(k: float, s) -> tuple:
    """(|k|, s, the math module for s): s a complex scalar (cmath) or a 1-d
    complex array of lanes (numpy)."""
    k = abs(float(k))
    if type(s) is not np.ndarray or s.ndim == 0:
        s, xp = complex(s), cmath
    else:
        s, xp = np.asarray(s, dtype=complex), np
        if s.ndim != 1:
            raise DomainError("s must be a scalar or a 1-d array of lanes")
    check_finite(k, s)
    return k, s, xp


def _re_min(s) -> float:
    """Re s, or its least lane."""
    return s.real.min() if type(s) is np.ndarray else s.real


def _lane_s(k: float, s) -> tuple:
    """_lanes for a formula whose domain is Re s > -1."""
    k, s, xp = _lanes(k, s)
    if _re_min(s) <= -1.0:
        raise DomainError("requires Re(s) > -1")
    return k, s, xp


def _odd_window(k: float, s, xp):
    """The odd n whose circle serves a scalar s at k > 0, else None.  The
    circle is not taken lane by lane: an array of s must keep off it."""
    if k == 0.0:
        return None
    if xp is cmath:
        return _odd_center(s)
    n = 2.0 * np.rint((s.real - 1.0) / 2.0) + 1.0
    if ((n >= 1.0) & (np.abs(s - n) <= _ODD_RADIUS / 8)).any():
        raise DomainError("a lane of s lies within 1/32 of an odd integer; evaluate it alone")
    return None


def w1(k: float, s) -> EvalResult:
    """W_1(k;s) by the three-case closed form (|k| vs 2).  s may also be a
    1-d array of lanes, as in w2; W_1's domain is all s, so no lane is
    checked against Re s > -1."""
    k, s, xp = _lanes(k, s)
    if k > 2.0:
        return w_light(1, k, s)
    if k == 2.0:
        if _re_min(s) <= -0.5:
            raise DomainError("W_1 at |k| = 2 requires Re(s) > -1/2")
        val, rel = gamma_ratio(
            s * math.log(2.0), (1.0, 0.5 + s), (-1.0, 1.0 + s / 2), (-1.0, (1.0 + s) / 2)
        )
        return EvalResult(val, rel * abs(val), Method.CLOSED_FORM)
    if xp is cmath:
        pref, rel = _w1_prefactor(s)
    else:
        # Lanes next to a negative integer (pole_order's square) take the
        # scalar prefactor; the lane call sees 0 in their place.
        near = (np.abs(s.imag) <= _POLE_TOL) & (np.abs(s.real - np.rint(s.real)) <= _POLE_TOL) & (s.real < -0.5)
        pref, rel = _w1_prefactor(np.where(near, 0.0, s))
        for i in np.flatnonzero(near):
            pref[i], rel[i] = _w1_prefactor(complex(s[i]))
    f = pfq(SeriesSpec((-s / 2, -s / 2), (0.5,), k * k / 4.0, edge_log(1, k)))
    val = pref * f.value
    return EvalResult(val, abs(pref) * f.abs_err + rel * abs(val), Method.CLOSED_FORM)


def _w1_prefactor(s) -> tuple:
    """The |k| < 2 prefactor 4^s Gamma((1+s)/2)^2 / (pi Gamma(1+s)) in log
    space and its relative error, at a scalar s or at lanes kept off the
    negative integers."""
    m = None if type(s) is np.ndarray else pole_order(s, _POLE_TOL)  # s next to -m; s = 0 is regular
    if m:
        if m % 2 != 0:
            # Double pole of Gamma((1+s)/2)^2 against a single pole of
            # Gamma(1+s): a genuine pole of W_1.
            raise PoleError(f"W_1(k;s) has a pole at s = {-m} for |k| < 2")
        # Next to an even negative integer -m only Gamma(1+s) is singular:
        # take 1/Gamma(1+s) = Gamma(-s) sin(pi (1+s)) / pi by reflection, with
        # the exact offset s + m in the sine, so W_1 is 0 at -m itself.
        pref, rel = gamma_ratio(
            s * math.log(4.0) - 2.0 * math.log(math.pi), (2.0, (1.0 + s) / 2), (1.0, -s)
        )
        return pref * -cmath.sin(math.pi * (s + m)), rel + ROUNDING
    return gamma_ratio(s * math.log(4.0) - math.log(math.pi), (2.0, (1.0 + s) / 2), (-1.0, 1.0 + s))


def w_light(r: int, k: float, s) -> EvalResult:
    """W_r(k;s) for |k| >= 2^r via the hypergeometric series (unit-argument
    acceleration exactly on the boundary).  s may also be a 1-d array of
    lanes, as in w2."""
    k, s, xp = _lanes(k, s)
    edge = 2.0**r
    if k < edge:
        raise DomainError("w_light requires |k| >= 2^r")
    if k == edge:
        if _re_min(s) <= -r / 2.0:
            raise DomainError("boundary |k| = 2^r requires Re(s) > -r/2")
        f = pfq(family_spec(r, s, 1.0))
    else:
        f = pfq(family_spec(r, s, 4.0**r / (k * k), -edge_log(r, k)))
    log_scale = s * math.log(k)
    scale = xp.exp(log_scale)
    err = abs(scale) * (f.abs_err + ROUNDING * (1.0 + abs(log_scale)) * abs(f.value))
    return EvalResult(scale * f.value, err, Method.CLOSED_FORM)


def w_real_s(r: int, k: float, s: float) -> EvalResult:
    """W_r(k;s) at real s and 0 < |k| < 2^r: the real part of h_rs, which
    takes one continuation walk at real s."""
    k = abs(float(k))
    s = float(s)
    check_finite(k, s)
    if not 1 <= r <= 4:
        raise DomainError("w_real_s supports 1 <= r <= 4")
    if not 0.0 < k < 2.0**r:
        raise DomainError("w_real_s requires 0 < |k| < 2^r")
    h = h_rs(r, k, s)
    return EvalResult(complex(h.value.real), h.abs_err, h.method)


def _w_zero(r: int, s: complex) -> EvalResult:
    """W_r(0;s): the torus factors decouple, giving the r-th power of the
    one-factor absolute moment 2^s Gamma((s+1)/2) / (sqrt(pi) Gamma(1+s/2))."""
    s = complex(s)
    if s.real <= -1.0:
        raise DomainError("W_r(0;s) requires Re(s) > -1")
    val, rel = gamma_ratio(
        r * (s * math.log(2.0) - 0.5 * math.log(math.pi)),
        (r, (s + 1.0) / 2.0),
        (-r, 1.0 + s / 2.0),
    )
    return EvalResult(val, rel * abs(val), Method.CLOSED_FORM)


def w2(k: float, s) -> EvalResult:
    """W_2(k;s) for |k| < 4, Re(s) > -1; near an odd s, by the circle.

    s may also be a 1-d array of lanes off the circle's windows: the same
    body then sums every pFq once over all lanes and returns a lane result."""
    k, s, xp = _lane_s(k, s)
    if k >= 4.0:
        raise DomainError("w2 requires |k| < 4")
    n = _odd_window(k, s, xp)
    if n is not None:
        return _odd_limit(lambda z: w2(k, z), n, s)
    z, log_z = k * k / 16.0, edge_log(2, k)
    f2 = pfq(SeriesSpec((-s / 2,) * 3, ((1 - s) / 2, 0.5), z, log_z))
    pref2, rel2 = gamma_ratio(0.0, (2.0, s + 1.0), (-4.0, s / 2 + 1.0))
    total = pref2 * f2.value
    err = abs(pref2) * f2.abs_err + rel2 * abs(total)
    if k > 0.0:
        f1 = pfq(SeriesSpec((0.5, 0.5, 0.5), (1 + s / 2, 1.5 + s / 2), z, log_z))
        pref1 = xp.tan(0.5 * math.pi * s) / (2.0 * math.pi * (s + 1.0)) * xp.exp((1.0 + s) * math.log(k))
        total = total + pref1 * f1.value
        err = err + abs(pref1) * f1.abs_err
    return EvalResult(total, err + 1e-14 * (1.0 + abs(total)), Method.CLOSED_FORM)


def _odd_limit(fn, n: int, s: complex) -> EvalResult:
    """fn(s) for s near the odd integer n by the trapezoid rule for Cauchy's
    integral on |z - n| = rho (Trefethen and Weideman, SIAM Rev. 56 (2014);
    Bornemann, Found. Comput. Math. 11 (2011)):

        fn(s) ~ (1/N) sum_j fn(z_j) (z_j - n) / (z_j - s).

    fn is W_r at a real k, so fn(conj z) = conj fn(z) and only the upper half
    circle is evaluated, as one call of fn on the array of its nodes (a lane
    result).  Halving N squares the relative error, so the error estimate is
    the squared relative gap to the N/2-node sum, times the value, plus the
    nodes' abs_err through the weights and a rounding floor.
    """
    res = fn(n + _ODD_UPPER)
    vals = np.concatenate((res.value, res.value[_ODD_MIRROR].conj()))
    errs = np.concatenate((res.abs_err, res.abs_err[_ODD_MIRROR]))
    weights = _ODD_CIRCLE / (_ODD_CIRCLE - (s - n))
    terms = vals * weights
    fine = complex(terms.sum()) / _ODD_NODES
    gap = abs(fine - complex(terms[::2].sum()) / (_ODD_NODES // 2))
    noise = float((errs * np.abs(weights) + ROUNDING * np.abs(terms)).sum())
    return EvalResult(fine, gap * gap / abs(fine) + noise / _ODD_NODES, Method.CONTOUR)


def w2_odd(k: float, n: int) -> EvalResult:
    """W_2(k;n) at odd positive n, |k| < 4.

    The value is the paper's explicit Meijer-G expression, its G block summed
    as the residue series of its simple and then double right poles.  It
    shares no code with the circle that w2 takes near odd s, so each checks
    the other.
    """
    k = abs(float(k))
    if not (isinstance(n, int) and n >= 1 and n % 2 == 1):
        raise DomainError("w2_odd requires an odd positive integer n")
    if k >= 4.0:
        raise DomainError("w2_odd requires |k| < 4")
    if k == 0.0:
        return _w_zero(2, n)
    g = meijer_mb(w2_g_spec(n, k))
    pref = (-1.0) ** ((n + 1) // 2) * 2.0**n * math.factorial(n) / math.pi**3
    alt = pref * g.value
    # W_2 is real at real k and s; the imaginary part is rounding.
    return EvalResult(complex(alt.real), abs(pref) * g.abs_err, Method.CLOSED_FORM)


def w3(k: float, s) -> EvalResult:
    """W_3(k;s) for |k| < 8, Re(s) > -1; near an odd s, by the circle.  s may
    also be a 1-d array of lanes, as in w2.

    The Meijer-G term is summed as its double-pole residue series, whose
    terms are those of the 4F3 (1/2, 1/2, 1/2, 1/2; 1, 1 + s/2, (3 + s)/2; z)
    of the second term, so that 4F3 is read from the same sum;
    meijer_triple_integral is the independent check of the block.
    """
    k, s, xp = _lane_s(k, s)
    if k >= 8.0:
        raise DomainError("w3 requires |k| < 8")
    n = _odd_window(k, s, xp)
    if n is not None:
        return _odd_limit(lambda z: w3(k, z), n, s)
    z, log_z, s1 = k * k / 64.0, edge_log(3, k), 1.0 + s
    f1 = pfq(SeriesSpec((-s / 2,) * 4, ((1 - s) / 2,) * 2 + (0.5,), z, log_z))
    pref1, rel1 = gamma_ratio(0.0, (3.0, s1), (-6.0, 1.0 + s / 2))
    total = pref1 * f1.value
    err = abs(pref1) * f1.abs_err + rel1 * abs(total)
    if k > 0.0:
        t = xp.tan(0.5 * math.pi * s)
        g, f2 = meijer_mb(w3_g_spec(s, k), series=True)
        pref2 = -t * t / (4.0 * math.pi * s1) * xp.exp(s1 * math.log(k))
        total = total + pref2 * f2.value
        err = err + abs(pref2) * f2.abs_err
        pref3, rel3 = gamma_ratio(s * math.log(4.0), (1.0, s1))
        pref3 = pref3 * t / math.pi**3.5
        total = total + pref3 * g.value
        err = err + abs(pref3) * g.abs_err + rel3 * abs(pref3 * g.value)
    return EvalResult(total, err + 1e-13 * (1.0 + abs(total)), Method.CLOSED_FORM)


def f_rs(r: int, s: complex, x: float) -> EvalResult:
    """The one-sided building block F_{r,s}(x) = int t^s p_hat_r(t - x) dt at
    real x: x^s (principal power, e^{i pi s} |x|^s for x < 0) times the
    family series in 4^r/x^2.  For |x| >= 2^r that is w_light at |x|; inside
    the disk it is the boundary value from the upper half x-plane, the
    series continued past its singularity (pfq_continued)."""
    s = complex(s)
    x = float(x)
    check_finite(x, s)
    if x == 0.0:
        raise DomainError("F_{r,s} is singular at x = 0")
    k = abs(x)
    if k >= 2.0**r:
        res = w_light(r, k, s)
    else:
        # x just above the real axis maps to w = 4^r/x^2 just below (x > 0)
        # or above (x < 0) the real w-axis, so x < 0 takes the branch
        # opposite to CONTINUATION_BRANCH.
        branch = CONTINUATION_BRANCH
        if x < 0:
            (branch,) = set(ContinuationBranch) - {CONTINUATION_BRANCH}
        f = pfq_continued(r, s, 4.0**r / (k * k), branch)
        scale = cpow(k, s)
        res = EvalResult(scale * f.value, abs(scale) * f.abs_err, f.method)
    if x > 0:
        return res
    phase = cmath.exp(1j * math.pi * s)
    err = abs(phase) * (res.abs_err + ROUNDING * math.pi * abs(s) * abs(res.value))
    return EvalResult(phase * res.value, err, res.method)


def h_rs(r: int, k: float, s: complex) -> EvalResult:
    """H_{r,s}(|k|) = (F_{r,s}(|k|) + F_{r,s}(-|k|)) / (1 + e^{i pi s}),
    which is W_r(k;s) for 0 < |k| < 2^r and Re s > -1.

    At real s the two continuation branches are conjugate, F(-k) =
    e^{i pi s} conj F(k), so one walk serves; complex s takes two."""
    k = abs(float(k))
    s = complex(s)
    if s.real <= -1.0:
        raise DomainError("H_{r,s} requires Re(s) > -1")
    phase = cmath.exp(1j * math.pi * s)
    denom = 1.0 + phase
    if abs(denom) < 1e-10:
        raise PoleError("H_{r,s}: 1 + e^{i pi s} vanishes (odd integer s)")
    fp = f_rs(r, s, k)
    if s.imag == 0.0:
        fm = EvalResult(phase * fp.value.conjugate(), fp.abs_err, fp.method)
    else:
        fm = f_rs(r, s, -k)
    val = (fp.value + fm.value) / denom
    err = (fp.abs_err + fm.abs_err) / abs(denom)
    return EvalResult(val, err, fp.method)


@dataclass(frozen=True)
class DerivativeReport:
    """Finite-difference derivative check: measured values vs the reference."""

    fd_left: complex
    fd_right: complex
    reference: complex
    residual_left: float
    residual_right: float


# Steps of the finite differences in ``boundary_derivative_check`` and
# ``k_zero_derivatives``.
_EDGE_STEP = 1e-3
_ZERO_STEP = 0.05


def boundary_derivative_check(r: int, s: float) -> DerivativeReport:
    """One-sided dW_r/dk at k = 2^r from both regimes vs s * F_{r,s-1}(2^r)."""
    s = float(s)
    if s <= 1.0 - r / 2.0:
        raise DomainError("requires Re(s) > 1 - r/2")
    edge = 2.0**r
    ref = s * w_light(r, edge, s - 1.0).value
    w0 = w_light(r, edge, s).value

    def one_sided(sign: float) -> complex:
        h = sign * _EDGE_STEP
        d1 = (w(r, edge + h, s).value - w0) / h
        d2 = (w(r, edge + h / 2, s).value - w0) / (h / 2)
        return 2.0 * d2 - d1

    right = one_sided(1.0)
    left = one_sided(-1.0)
    return DerivativeReport(
        left, right, ref, abs(left - ref), abs(right - ref)
    )


def k_zero_derivatives(r: int, s: float, j: int) -> DerivativeReport:
    """j-th right derivative of k -> W_r(k;s) at k = 0 by central differences
    (using evenness in k) against the closed form: 0 for odd j, a Gamma ratio
    for even j."""
    s = float(s)
    if j < 0 or j > math.floor(s):
        raise DomainError("requires 0 <= j <= floor(s)")
    if j % 2 == 1:
        ref = 0.0 + 0.0j
    else:
        # Gamma(s+1)/Gamma(s-j+1) * W_r(0; s-j): the falling factorial from
        # repeated application of d^2/dk^2 = s(s-1) * (value at s-2), applied
        # j/2 times, times the k = 0 value at the shifted exponent.
        ratio, _ = gamma_ratio(0.0, (1.0, s + 1.0), (-1.0, s - j + 1.0))
        ref = ratio * _w_zero(r, s - j).value

    def stencil(hh: float) -> complex:
        total = 0.0 + 0.0j
        for i in range(j + 1):
            x = abs((j / 2.0 - i) * hh)
            total += (-1.0) ** i * math.comb(j, i) * w(r, x, s).value
        return total / hh**j

    d1 = stencil(_ZERO_STEP)
    d2 = stencil(_ZERO_STEP / 2.0)
    fd = (4.0 * d2 - d1) / 3.0
    return DerivativeReport(fd, fd, ref, abs(fd - ref), abs(fd - ref))


def w(r: int, k: float, s: complex, method: str | None = None) -> EvalResult:
    """Evaluate W_r(k;s), dispatching on the regime of |k| vs 2^r.

    method overrides the closed forms: "quadrature" (direct torus
    integration, r <= 3) or "monte-carlo".
    """
    if r < 1:
        raise DomainError("r must be a positive integer")
    point = ZmfPoint(r, float(k), complex(s))
    if method == "quadrature":
        from .oracle import torus_quadrature

        return torus_quadrature(point)
    if method == "monte-carlo":
        from .oracle import monte_carlo

        return monte_carlo(point)
    if method not in (None, "closed-form"):
        raise DomainError(f"unknown method {method!r}")
    k = abs(float(k))
    s = complex(s)
    edge = 2.0**r
    if k >= edge:
        return w_light(r, k, s)
    if k == 0.0:
        return _w_zero(r, s)
    if r == 1:
        return w1(k, s)
    if r == 2:
        return w2(k, s)
    if r == 3:
        return w3(k, s)
    if r == 4:
        n = _odd_center(s)
        if n is not None:
            return _odd_limit(lambda z: stack(h_rs(4, k, x) for x in z), n, s)
        if s.imag == 0.0:
            return w_real_s(4, k, s.real)
        return h_rs(4, k, s)
    raise DomainError(
        "no closed form for the heavy regime at r >= 5; use method='monte-carlo'"
    )
