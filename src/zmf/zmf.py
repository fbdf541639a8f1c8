"""Closed-form evaluators for W_r(k;s), the mean of |k + prod (x_i + 1/x_i)|^s
over the unit torus.

Coverage map (dispatcher `w`):

    |k| > 2^r   any r, any s        hypergeometric series (w_light)
    |k| = 2^r   any r, Re s > -r/2  unit-argument series (w_light), exact k only
    |k| < 2^r   r = 1               three-case closed form (w1)
                r = 2               two-term 3F2 combination (w2)
                r = 3               three-term formula with a Meijer G (w3)
                r = 4, real s > 0   continuation formula (w_real_s)
                k = 0, any r        product of one-factor moments

At r = 2, 3, 4 and s within 1/32 of an odd n >= 1, where the closed forms
carry tan(pi s / 2) into a 0/0, the value is a circle in s around n
(_odd_limit): w2 and w3 take it themselves, and w takes it through h_rs at
r = 4.  w2_odd, the paper's Meijer-G formula for W_2 at odd n, checks that
circle.  The Meijer-G blocks of w3 and w2_odd are summed as their right-pole
residue series (meijer.meijer_mb).

The heavy-regime formulas all analytically continue the same hypergeometric
family past its z = 1 singularity; the continuation half-plane is fixed once
by the calibration constant CONTINUATION_BRANCH below (validated against
direct torus quadrature in the test suite).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, PoleError
from .gamma import cpow, nearest_int
from .hyper import (
    ContinuationBranch,
    SeriesSpec,
    family_spec,
    gamma_ratio,
    pfq,
    pfq_continued,
)
from .meijer import meijer_mb, w2_g_spec, w3_g_spec
from .types import ROUNDING, EvalResult, Method, ZmfPoint, check_finite

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
# Distance below which s counts as an integer (the W_1 pole test) and an
# imaginary part below which s or z counts as real.
_PARAM_TOL = 1e-12


def _edge_log(r: int, k: float):
    """log(k^2 / 4^r) from the exact distance k - 2^r, so that the
    near-unit series sees the |k - 2^r|^(s + r/2) cusp without the rounding
    of k^2 / 4^r; None at k = 0."""
    edge = 2.0**r
    return 2.0 * math.log1p((k - edge) / edge) if k > 0.0 else None


def _odd_center(s: complex):
    """The odd integer n >= 1 with |s - n| <= rho / 8, else None."""
    n = 2 * round((s.real - 1.0) / 2.0) + 1
    return n if n >= 1 and abs(s - n) <= _ODD_RADIUS / 8 else None


def _tan_half_pi(s: complex) -> complex:
    return cmath.tan(0.5 * math.pi * complex(s))


def w1(k: float, s: complex) -> EvalResult:
    """W_1(k;s) by the three-case closed form (|k| vs 2)."""
    k = abs(float(k))
    s = complex(s)
    check_finite(k, s)
    if k > 2.0:
        f = pfq(SeriesSpec((-s / 2, (1 - s) / 2), (1.0,), 4.0 / (k * k), -_edge_log(1, k)))
        val = cpow(k, s) * f.value
        return EvalResult(val, abs(cpow(k, s)) * f.abs_err, Method.CLOSED_FORM)
    if k == 2.0:
        if s.real <= -0.5:
            raise DomainError("W_1 at |k| = 2 requires Re(s) > -1/2")
        val, rel = gamma_ratio(
            s * math.log(2.0), (1.0, 0.5 + s), (-1.0, 1.0 + s / 2), (-1.0, (1.0 + s) / 2)
        )
        return EvalResult(val, rel * abs(val), Method.CLOSED_FORM)
    # |k| < 2: prefactor 4^s Gamma((1+s)/2)^2 / (pi Gamma(1+s)) in log space.
    n = nearest_int(s, _PARAM_TOL)
    if n is not None and n <= -1:
        if n % 2 != 0:
            # Double pole of Gamma((1+s)/2)^2 against a single pole of
            # Gamma(1+s): a genuine pole of W_1.
            raise PoleError(f"W_1(k;s) has a pole at s = {n} for |k| < 2")
        # Even negative integer: only the denominator Gamma(1+s) is singular,
        # so the prefactor (and W_1) vanishes.
        return EvalResult(0.0 + 0.0j, 1e-16, Method.CLOSED_FORM)
    f = pfq(SeriesSpec((-s / 2, -s / 2), (0.5,), k * k / 4.0, _edge_log(1, k)))
    pref, rel = gamma_ratio(
        s * math.log(4.0) - math.log(math.pi), (2.0, (1.0 + s) / 2), (-1.0, 1.0 + s)
    )
    val = pref * f.value
    return EvalResult(val, abs(pref) * f.abs_err + rel * abs(val), Method.CLOSED_FORM)


def w_light(r: int, k: float, s: complex) -> EvalResult:
    """W_r(k;s) for |k| >= 2^r via the hypergeometric series (unit-argument
    acceleration exactly on the boundary)."""
    k = abs(float(k))
    s = complex(s)
    check_finite(k, s)
    edge = 2.0**r
    if k < edge:
        raise DomainError("w_light requires |k| >= 2^r")
    if k == edge:
        if s.real <= -r / 2.0:
            raise DomainError("boundary |k| = 2^r requires Re(s) > -r/2")
        f = pfq(family_spec(r, s, 1.0))
    else:
        f = pfq(family_spec(r, s, 4.0**r / (k * k), -_edge_log(r, k)))
    log_scale = s * math.log(k)
    scale = cmath.exp(log_scale)
    err = abs(scale) * (f.abs_err + ROUNDING * (1.0 + abs(log_scale)) * abs(f.value))
    return EvalResult(scale * f.value, err, Method.CLOSED_FORM)


def w_real_s(r: int, k: float, s: float) -> EvalResult:
    """W_r(k;s) for real s > 0 (s not odd) and 0 < |k| < 2^r via the
    continuation of the family series to w = 4^r/k^2 > 1."""
    k = abs(float(k))
    s = float(s)
    check_finite(k, s)
    if not 1 <= r <= 4:
        raise DomainError("w_real_s supports 1 <= r <= 4")
    if not 0.0 < k < 2.0**r:
        raise DomainError("w_real_s requires 0 < |k| < 2^r")
    if s <= 0.0:
        raise DomainError("w_real_s requires real s > 0")
    f = pfq_continued(r, s, 4.0**r / (k * k), CONTINUATION_BRANCH)
    t = math.tan(0.5 * math.pi * s)
    val = k**s * (f.value.real + t * f.value.imag)
    err = k**s * (1.0 + abs(t)) * f.abs_err
    return EvalResult(complex(val), err, f.method)


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


def w2(k: float, s: complex) -> EvalResult:
    """W_2(k;s) for |k| < 4, Re(s) > -1; near an odd s, by the circle."""
    k = abs(float(k))
    s = complex(s)
    check_finite(k, s)
    if k >= 4.0:
        raise DomainError("w2 requires |k| < 4")
    if s.real <= -1.0:
        raise DomainError("w2 requires Re(s) > -1")
    n = _odd_center(s)
    if k > 0.0 and n is not None:
        return _odd_limit(lambda z: w2(k, z), n, s)
    z, log_z = k * k / 16.0, _edge_log(2, k)
    f2 = pfq(SeriesSpec((-s / 2, -s / 2, -s / 2), ((1 - s) / 2, 0.5), z, log_z))
    pref2, rel2 = gamma_ratio(0.0, (2.0, s + 1.0), (-4.0, s / 2 + 1.0))
    total = pref2 * f2.value
    err = abs(pref2) * f2.abs_err + rel2 * abs(total)
    if k > 0.0:
        f1 = pfq(SeriesSpec((0.5, 0.5, 0.5), (1 + s / 2, 1.5 + s / 2), z, log_z))
        pref1 = (
            _tan_half_pi(s) / (2.0 * math.pi * (s + 1.0)) * cpow(k, 1.0 + s)
        )
        total += pref1 * f1.value
        err += abs(pref1) * f1.abs_err
    return EvalResult(total, err + 1e-14 * (1.0 + abs(total)), Method.CLOSED_FORM)


def _odd_limit(fn, n: int, s: complex) -> EvalResult:
    """fn(s) for s near the odd integer n by the trapezoid rule for Cauchy's
    integral on |z - n| = rho (Trefethen and Weideman, SIAM Rev. 56 (2014);
    Bornemann, Found. Comput. Math. 11 (2011)):

        fn(s) ~ (1/N) sum_j fn(z_j) (z_j - n) / (z_j - s).

    fn is W_r at a real k, so fn(conj z) = conj fn(z) and only the upper half
    circle is evaluated.  Halving N squares the relative error, so the error
    estimate is the squared relative gap to the N/2-node sum, times the
    value, plus the nodes' abs_err through the weights and a rounding floor.
    """
    half = _ODD_NODES // 2
    upper = [_ODD_RADIUS * cmath.exp(1j * math.pi * j / half) for j in range(half + 1)]
    res = [fn(n + u) for u in upper]
    low = slice(half - 1, 0, -1)  # nodes half + 1 .. N - 1 mirror these
    nodes = upper + [u.conjugate() for u in upper[low]]
    vals = [r.value for r in res] + [r.value.conjugate() for r in res[low]]
    errs = [r.abs_err for r in res + res[low]]
    weights = [u / (u - (s - n)) for u in nodes]
    terms = [v * wt for v, wt in zip(vals, weights)]
    fine = sum(terms) / _ODD_NODES
    gap = abs(fine - sum(terms[::2]) / half)
    noise = sum(e * abs(wt) + ROUNDING * abs(t) for e, wt, t in zip(errs, weights, terms))
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


def w3(k: float, s: complex) -> EvalResult:
    """W_3(k;s) for |k| < 8, Re(s) > -1; near an odd s, by the circle.

    The Meijer-G term is summed as its double-pole residue series;
    meijer_triple_integral is the independent check of that route.
    """
    k = abs(float(k))
    s = complex(s)
    check_finite(k, s)
    if k >= 8.0:
        raise DomainError("w3 requires |k| < 8")
    if s.real <= -1.0:
        raise DomainError("w3 requires Re(s) > -1")
    n = _odd_center(s)
    if k > 0.0 and n is not None:
        return _odd_limit(lambda z: w3(k, z), n, s)
    z, log_z = k * k / 64.0, _edge_log(3, k)
    f1 = pfq(SeriesSpec((-s / 2,) * 4, ((1 - s) / 2, (1 - s) / 2, 0.5), z, log_z))
    pref1, rel1 = gamma_ratio(0.0, (3.0, 1.0 + s), (-6.0, 1.0 + s / 2))
    total = pref1 * f1.value
    err = abs(pref1) * f1.abs_err + rel1 * abs(total)
    if k > 0.0:
        t = _tan_half_pi(s)
        f2 = pfq(SeriesSpec((0.5,) * 4, (1.0, 1 + s / 2, (3 + s) / 2), z, log_z))
        pref2 = -t * t / (4.0 * math.pi * (s + 1.0)) * cpow(k, 1.0 + s)
        total += pref2 * f2.value
        err += abs(pref2) * f2.abs_err
        g = meijer_mb(w3_g_spec(s, k))
        pref3, rel3 = gamma_ratio(s * math.log(4.0), (1.0, 1.0 + s))
        pref3 *= t / math.pi**3.5
        total += pref3 * g.value
        err += abs(pref3) * g.abs_err + rel3 * abs(pref3 * g.value)
    return EvalResult(total, err + 1e-13 * (1.0 + abs(total)), Method.CLOSED_FORM)


def f_rs(r: int, s: complex, z: complex) -> EvalResult:
    """The one-sided building block F_{r,s}(z) = int x^s p_hat_r(x - z) dx.

    For |z| > 2^r this is the plain series; for real z in [-2^r, 2^r] the
    boundary value from the upper half-plane is returned (principal powers).
    Genuinely complex z inside the disk is out of the supported envelope.
    """
    s = complex(s)
    z = complex(z)
    edge = 2.0**r
    if z == 0:
        raise DomainError("F_{r,s} is singular at z = 0")
    if abs(z) > edge:
        log_w = -_edge_log(r, abs(z.real)) if z.imag == 0 else None
        f = pfq(family_spec(r, s, 4.0**r / (z * z), log_w))
        scale = cpow(z, s)
        return EvalResult(scale * f.value, abs(scale) * f.abs_err, Method.CLOSED_FORM)
    if abs(z.imag) > _PARAM_TOL:
        raise DomainError(
            "F_{r,s} inside the disk |z| <= 2^r is only supported for real z"
        )
    x = z.real
    if abs(x) == edge:
        if s.real <= -r / 2.0:
            raise DomainError("F_{r,s} at |z| = 2^r requires Re(s) > -r/2")
        f = pfq(family_spec(r, s, 1.0))
    else:
        # Continuation branch: z just above the real axis maps to
        # w = 4^r/z^2 just below (x > 0) or above (x < 0) the real w-axis,
        # so x < 0 takes the branch opposite to CONTINUATION_BRANCH.
        branch = CONTINUATION_BRANCH
        if x < 0:
            (branch,) = set(ContinuationBranch) - {CONTINUATION_BRANCH}
        f = pfq_continued(r, s, 4.0**r / (x * x), branch)
    scale = cpow(complex(x), s)  # principal branch: e^{i pi s} |x|^s for x < 0
    return EvalResult(scale * f.value, abs(scale) * f.abs_err, f.method)


def h_rs(r: int, k: float, s: complex) -> EvalResult:
    """H_{r,s}(|k|) = (F_{r,s}(|k|) + F_{r,s}(-|k|)) / (1 + e^{i pi s}),
    which recovers W_r(k;s) for |k| < 2^r."""
    k = abs(float(k))
    fp = f_rs(r, s, k)
    fm = f_rs(r, s, -k)
    denom = 1.0 + cmath.exp(1j * math.pi * complex(s))
    if abs(denom) < 1e-10:
        raise PoleError("H_{r,s}: 1 + e^{i pi s} vanishes (odd integer s)")
    val = (fp.value + fm.value) / denom
    err = (fp.abs_err + fm.abs_err) / abs(denom)
    return EvalResult(val, err, Method.CLOSED_FORM)


@dataclass(frozen=True)
class DerivativeReport:
    """Finite-difference derivative check: measured values vs the reference."""

    fd_left: complex
    fd_right: complex
    reference: complex
    residual_left: float
    residual_right: float


def boundary_derivative_check(r: int, s: float, h: float = 1e-3) -> DerivativeReport:
    """One-sided dW_r/dk at k = 2^r from both regimes vs s * F_{r,s-1}(2^r)."""
    s = float(s)
    if s <= 1.0 - r / 2.0:
        raise DomainError("requires Re(s) > 1 - r/2")
    edge = 2.0**r
    ref = s * w_light(r, edge, s - 1.0).value
    w0 = w_light(r, edge, s).value

    def one_sided(sign: float) -> complex:
        d1 = (w(r, edge + sign * h, s).value - w0) / (sign * h)
        d2 = (w(r, edge + sign * h / 2, s).value - w0) / (sign * h / 2)
        return 2.0 * d2 - d1

    right = one_sided(1.0)
    left = one_sided(-1.0)
    return DerivativeReport(
        left, right, ref, abs(left - ref), abs(right - ref)
    )


def k_zero_derivatives(r: int, s: float, j: int, h: float = 0.05) -> DerivativeReport:
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

    d1 = stencil(h)
    d2 = stencil(h / 2.0)
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
            return _odd_limit(lambda z: h_rs(4, k, z), n, s)
        if abs(s.imag) <= _PARAM_TOL and s.real > 0:
            return w_real_s(r, k, s.real)
        raise DomainError(
            "heavy regime at r = 4 is supported for real s > 0 only"
        )
    raise DomainError(
        "no closed form for the heavy regime at r >= 5; use method='monte-carlo'"
    )
