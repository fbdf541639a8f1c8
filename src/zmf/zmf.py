"""Closed-form evaluators for W_r(k;s), the mean of |k + prod (x_i + 1/x_i)|^s
over the unit torus.

Coverage map (dispatcher `w`):

    |k| > 2^r   any r, any s        hypergeometric series (w_light)
    |k| = 2^r   any r, Re s > -r/2  unit-argument series (w_light)
    |k| < 2^r   r = 1               three-case closed form (w1)
                r = 2               two-term 3F2 combination (w2 / w2_odd)
                r = 3               three-term formula with a Meijer G (w3)
                r = 4, real s > 0   continuation formula (w_real_s)
                k = 0, any r        product of one-factor moments

The heavy-regime formulas all analytically continue the same hypergeometric
family past its z = 1 singularity; the continuation half-plane is fixed once
by the calibration constant CONTINUATION_BRANCH below (validated against
direct torus quadrature in the test suite).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, NearDegenerateParameterError, PoleError
from .gamma import cpow, log_gamma
from .hyper import (
    ContinuationBranch,
    SeriesSpec,
    family_spec,
    pfq,
    pfq_continued,
)
from .meijer import meijer_mb, w2_g_spec, w3_g_spec
from .types import EvalResult, Method, ZmfPoint

# Frozen calibration: continuing the family series to w = 4^r/k^2 > 1 through
# the lower half w-plane reproduces the torus integral (the boundary value
# F_{r,s}(|k|) is the limit from the upper half z-plane, and z -> 4^r/z^2
# reverses the half-plane).  See the calibration test before changing.
CONTINUATION_BRANCH = ContinuationBranch.FROM_BELOW

_ODD_TOL = 1e-6
_BOUNDARY_TOL = 1e-12
_ODD_LIMIT_DELTAS = (1e-2, 5e-3, 2.5e-3)


def _near_odd_positive(s: complex, tol: float = _ODD_TOL):
    """Return the odd positive integer s is within tol of, else None."""
    s = complex(s)
    if abs(s.imag) > tol:
        return None
    n = round(s.real)
    if n >= 1 and n % 2 == 1 and abs(s.real - n) <= tol:
        return n
    return None


def _near_negative_integer(s: complex, tol: float = _BOUNDARY_TOL):
    s = complex(s)
    if abs(s.imag) > tol:
        return None
    n = round(s.real)
    if n <= -1 and abs(s.real - n) <= tol:
        return n
    return None


def _tan_half_pi(s: complex) -> complex:
    return cmath.tan(0.5 * math.pi * complex(s))


def w1(k: float, s: complex) -> EvalResult:
    """W_1(k;s) by the three-case closed form (|k| vs 2)."""
    k = abs(float(k))
    s = complex(s)
    if k > 2.0 + _BOUNDARY_TOL:
        f = pfq(SeriesSpec((-s / 2, (1 - s) / 2), (1.0,), 4.0 / (k * k)))
        val = cpow(k, s) * f.value
        return EvalResult(val, abs(cpow(k, s)) * f.abs_err, Method.CLOSED_FORM)
    if abs(k - 2.0) <= _BOUNDARY_TOL:
        if s.real <= -0.5:
            raise DomainError("W_1 at |k| = 2 requires Re(s) > -1/2")
        val = cmath.exp(
            s * math.log(2.0)
            + log_gamma(0.5 + s)
            - log_gamma(1.0 + s / 2)
            - log_gamma((1.0 + s) / 2)
        )
        return EvalResult(val, 1e-14 * (1.0 + abs(val)), Method.CLOSED_FORM)
    # |k| < 2: prefactor 4^s Gamma((1+s)/2)^2 / (pi Gamma(1+s)) in log space.
    n = _near_negative_integer(s)
    if n is not None:
        if n % 2 != 0:
            # Double pole of Gamma((1+s)/2)^2 against a single pole of
            # Gamma(1+s): a genuine pole of W_1.
            raise PoleError(f"W_1(k;s) has a pole at s = {n} for |k| < 2")
        # Even negative integer: only the denominator Gamma(1+s) is singular,
        # so the prefactor (and W_1) vanishes.
        return EvalResult(0.0 + 0.0j, 1e-16, Method.CLOSED_FORM)
    f = pfq(SeriesSpec((-s / 2, -s / 2), (0.5,), k * k / 4.0))
    pref = cmath.exp(
        s * math.log(4.0)
        + 2.0 * log_gamma((1.0 + s) / 2)
        - math.log(math.pi)
        - log_gamma(1.0 + s)
    )
    return EvalResult(pref * f.value, abs(pref) * f.abs_err + 1e-15 * abs(pref * f.value), Method.CLOSED_FORM)


def w_light(r: int, k: float, s: complex) -> EvalResult:
    """W_r(k;s) for |k| >= 2^r via the hypergeometric series (unit-argument
    acceleration exactly on the boundary)."""
    k = abs(float(k))
    s = complex(s)
    edge = 2.0**r
    if k < edge - _BOUNDARY_TOL:
        raise DomainError("w_light requires |k| >= 2^r")
    if abs(k - edge) <= _BOUNDARY_TOL:
        if s.real <= -r / 2.0:
            raise DomainError("boundary |k| = 2^r requires Re(s) > -r/2")
        f = pfq(family_spec(r, s, 1.0))
        scale = cmath.exp(r * s * math.log(2.0))
    else:
        f = pfq(family_spec(r, s, 4.0**r / (k * k)))
        scale = cpow(k, s)
    return EvalResult(scale * f.value, abs(scale) * f.abs_err, Method.CLOSED_FORM)


def w_real_s(r: int, k: float, s: float) -> EvalResult:
    """W_r(k;s) for real s > 0 (s not odd) and 0 < |k| < 2^r via the
    continuation of the family series to w = 4^r/k^2 > 1."""
    k = abs(float(k))
    s = float(s)
    if not 1 <= r <= 4:
        raise DomainError("w_real_s supports 1 <= r <= 4")
    if not 0.0 < k < 2.0**r:
        raise DomainError("w_real_s requires 0 < |k| < 2^r")
    if s <= 0.0:
        raise DomainError("w_real_s requires real s > 0")
    if _near_odd_positive(s) is not None:
        raise NearDegenerateParameterError(
            "s within 1e-6 of an odd integer; use the limit formulas"
        )
    f = pfq_continued(family_spec(r, s, 4.0**r / (k * k)), CONTINUATION_BRANCH)
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
    base = (
        s * math.log(2.0)
        + log_gamma((s + 1.0) / 2.0)
        - 0.5 * math.log(math.pi)
        - log_gamma(1.0 + s / 2.0)
    )
    val = cmath.exp(r * base)
    return EvalResult(val, 1e-14 * (1.0 + abs(val)), Method.CLOSED_FORM)


def w2(k: float, s: complex) -> EvalResult:
    """W_2(k;s) for |k| < 4, Re(s) > -1, s away from the odd integers."""
    k = abs(float(k))
    s = complex(s)
    if k >= 4.0:
        raise DomainError("w2 requires |k| < 4")
    if s.real <= -1.0:
        raise DomainError("w2 requires Re(s) > -1")
    if _near_odd_positive(s) is not None:
        raise NearDegenerateParameterError(
            "s within 1e-6 of an odd positive integer; dispatch to w2_odd"
        )
    z = k * k / 16.0
    f2 = pfq(SeriesSpec((-s / 2, -s / 2, -s / 2), ((1 - s) / 2, 0.5), z))
    pref2 = cmath.exp(2.0 * log_gamma(s + 1.0) - 4.0 * log_gamma(s / 2 + 1.0))
    total = pref2 * f2.value
    err = abs(pref2) * f2.abs_err
    if k > 0.0:
        f1 = pfq(SeriesSpec((0.5, 0.5, 0.5), (1 + s / 2, 1.5 + s / 2), z))
        pref1 = (
            _tan_half_pi(s) / (2.0 * math.pi * (s + 1.0)) * cpow(k, 1.0 + s)
        )
        total += pref1 * f1.value
        err += abs(pref1) * f1.abs_err
    return EvalResult(total, err + 1e-14 * (1.0 + abs(total)), Method.CLOSED_FORM)


def _neville_to_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0; returns (value, err)."""
    n = len(xs)
    tab = list(ys)
    prev_top = tab[0]
    err = float("inf")
    for m in range(1, n):
        for i in range(n - m):
            tab[i] = tab[i + 1] + (tab[i] - tab[i + 1]) * (0.0 - xs[i + m]) / (
                xs[i] - xs[i + m]
            )
        err = abs(tab[0] - prev_top)
        prev_top = tab[0]
    return tab[0], err


def _odd_limit(fn, n: int) -> EvalResult:
    """lim_{delta->0} fn(n + i delta), Richardson/Neville extrapolated."""
    xs = list(_ODD_LIMIT_DELTAS)
    ys = [fn(complex(n, d)).value for d in xs]
    val, err = _neville_to_zero(xs, ys)
    return EvalResult(complex(val.real), max(err, 1e-12), Method.LIMIT)


def w2_odd(k: float, n: int) -> EvalResult:
    """W_2(k;n) at odd positive n, |k| < 4.

    Primary route: the i*delta limit of the generic formula, extrapolated to
    delta = 0.  Secondary route: the explicit Meijer-G expression.  The two
    must agree; their discrepancy is folded into the error estimate.
    """
    k = abs(float(k))
    if not (isinstance(n, int) and n >= 1 and n % 2 == 1):
        raise DomainError("w2_odd requires an odd positive integer n")
    if k >= 4.0:
        raise DomainError("w2_odd requires |k| < 4")
    if k == 0.0:
        return _w_zero(2, n)
    lim = _odd_limit(lambda s: w2(k, s), n)
    g = meijer_mb(w2_g_spec(n, k))
    pref = (-1.0) ** ((n + 1) // 2) * 2.0**n * math.factorial(n) / math.pi**3
    alt = pref * g.value
    gap = abs(lim.value - alt)
    if gap > max(1e-6, 100.0 * (lim.abs_err + abs(pref) * g.abs_err)):
        raise NearDegenerateParameterError(
            f"w2_odd: limit and Meijer routes disagree by {gap:.2e}"
        )
    # The cross-route gap is a far sharper error gauge than the Neville
    # increment, which only bounds the quadratic term of the expansion.
    return EvalResult(
        lim.value, max(gap, abs(pref) * g.abs_err, 1e-12), Method.LIMIT
    )


def w3(k: float, s: complex) -> EvalResult:
    """W_3(k;s) for |k| < 8, Re(s) > -1, s away from odd positive integers.

    The Meijer-G term is evaluated by its Mellin-Barnes contour;
    meijer_triple_integral is the independent check of that route.
    """
    k = abs(float(k))
    s = complex(s)
    if k >= 8.0:
        raise DomainError("w3 requires |k| < 8")
    if s.real <= -1.0:
        raise DomainError("w3 requires Re(s) > -1")
    if _near_odd_positive(s) is not None:
        raise NearDegenerateParameterError(
            "s within 1e-6 of an odd positive integer; use the odd-limit route"
        )
    z = k * k / 64.0
    f1 = pfq(
        SeriesSpec((-s / 2,) * 4, ((1 - s) / 2, (1 - s) / 2, 0.5), z)
    )
    pref1 = cmath.exp(3.0 * log_gamma(1.0 + s) - 6.0 * log_gamma(1.0 + s / 2))
    total = pref1 * f1.value
    err = abs(pref1) * f1.abs_err
    if k > 0.0:
        t = _tan_half_pi(s)
        f2 = pfq(SeriesSpec((0.5,) * 4, (1.0, 1 + s / 2, (3 + s) / 2), z))
        pref2 = -t * t / (4.0 * math.pi * (s + 1.0)) * cpow(k, 1.0 + s)
        total += pref2 * f2.value
        err += abs(pref2) * f2.abs_err
        g = meijer_mb(w3_g_spec(s, k))
        pref3 = (
            cmath.exp(s * math.log(4.0) + log_gamma(1.0 + s)) * t / math.pi**3.5
        )
        total += pref3 * g.value
        err += abs(pref3) * g.abs_err
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
    if abs(z) > edge + _BOUNDARY_TOL:
        f = pfq(family_spec(r, s, 4.0**r / (z * z)))
        scale = cpow(z, s)
        return EvalResult(scale * f.value, abs(scale) * f.abs_err, Method.CLOSED_FORM)
    if abs(z.imag) > _BOUNDARY_TOL:
        raise DomainError(
            "F_{r,s} inside the disk |z| <= 2^r is only supported for real z"
        )
    x = z.real
    if abs(abs(x) - edge) <= _BOUNDARY_TOL:
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
        f = pfq_continued(family_spec(r, s, 4.0**r / (x * x)), branch)
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
        ref = cmath.exp(
            log_gamma(s + 1.0) - log_gamma(s - j + 1.0)
        ) * _w_zero(r, s - j).value

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
    if k >= edge - _BOUNDARY_TOL:
        return w_light(r, k, s)
    if k == 0.0:
        return _w_zero(r, s)
    if r == 1:
        return w1(k, s)
    n = _near_odd_positive(s)
    if r == 2:
        if n is not None:
            return w2_odd(k, n)
        return w2(k, s)
    if r == 3:
        if n is not None:
            lim = _odd_limit(lambda sv: w3(k, sv), n)
            return lim
        return w3(k, s)
    if r == 4:
        if abs(s.imag) <= _BOUNDARY_TOL and s.real > 0:
            return w_real_s(r, k, s.real)
        raise DomainError(
            "heavy regime at r = 4 is supported for real s > 0 only"
        )
    raise DomainError(
        "no closed form for the heavy regime at r >= 5; use method='monte-carlo'"
    )
