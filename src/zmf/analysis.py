"""Identity verification and analytic structure of W_1, plus Mahler measures.

Contents: the two functional equations in s, critical-line zero location by a
phase-normalized real form plus bisection, off-line zero exclusion by the
argument principle, the Jacobi-function machinery behind the critical-line
proof, the closed-form Mahler measures of k + prod(x_i + 1/x_i) for r = 2, 3
with their integral and derivative cross-routes, and rational reconstruction
of W_1(1;n).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError
from .gamma import cpow
from .hyper import SeriesSpec, pfq
from .meijer import elliptic_2k, meijer_mb, w3_g_spec
from .types import EvalResult, Method
from .quadutil import _ts_run, ts_rows
from .zmf import w1, w2, w3


def check_fe_light(k: float, s: complex) -> float:
    """Residual of W_1(k;-s-1) = (k^2-4)^(-s-1/2) W_1(k;s), |k| > 2."""
    k = abs(float(k))
    s = complex(s)
    if k <= 2.0:
        raise DomainError("light functional equation requires |k| > 2")
    lhs = w1(k, -s - 1.0).value
    rhs = cpow(k * k - 4.0, -s - 0.5) * w1(k, s).value
    return abs(lhs - rhs)


def check_fe_heavy(k: float, s: complex) -> float:
    """Residual of W_1(k;-s-1) = cot(-pi s/2) (4-k^2)^(-s-1/2) W_1(k;s),
    |k| < 2, -1 < Re(s) < 0."""
    k = abs(float(k))
    s = complex(s)
    if k >= 2.0:
        raise DomainError("heavy functional equation requires |k| < 2")
    if not -1.0 < s.real < 0.0:
        raise DomainError("heavy functional equation strip is -1 < Re(s) < 0")
    sn = cmath.sin(-0.5 * math.pi * s)
    if abs(sn) < 1e-8:
        raise PoleError("cot(-pi s/2) pole too close")
    cot = cmath.cos(-0.5 * math.pi * s) / sn
    lhs = w1(k, -s - 1.0).value
    rhs = cot * cpow(4.0 - k * k, -s - 0.5) * w1(k, s).value
    return abs(lhs - rhs)


@dataclass(frozen=True)
class ZeroRecord:
    """A zero of t -> W_1(k; -1/2 + it) located on the critical line."""

    k: float
    t: float
    residual: float
    method: str


@dataclass(frozen=True)
class BoxCount:
    """Argument-principle winding (zeros minus poles) over a rectangle."""

    box: tuple
    winding: int


def _phase_factor(k: float, t: float) -> float:
    """arg of the reflection factor X(t) with conj(W(s)) = X(t) W(s) on the
    line s = -1/2 + it; |X| = 1 there in both regimes."""
    k = abs(k)
    s = complex(-0.5, t)
    if k > 2.0:
        return -t * math.log(k * k - 4.0)
    cot = cmath.cos(-0.5 * math.pi * s) / cmath.sin(-0.5 * math.pi * s)
    x = cot * cmath.exp(-1j * t * math.log(4.0 - k * k))
    return cmath.phase(x)


def _xi(k: float, t: float, phi: float) -> complex:
    """Phase-normalized W_1 on the line; real for the correct unwrapped phi."""
    return cmath.exp(0.5j * phi) * w1(k, complex(-0.5, t)).value


def _unwrap_near(phi: float, ref: float) -> float:
    two_pi = 2.0 * math.pi
    while phi - ref > math.pi:
        phi -= two_pi
    while phi - ref < -math.pi:
        phi += two_pi
    return phi


def find_zeros_w1(k: float, t_max: float, dt: float = 0.02) -> list:
    """All zeros of W_1(k; -1/2 + it) for t in [0, t_max], by sign tracking
    of the real phase-normalized form and bisection to |Delta t| < 1e-12."""
    k = abs(float(k))
    if abs(k - 2.0) < 1e-9:
        raise DomainError("|k| = 2 boundary case is excluded from the search")
    if t_max > 50.0:
        raise DomainError("t_max capped at 50")
    ts = np.arange(0.0, t_max + dt / 2, dt)
    phis = np.unwrap([_phase_factor(k, float(t)) for t in ts])
    xis = [_xi(k, float(t), float(p)) for t, p in zip(ts, phis)]
    scale = max(abs(x) for x in xis)
    if any(abs(x.imag) > 1e-9 * (1.0 + scale) for x in xis):
        raise ConvergenceError(
            "phase normalization failed: xi has a residual imaginary part"
        )
    zeros = []
    for i in range(len(ts) - 1):
        a, b = float(ts[i]), float(ts[i + 1])
        fa, fb = xis[i].real, xis[i + 1].real
        if fa == 0.0:
            continue
        if fa * fb > 0.0:
            continue
        phi_ref = float(phis[i])
        while b - a > 1e-12:
            m = 0.5 * (a + b)
            phi_m = _unwrap_near(_phase_factor(k, m), phi_ref)
            fm = _xi(k, m, phi_m).real
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa, phi_ref = m, fm, phi_m
        t0 = 0.5 * (a + b)
        res = abs(w1(k, complex(-0.5, t0)).value)
        zeros.append(ZeroRecord(k, t0, res, "bisection-on-real-form"))
    return zeros


def _edge_phase_sum(f, za: complex, zb: complex, n: int = 64, depth: int = 0) -> float:
    """Total continuous argument change of f along the segment [za, zb]."""
    zs = za + (zb - za) * np.linspace(0.0, 1.0, n + 1)
    vals = [f(z) for z in zs]
    total = 0.0
    for i in range(n):
        dphi = cmath.phase(vals[i + 1] / vals[i])
        if abs(dphi) > 0.5 * math.pi:
            if depth >= 8:
                raise ConvergenceError(
                    "argument principle: phase step too large near the contour"
                )
            dphi = _edge_phase_sum(f, complex(zs[i]), complex(zs[i + 1]), 16, depth + 1)
        total += dphi
    return total


def count_zeros_box(k: float, box: tuple) -> BoxCount:
    """Winding number of W_1(k; .) around the rectangle box = (re_lo, re_hi,
    im_lo, im_hi), traversed counterclockwise."""
    re_lo, re_hi, im_lo, im_hi = map(float, box)
    k = abs(float(k))

    def f(z: complex) -> complex:
        return w1(k, z).value

    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
        complex(re_lo, im_lo),
    ]
    total = 0.0
    for za, zb in zip(corners[:-1], corners[1:]):
        total += _edge_phase_sum(f, za, zb)
    wind = total / (2.0 * math.pi)
    if abs(wind - round(wind)) > 0.1:
        raise ConvergenceError(
            f"argument principle: winding {wind} is not close to an integer"
        )
    return BoxCount(tuple(box), int(round(wind)))


def jacobi_phi(alpha: float, beta: float, lam: complex, t: float) -> complex:
    """The hypergeometric eigenfunction phi_lambda^(alpha,beta)(t)."""
    lam = complex(lam)
    t = float(t)
    a = (alpha + beta + 1.0 + 1j * lam) / 2.0
    b = (alpha - beta + 1.0 + 1j * lam) / 2.0
    c = alpha + 1.0
    if abs(c - round(c)) < 1e-12 and round(c) <= 0:
        raise PoleError("jacobi_phi: alpha + 1 is a non-positive integer")
    th = math.tanh(t) ** 2
    f = pfq(SeriesSpec((a, b), (c,), th)).value
    return cmath.exp(-(alpha + beta + 1.0 + 1j * lam) * math.log(math.cosh(t))) * f


def jacobi_weight(alpha: float, beta: float, t) -> np.ndarray:
    """Orthogonality weight (2 sinh t)^(2a+1) (2 cosh t)^(2b+1)."""
    t = np.asarray(t, dtype=float)
    return (2.0 * np.sinh(t)) ** (2.0 * alpha + 1.0) * (
        2.0 * np.cosh(t)
    ) ** (2.0 * beta + 1.0)


def check_beauty(
    alpha: float, beta: float, lam: complex, mu: complex, x: float
) -> float:
    """Residual of the two-eigenfunction Wronskian identity:
    int_0^x phi_lam phi_mu Delta dt = (mu^2-lam^2)^-1 Delta(x) W[phi_lam, phi_mu](x).
    Raises ConvergenceError when the integral misses its tolerance."""
    lam, mu = complex(lam), complex(mu)
    if abs(lam - mu) < 1e-12 or abs(lam + mu) < 1e-12:
        raise DomainError("check_beauty requires lambda != +-mu")
    x = float(x)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.array(
            [
                jacobi_phi(alpha, beta, lam, float(ti))
                * jacobi_phi(alpha, beta, mu, float(ti))
                for ti in t
            ]
        ) * jacobi_weight(alpha, beta, t)

    lhs, _, ok = _ts_run(integrand, 0.0, x, 1e-11, 9)
    if not ok:
        raise ConvergenceError("check_beauty: the integral missed 1e-11")

    def phi_prime(nu: complex) -> complex:
        return _fd_derivative(lambda h: jacobi_phi(alpha, beta, nu, x + h), 1e-5)

    wron = phi_prime(lam) * jacobi_phi(alpha, beta, mu, x) - jacobi_phi(
        alpha, beta, lam, x
    ) * phi_prime(mu)
    rhs = float(jacobi_weight(alpha, beta, x)) * wron / (mu * mu - lam * lam)
    return abs(lhs - rhs)


def _fd_derivative(fn, h: float = 1e-4) -> complex:
    """d fn/dx at x = 0 by Richardson-extrapolated central differences."""
    d1 = (fn(h) - fn(-h)) / (2.0 * h)
    d2 = (fn(h / 2) - fn(-h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def mahler_w2_routes(k: float) -> dict:
    """The r = 2 Mahler measure by three independent routes: the 3F2 closed
    form, the double-integral form, and d/ds of the moment function at 0.

    The double integral's inner coordinate is elementary:
    int_0^1 dx1 / sqrt(x1 (1 - a x1)) = 2 arcsin(sqrt a) / sqrt a with
    a = z x2.  The outer one runs in theta with x2 = sin^2 theta, which
    absorbs the 1/sqrt(x2 (1 - x2)) weight and leaves the smooth integrand
    4 arcsin(sqrt z sin theta) / (sqrt z sin theta) on (0, pi/2).  Raises
    ConvergenceError when the integral misses its tolerance.
    """
    k = abs(float(k))
    if k >= 4.0:
        raise DomainError("requires |k| < 4")
    if k == 0.0:
        return {"series": 0.0, "integral": 0.0, "derivative": 0.0}
    z = k * k / 16.0
    series = k / 4.0 * pfq(SeriesSpec((0.5, 0.5, 0.5), (1.0, 1.5), z)).value.real
    sqrt_z = k / 4.0

    def integrand(theta: np.ndarray) -> np.ndarray:
        # arcsin(x)/x -> 1 as x -> 0; the floor keeps x = 0 from giving 0/0.
        x = np.maximum(sqrt_z * np.sin(theta), np.finfo(float).tiny)
        return 4.0 * np.arcsin(x) / x

    v, _, ok = _ts_run(integrand, 0.0, 0.5 * math.pi, 1e-12, 9)
    if not ok:
        raise ConvergenceError("mahler_w2_routes: the integral missed 1e-12")
    integral = k / (8.0 * math.pi) * float(v)
    deriv = _fd_derivative(lambda h: w2(k, h).value).real
    return {"series": series, "integral": integral, "derivative": deriv}


def mahler_w2(k: float) -> EvalResult:
    routes = mahler_w2_routes(k)
    vals = list(routes.values())
    spread = max(vals) - min(vals)
    return EvalResult(complex(routes["series"]), max(spread, 1e-13), Method.CLOSED_FORM)


def mahler_w3_routes(k: float) -> dict:
    """The r = 3 Mahler measure: Meijer-G closed form, triple-integral form
    (inner coordinate reduced to a complete elliptic integral), and d/ds of
    the moment function at 0.

    The triple integral runs in x3 = u^2 and x2 = sin^2 theta, which absorb
    the weights 1/sqrt(x3) and 1/sqrt(x2 (1 - x2)) and leave
    4 int_0^1 du int_0^{pi/2} dtheta 2 K(1 - c u^2 sin^2 theta), c = k^2/64,
    whose only singularities are logarithmic, at u = 0 and theta = 0.  Raises
    ConvergenceError when an integral misses its tolerance.
    """
    k = abs(float(k))
    if not 0.0 < k < 8.0:
        raise DomainError("requires 0 < |k| < 8")
    g = meijer_mb(w3_g_spec(0.0, k)).value.real
    closed = g / (2.0 * math.pi**2.5)
    c64 = k * k / 64.0

    def outer(u: np.ndarray) -> np.ndarray:
        def inner(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
            return elliptic_2k(c64, u[rows, None], np.sin(theta))

        v, _, ok = ts_rows(inner, np.zeros(len(u)), 0.5 * math.pi, 1e-12)
        if not ok.all():
            raise ConvergenceError("mahler_w3_routes: an inner integral missed 1e-12")
        return v

    v, _, ok = _ts_run(outer, 0.0, 1.0, 1e-11, 9)
    if not ok:
        raise ConvergenceError("mahler_w3_routes: the outer integral missed 1e-11")
    integral = k / (4.0 * math.pi**2) * v.real
    deriv = _fd_derivative(lambda h: w3(k, h).value).real
    return {"meijer": closed, "integral": integral, "derivative": deriv}


def mahler_w3(k: float) -> EvalResult:
    routes = mahler_w3_routes(k)
    vals = list(routes.values())
    spread = max(vals) - min(vals)
    return EvalResult(complex(routes["meijer"]), max(spread, 1e-12), Method.CLOSED_FORM)


def w1_rational_decomposition(n: int) -> tuple:
    """Rationals (q0, q1) with W_1(1;n) = q0 + q1 sqrt(3)/pi, n in {1, 3, 5}."""
    if n not in (1, 3, 5):
        raise DomainError("supported for n in {1, 3, 5} only")
    import mpmath  # PSLQ is the one use of arbitrary precision in the package

    val = w1(1.0, float(n)).value.real
    basis = [mpmath.mpf(val), mpmath.mpf(1), mpmath.sqrt(3) / mpmath.pi]
    rel = mpmath.pslq(basis, tol=mpmath.mpf(10) ** -12, maxcoeff=10**8)
    if rel is None or rel[0] == 0:
        raise ConvergenceError("no integer relation found")
    a, b, c = rel
    q0 = Fraction(-b, a)
    q1 = Fraction(-c, a)
    if max(abs(q0.denominator), abs(q1.denominator)) > 10**4:
        raise ConvergenceError("reconstruction denominators implausibly large")
    resid = abs(val - float(q0) - float(q1) * math.sqrt(3.0) / math.pi)
    if resid > 1e-10:
        raise ConvergenceError(f"reconstruction residual {resid:.2e} too large")
    return q0, q1
