"""Identity verification and analytic structure of W_1, plus Mahler measures.

Contents: the two functional equations in s, critical-line zero location by
the sign of a phase-normalized real form on a grid (lane calls of w1 over
blocks of at most 256 nodes) plus the Illinois method, off-line zero
exclusion by the argument principle (the box's whole contour one lane call
of w1), the Jacobi-function machinery behind the critical-line proof, the
closed-form Mahler measures of k + prod(x_i + 1/x_i) for r = 2, 3 with their
integral and derivative cross-routes, and rational reconstruction of
W_1(1;n).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContourError, ConvergenceError, DomainError, PoleError
from .gamma import cpow
from .hyper import SeriesSpec, pfq
from .meijer import elliptic_2k, meijer_mb, w3_g_spec
from .types import EvalResult, Method
from .quadutil import _ts_run
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


def _phase(k: float, t):
    """arg X(t) for |k| != 2 at t (a scalar or an array), continuous in t and
    0 at t = 0, where conj W_1(s) = X(t) W_1(s) on the line s = -1/2 + it by
    the functional equations: X = (k^2 - 4)^(-it) for |k| > 2 and
    cot(-pi s/2) (4 - k^2)^(-it) for |k| < 2, with
    arg cot(pi/4 - i pi t/2) = 2 atan(tanh(pi t/2))."""
    if abs(k) > 2.0:
        return -t * math.log(k * k - 4.0)
    return -t * math.log(4.0 - k * k) + 2.0 * np.arctan(np.tanh(0.5 * math.pi * t))


def _xi(k: float, t) -> tuple:
    """Phase-normalized W_1 on the line at t (a scalar or an array of lanes),
    real by the functional equation, and its error: that of W_1, since the
    phase factor has modulus 1."""
    w = w1(k, -0.5 + 1j * t)
    return np.exp(0.5j * _phase(k, t)) * w.value, w.abs_err


# Grid step of the sign search, the most lanes of one w1 call on the grid
# (a call's term arrays grow with its lanes times the terms its largest t
# needs: 5.5 MB at 501 lanes to t = 10 and k = 2.9, 2.8 MB in blocks of 256,
# and 117 MB at 1501 lanes to t = 30 and k = 1.9), and the bracket width at
# which a zero is taken as the bracket's midpoint.
_DT = 0.02
_GRID_LANES = 256
_T_TOL = 1e-12


def _illinois(g, a: float, b: float, ga: float, gb: float) -> float:
    """A zero of g in [a, b], where ga = g(a) and gb = g(b) differ in sign
    (or one is 0), as the midpoint of a bracket narrower than _T_TOL.

    Each step evaluates g at the secant point of the bracket, kept _T_TOL/4
    inside it, and moves there the end whose value has the same sign.  When
    the same end stays twice, the value kept at it is halved (the Illinois
    rule, Dowell and Jarratt, BIT 11 (1971)), so both ends close in on the
    zero; the _T_TOL/4 margin lets the last step cross it."""
    side, pad = 0, 0.25 * _T_TOL
    while b - a > _T_TOL:
        m = min(max((a * gb - b * ga) / (gb - ga), a + pad), b - pad)
        gm = g(m)
        if gm == 0.0:
            return m
        if (gm < 0.0) == (ga < 0.0):
            a, ga = m, gm
            if side == 1:
                gb *= 0.5
            side = 1
        else:
            b, gb = m, gm
            if side == -1:
                ga *= 0.5
            side = -1
    return 0.5 * (a + b)


def find_zeros_w1(k: float, t_max: float) -> list:
    """All zeros of W_1(k; -1/2 + it) for t in [0, t_max], by the signs of
    the real phase-normalized form on a grid in t, evaluated as lane calls
    of w1 over blocks of at most _GRID_LANES nodes, each sign change then
    narrowed by the Illinois method to |Delta t| < 1e-12.  Raises
    ConvergenceError at the first node, in t order, whose imaginary part
    exceeds its error (the functional equation missed) or whose real part
    does not (its sign unresolved), before any later block is evaluated."""
    k = abs(float(k))
    if abs(k - 2.0) < 1e-9:
        raise DomainError("|k| = 2 boundary case is excluded from the search")
    if t_max > 50.0:
        raise DomainError("t_max capped at 50")
    ts = np.arange(0.0, t_max + _DT / 2, _DT)
    parts = []
    for block in np.array_split(ts, -(-len(ts) // _GRID_LANES)):
        xi, err = _xi(k, block)
        missed = np.abs(xi.imag) > err
        bad = np.flatnonzero(missed | (np.abs(xi.real) <= err))
        if bad.size and missed[bad[0]]:
            raise ConvergenceError(
                "W_1 misses its functional equation: xi has a residual imaginary part"
            )
        if bad.size:
            raise ConvergenceError(
                f"the sign of xi is unresolved from t = {block[bad[0]]:.4g} on the grid"
            )
        parts.append(xi.real)
    fs = np.concatenate(parts)
    zeros = []
    for i in np.flatnonzero(np.signbit(fs[:-1]) != np.signbit(fs[1:])):
        a, b = float(ts[i]), float(ts[i + 1])
        t0 = _illinois(lambda t: float(_xi(k, t)[0].real), a, b, float(fs[i]), float(fs[i + 1]))
        res = abs(w1(k, complex(-0.5, t0)).value)
        zeros.append(ZeroRecord(k, t0, res, "illinois-on-real-form"))
    return zeros


# Fractions along each edge of the argument-principle box (64 steps), and
# along a refined step (16 steps, both ends included).
_EDGE_STEPS = np.arange(64) / 64
_REFINE_STEPS = np.linspace(0.0, 1.0, 17)


def _phase_sum(f, zs: np.ndarray, depth: int = 0) -> float:
    """Total continuous argument change of f along the polyline through the
    nodes zs, from one lane call of f; a step over pi/2 is refined as its
    own lane call over _REFINE_STEPS."""
    vals = f(zs)
    if not vals.all():
        raise ContourError("argument principle: W_1 vanishes on the contour")
    dphi = np.angle(vals[1:] / vals[:-1])
    for i in np.flatnonzero(np.abs(dphi) > 0.5 * math.pi):
        if depth >= 8:
            raise ConvergenceError("argument principle: phase step too large near the contour")
        dphi[i] = _phase_sum(f, zs[i] + (zs[i + 1] - zs[i]) * _REFINE_STEPS, depth + 1)
    return float(dphi.sum())


def count_zeros_box(k: float, box: tuple) -> BoxCount:
    """Winding number of W_1(k; .) around the rectangle box = (re_lo, re_hi,
    im_lo, im_hi), traversed counterclockwise, from one lane call of w1 over
    the _EDGE_STEPS of each of its four edges."""
    re_lo, re_hi, im_lo, im_hi = map(float, box)
    k = abs(float(k))
    corners = np.array([
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
        complex(re_lo, im_lo),
    ])
    edges = corners[:-1, None] + (corners[1:] - corners[:-1])[:, None] * _EDGE_STEPS
    wind = _phase_sum(lambda z: w1(k, z).value, np.append(edges.ravel(), corners[-1])) / (2.0 * math.pi)
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

    lhs, _, ok = _ts_run(integrand, 0.0, x, 1e-11)
    if not ok:
        raise ConvergenceError("check_beauty: the integral missed 1e-11")

    def phi_prime(nu: complex) -> complex:
        return _fd_derivative(lambda hs: [jacobi_phi(alpha, beta, nu, x + h) for h in hs], 1e-5)

    wron = phi_prime(lam) * jacobi_phi(alpha, beta, mu, x) - jacobi_phi(
        alpha, beta, lam, x
    ) * phi_prime(mu)
    rhs = float(jacobi_weight(alpha, beta, x)) * wron / (mu * mu - lam * lam)
    return abs(lhs - rhs)


def _fd_derivative(fn, h: float = 1e-4) -> complex:
    """d fn/dx at x = 0 by Richardson-extrapolated central differences; fn
    maps the array of the four offsets to their values, as lanes."""
    right, left, half_right, half_left = fn(np.array([h, -h, h / 2, -h / 2]))
    d1 = (right - left) / (2.0 * h)
    d2 = (half_right - half_left) / h
    return (4.0 * d2 - d1) / 3.0


def _w2_routes(k: float) -> tuple:
    """The r = 2 Mahler measure by three independent routes: the 3F2 closed
    form, the double-integral form, and d/ds of the moment function at 0;
    returns (routes, error of the closed form).

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
        return {"series": 0.0, "integral": 0.0, "derivative": 0.0}, 0.0
    z = k * k / 16.0
    f32 = pfq(SeriesSpec((0.5, 0.5, 0.5), (1.0, 1.5), z))
    series = k / 4.0 * f32.value.real
    sqrt_z = k / 4.0

    def integrand(theta: np.ndarray) -> np.ndarray:
        # arcsin(x)/x -> 1 as x -> 0; the floor keeps x = 0 from giving 0/0.
        x = np.maximum(sqrt_z * np.sin(theta), np.finfo(float).tiny)
        return 4.0 * np.arcsin(x) / x

    v, _, ok = _ts_run(integrand, 0.0, 0.5 * math.pi, 1e-12)
    if not ok:
        raise ConvergenceError("mahler_w2_routes: the integral missed 1e-12")
    integral = k / (8.0 * math.pi) * float(v)
    # Four scalar calls: a lane call over the four offsets was no faster here
    # (its two 3F2 run ~30 terms, where pfq's Python loop is the cheaper).
    deriv = _fd_derivative(lambda hs: [w2(k, h).value for h in hs]).real
    return {"series": series, "integral": integral, "derivative": deriv}, k / 4.0 * f32.abs_err


def mahler_w2_routes(k: float) -> dict:
    """The three routes of ``_w2_routes`` by name, the closed form first."""
    return _w2_routes(k)[0]


def _with_spread(routes: dict, own_err: float) -> EvalResult:
    """The first route, with the routes' spread plus its own error."""
    vals = list(routes.values())
    return EvalResult(complex(vals[0]), max(vals) - min(vals) + own_err, Method.CLOSED_FORM)


def mahler_w2(k: float) -> EvalResult:
    return _with_spread(*_w2_routes(k))


def _w3_routes(k: float) -> tuple:
    """The r = 3 Mahler measure: Meijer-G closed form, triple-integral form
    (inner coordinate reduced to a complete elliptic integral), and d/ds of
    the moment function at 0; returns (routes, error of the closed form).

    The triple integral runs in x3 = u^2 and x2 = sin^2 theta, which absorb
    the weights 1/sqrt(x3) and 1/sqrt(x2 (1 - x2)) and leave
    int_0^1 du int_0^{pi/2} dtheta g(u^2 sin^2 theta), g(y) = 2 K(1 - c y),
    c = k^2/64.  At fixed u put x = u sin theta; since
    int_x^1 du / sqrt(u^2 - x^2) = arccosh(1/x), the double integral is
    int_0^1 g(x^2) arccosh(1/x) dx, with the weight written as
    log1p(sqrt((1 - x)(1 + x))) - log x.  Both logarithmic singularities
    (of g and of the weight) sit at x = 0, and the weight vanishes like
    sqrt(2 (1 - x)) at x = 1.  Raises ConvergenceError when the integral
    misses its tolerance.
    """
    k = abs(float(k))
    if not 0.0 < k < 8.0:
        raise DomainError("requires 0 < |k| < 8")
    g = meijer_mb(w3_g_spec(0.0, k))
    closed = g.value.real / (2.0 * math.pi**2.5)
    c64 = k * k / 64.0

    def integrand(x: np.ndarray) -> np.ndarray:
        return elliptic_2k(c64, x, 1.0) * (np.log1p(np.sqrt((1.0 - x) * (1.0 + x))) - np.log(x))

    v, _, ok = _ts_run(integrand, 0.0, 1.0, 1e-11)
    if not ok:
        raise ConvergenceError("mahler_w3_routes: the integral missed 1e-11")
    integral = k / (4.0 * math.pi**2) * v.real
    deriv = _fd_derivative(lambda hs: w3(k, hs).value).real
    return {"meijer": closed, "integral": integral, "derivative": deriv}, g.abs_err / (2.0 * math.pi**2.5)


def mahler_w3_routes(k: float) -> dict:
    """The three routes of ``_w3_routes`` by name, the closed form first."""
    return _w3_routes(k)[0]


def mahler_w3(k: float) -> EvalResult:
    return _with_spread(*_w3_routes(k))


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
