"""Probability densities of prod_i (X_i + 1/X_i) and of |k + prod_i (X_i + 1/X_i)|.

Closed forms are available for r <= 3; the G_r recursion covers larger r by
nested singularity-aware quadrature.  Conventions: p_hat_r is the density of
the signed product (support [-2^r, 2^r]); p_r(k;.) is the folded density of
the absolute value (support [0, |k| + 2^r]).  The two are linked through
p_hat_r(x) = G_r(1 - x^2 / 4^r).

G_r diverges logarithmically at y = 1 (x = 0) for r >= 2, so G is taken at y
together with its distance om = 1 - y, formed exactly by the caller: a
rounded 1 - om is off by up to an ulp of 1, which near the divergence is a
relative error of eps / om in the distance.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import ellipk, ellipkm1, hyp2f1

from .errors import ConvergenceError, DomainError, EdgeSingularityError
from .gamma import log_gamma
from .types import EvalResult, Method
from .zmf import _w_zero
from .quadutil import ts_rows

_TWO_PI = 2.0 * math.pi
_EDGE_TOL = 1e-14
# The smallest normal float.  A distance om below it has underflowed
# (|x| / 2^r < 1.5e-154) and is raised to it: G stays finite there, and the
# mass that the floor misses is below 1e-150.
_OM_FLOOR = np.finfo(float).tiny


def _g_closed(r: int, y: np.ndarray, om: np.ndarray) -> np.ndarray:
    """Closed-form G_r(y), r <= 3, on arrays y in (0, 1] with om = 1 - y.

    G_2(y) = K(y) / (2 pi^2) and G_3(y) = (K(1 - q)^2 - K(q)^2) / (4 pi^3)
    with q = (1 - sqrt y) / 2 = om / (2 (1 + sqrt y)), K the complete
    elliptic integral of parameter m.  ``ellipkm1`` takes 1 - m, so the
    divergence at y = 1 is read off om.  Below y = 1/2 the elliptic
    difference for G_3 cancels, and its 2F1 product is used instead.
    """
    if r == 1:
        return 1.0 / (_TWO_PI * np.sqrt(y))
    if r == 2:
        return ellipkm1(om) / (2.0 * math.pi**2)
    out = np.empty(np.shape(y))
    near = om <= 0.5
    q = om[near] / (2.0 * (1.0 + np.sqrt(y[near])))
    out[near] = (ellipkm1(q) ** 2 - ellipk(q) ** 2) / (4.0 * math.pi**3)
    yf = y[~near]
    out[~near] = (
        np.sqrt(yf)
        / (4.0 * math.pi**2)
        * hyp2f1(0.25, 0.25, 0.5, yf)
        * hyp2f1(0.75, 0.75, 1.5, yf)
    )
    return out


def _g_recursion_impl(r: int, y: np.ndarray, om: np.ndarray, tol: float, base: int):
    """G_r on arrays y with om = 1 - y exact, by the integral recursion
    G_r(y) = (sqrt y / 2 pi) int_0^1 G_{r-1}(y v) dv / sqrt((1 - v)(1 - y v)),
    with the closed forms at and below r = `base`; returns arrays
    (value, error, converged).

    (0, 1) is one ladder row per y, read at v = x and at its exact distance
    1 - v = rest (``quadutil``): the radicand is (1 - v) ((1 - y) + y (1 - v))
    and the inner argument y v has the exact distance om + y (1 - v) to the
    divergence at 1, so both singular ends are resolved.  The rows of all y
    run through one ladder, and the inner G_{r-1} of all nodes of a level is
    one call.  G_1(y v) is formed as 1 / (2 pi sqrt(y) sqrt(v)), so
    y v never underflows.  The inner values' errors, unconverged rows
    included, go to the ladder with their nodes (``quadutil``).
    """
    if r <= base:
        return _g_closed(r, y, om), np.zeros(len(y)), np.ones(len(y), dtype=bool)
    n = len(y)
    sy = np.sqrt(y)

    def f(rows: np.ndarray, v: np.ndarray, u: np.ndarray):
        om_in = om[rows, None] + y[rows, None] * u
        # Two roots, not one: u * om_in underflows where both are tiny.
        den = np.sqrt(u) * np.sqrt(om_in)
        if r == 2:
            return 1.0 / (_TWO_PI * sy[rows, None] * np.sqrt(v)) / den
        g, e, _ = _g_recursion_impl(r - 1, (y[rows, None] * v).ravel(), om_in.ravel(), tol / 2.0, base)
        g = g.reshape(v.shape) / den
        return (g, e.reshape(v.shape) / den) if r - 1 > base else g

    val, err, ok = ts_rows(f, np.zeros(n), 1.0, tol)
    return sy / _TWO_PI * val, sy / _TWO_PI * err, ok


def g_recursion(r: int, y: float, tol: float = 1e-10) -> EvalResult:
    """G_r(y) for 0 < y < 1 via the recursion with base case G_1.

    r > 6 is rejected (cost guard); r >= 4 bases the recursion on the
    closed-form G_3 to keep the nesting depth bounded.  Raises
    ConvergenceError when the outer integral misses tol.
    """
    if r < 2:
        raise DomainError("g_recursion requires r >= 2")
    if r > 6:
        raise DomainError("g_recursion depth capped at r = 6")
    if not 0.0 < y < 1.0:
        raise DomainError("g_recursion requires 0 < y < 1")
    base = 1 if r <= 3 else 3
    y = float(y)
    val, err, ok = _g_recursion_impl(r, np.array([y]), np.array([1.0 - y]), tol, base)
    if not ok[0]:
        raise ConvergenceError(f"G_{r}({y}): the recursion missed tol {tol:.1e}")
    return EvalResult(complex(val[0]), float(err[0]), Method.QUADRATURE)


# Pole expansion of G_4 at y = 1, from the Laurent data of the Mellin
# transform at its order-4 pole s = -1:
# G_4(1 - u) = sum_j a_j log(1/u)^j / j! + O(u log^3 u).  Coefficients from
# the Taylor series of (Gamma(1+e) Gamma(1/2) / (2 pi Gamma(1/2+e)))^4
# (40-digit arithmetic).  Below _H4_CROSS it matches the recursion to 4e-16
# relative; at u = 1e-6 it is 2.4e-8 off.
_H4_SMALL = (
    0.00099371738860178228,
    0.0056429282450903163,
    0.0035579183277564387,
    0.00064162389091777095,
)
_H4_CROSS = 1e-14
# Tolerance of the r >= 4 recursion behind the densities.
_DENSITY_TOL = 1e-12


def _p_hat_parts(r: int, at: np.ndarray, de: np.ndarray):
    """p_hat_r at |x| = at, given also the distance de = 2^r - at to the
    edge; with both exact, neither singular point is formed by cancellation.
    Takes and returns 1-D arrays (value, error, converged): closed forms for
    r <= 3, the recursion on G_3 above, and for r = 4 the pole expansion
    near x = 0."""
    edge = 2.0**r
    y = de * (edge + at) / (edge * edge)
    om = np.maximum((at / edge) ** 2, _OM_FLOOR)
    if r <= 3:
        return _g_closed(r, y, om), np.zeros(len(y)), np.ones(len(y), dtype=bool)
    small = om < _H4_CROSS if r == 4 else np.zeros(len(y), dtype=bool)
    val, err, ok = np.empty(len(y)), np.zeros(len(y)), np.ones(len(y), dtype=bool)
    el = -np.log(om[small])
    val[small] = sum(a * el**j / math.factorial(j) for j, a in enumerate(_H4_SMALL))
    big = ~small
    val[big], err[big], ok[big] = _g_recursion_impl(r, y[big], om[big], _DENSITY_TOL, 3)
    return val, err, ok


def _p_hat_arr(r: int, x: np.ndarray) -> np.ndarray:
    """Vectorized p_hat_r, zero outside the support, without singular-point
    policing; raises ConvergenceError where the r >= 4 recursion fails."""
    ax = np.abs(np.asarray(x, dtype=float))
    edge = 2.0**r
    out = np.zeros_like(ax)
    inside = ax < edge
    val, _, ok = _p_hat_parts(r, ax[inside], edge - ax[inside])
    if not ok.all():
        raise ConvergenceError(f"p_hat_{r}: the density recursion did not converge")
    out[inside] = val
    return out


def _check_edge(r: int, z: float) -> None:
    """Raise at the singular abscissae of p_hat_r: |z| = 2 for r = 1, z = 0
    for r >= 2."""
    if r == 1 and abs(abs(z) - 2.0) <= _EDGE_TOL:
        raise EdgeSingularityError("p_hat_1 diverges at |x| = 2")
    if r >= 2 and abs(z) <= _EDGE_TOL:
        raise EdgeSingularityError(f"p_hat_{r} diverges at x = 0")


def p_hat(r: int, x: float) -> float:
    """Closed-form density of the signed product, r in {1, 2, 3}.

    Raises EdgeSingularityError at the exact singular abscissae (|x| = 2 for
    r = 1; x = 0 for r = 2, 3); returns 0 outside the support.
    """
    if r not in (1, 2, 3):
        raise DomainError("p_hat supports r in {1, 2, 3}")
    x = float(x)
    _check_edge(r, x)
    return float(_p_hat_arr(r, np.array([x]))[0])


def _p_r_arr(r: int, k: float, x: np.ndarray) -> np.ndarray:
    """Vectorized folded density p_r(k; x)."""
    k = abs(float(k))
    x = np.asarray(x, dtype=float)
    edge = 2.0**r
    out = _p_hat_arr(r, x - k)
    out = np.where((x >= 0.0) & (x < edge + k), out, 0.0)
    if k < edge:
        fold = np.where((x >= 0.0) & (x < edge - k), _p_hat_arr(r, x + k), 0.0)
        out = out + fold
    return out


def p_r(r: int, k: float, x: float) -> float:
    """Folded density of |k + prod(X_i + 1/X_i)| at a point.

    Closed forms for r <= 3, the recursion on G_3 for 4 <= r <= 6.  Raises
    EdgeSingularityError at the singular abscissae of either branch.
    """
    if not 1 <= r <= 6:
        raise DomainError("p_r supports 1 <= r <= 6")
    k = abs(float(k))
    x = float(x)
    edge = 2.0**r
    if x < 0.0 or x >= edge + k:
        return 0.0
    if abs(x - k) < edge:
        _check_edge(r, x - k)
    if k < edge and x < edge - k:
        _check_edge(r, x + k)
    return float(_p_r_arr(r, k, np.array([x]))[0])


def moment(r: int, v: complex, two_sided: bool) -> complex:
    """v-th moment of the signed product density, Re(v) > -1.

    One-sided integrates over (0, 2^r): half the absolute moment
    W_r(0; v) (``zmf._w_zero``, which raises DomainError at Re(v) <= -1).
    The two-sided variant carries the (1 + e^{i pi v}) phase factor and
    vanishes at odd integers.
    """
    v = complex(v)
    one_sided = 0.5 * _w_zero(r, v).value
    if not two_sided:
        return one_sided
    return (1.0 + cmath.exp(1j * math.pi * v)) * one_sided


_MOMENT_TOL = 1e-12


def moment_quadrature(r: int, v: int) -> EvalResult:
    """Two-sided integer moment int x^v p_hat_r(x) dx by direct quadrature.

    Substituting y = 1 - x^2/4^r turns the moment into
    2^r 4^(rn) int_0^1 (1-y)^(n-1/2) G_r(y) dy with v = 2n, which puts the
    x = 2^r edge singularity at y = 0 and the x = 0 one at y = 1; one ladder
    row reads each node's distance 1 - y exactly (``quadutil``).  Raises
    ConvergenceError when it misses tol.
    """
    if r not in (1, 2, 3):
        raise DomainError("moment_quadrature supports r in {1, 2, 3}")
    if not (isinstance(v, int) and v >= 0):
        raise DomainError("moment_quadrature requires an integer v >= 0")
    if v % 2 == 1:
        # Odd moments vanish by the x -> -x symmetry of p_hat_r.
        return EvalResult(0.0 + 0.0j, 0.0, Method.QUADRATURE)
    n = v // 2
    val, err, ok = ts_rows(lambda rows, y, om: om ** (n - 0.5) * _g_closed(r, y, om), 0.0, 1.0, _MOMENT_TOL)
    if not ok[0]:
        raise ConvergenceError(f"moment_quadrature missed tol {_MOMENT_TOL:.1e}")
    scale = 2.0**r * 4.0 ** (r * n)
    return EvalResult(complex(scale * val[0].real), scale * err[0], Method.QUADRATURE)


def mellin_H(r: int, s: complex) -> complex:
    """Mellin transform int_0^1 y^s H_r(y) dy with H_r(y) = G_r(1-y)."""
    s = complex(s)
    if s.real <= -1.0:
        raise DomainError("mellin_H requires Re(s) > -1")
    factor = cmath.exp(
        log_gamma(0.5) + log_gamma(s + 1.0) - log_gamma(s + 1.5)
    ) / _TWO_PI
    return factor**r
