"""The two Meijer G-functions needed for W_2 at odd integers and for W_3:
G^{2,3}_{3,3} and G^{2,4}_{4,4}, by the trapezoid rule on the Mellin-Barnes
line, plus the Nesterenko triple-integral representation of the W_3 instance
as an independent second route.

Mellin-Barnes convention:

    G^{m,n}_{p,q}(a; b; z) = (1/2 pi i) int_C
        [prod_{j<=m} Gamma(b_j - t) prod_{i<=n} Gamma(1 - a_i + t)]
      / [prod_{j>m} Gamma(1 - b_j + t) prod_{i>n} Gamma(a_i - t)] z^t dt,

with C a vertical line separating the poles of Gamma(b_j - t) (right family)
from those of Gamma(1 - a_i + t) (left family); the line is read off the
parameters, between max Re a_i - 1 and min Re b_j.  Only w2_odd, the
odd-integer W_2 formula, meets families that no straight line separates
(half-integer left poles interleave with integer right poles); there the
contour is indented: a line left of the right family plus explicit residue
corrections at the left poles it strands on the wrong side.

On the line the integrand is analytic in a strip as wide as the distance to
the nearest pole and decays like exp(-2 pi |Im t|), so the plain trapezoid
rule with step h converges exponentially in 1/h (Trefethen and Weideman,
SIAM Rev. 56 (2014) 385) and is summed as one numpy array of scipy log-gamma
values.  Halving h squares the relative error, so the error estimate is the
squared relative difference between the sums at h and 2h, times the value,
plus a rounding floor of 32 eps h sum|f_j| and the cut tails beyond |Im t| = T,
(|f(c+iT)| + |f(c-iT)|) / (2 pi); the sum is divided by 2 pi like the value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ellipkm1, loggamma

from .errors import ContourError, ConvergenceError, DomainError
from .gamma import log_gamma
from .types import EvalResult, Method
from .quadutil import ts_rows

_ALLOWED_ORDERS = {(2, 4, 4, 4), (2, 3, 3, 3)}
_POLE_RANGE = 200
_PINCH_TOL = 1e-8
_RES_RADIUS = 0.2
_RES_NODES = 128
# Trapezoid step on the Mellin-Barnes line.  The rule's error falls like
# exp(-2 pi d / h) for poles a distance d from the line; the supported blocks
# keep d >= 0.2, which puts it near 1e-22.
_MB_STEP = 0.025
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class MeijerSpec:
    """Parameter block (a; b; orders; argument) of one G-function instance."""

    a_params: tuple = field()
    b_params: tuple = field()
    orders: tuple = field()
    argument: float = field()

    def __post_init__(self):
        m, n, p, q = self.orders
        if self.orders not in _ALLOWED_ORDERS:
            raise DomainError(f"unsupported orders {self.orders}")
        if len(self.a_params) != p or len(self.b_params) != q:
            raise DomainError("parameter row lengths must match (p, q)")
        if not 0.0 < self.argument < 1.0:
            raise DomainError("argument must lie in (0, 1)")
        object.__setattr__(self, "a_params", tuple(complex(a) for a in self.a_params))
        object.__setattr__(self, "b_params", tuple(complex(b) for b in self.b_params))


def w3_g_spec(s: complex, k: float) -> MeijerSpec:
    """The G^{2,4}_{4,4} block appearing in the W_3 closed form."""
    s = complex(s)
    a = ((2 + s) / 2,) * 4
    b = ((1 + s) / 2, (1 + s) / 2, 0.0, 0.5)
    return MeijerSpec(a, b, (2, 4, 4, 4), k * k / 64.0)


def w2_g_spec(s: complex, k: float) -> MeijerSpec:
    """The G^{2,3}_{3,3} block appearing in the odd-integer W_2 formula."""
    s = complex(s)
    a = (1 + s / 2,) * 3
    b = (0.0, (1 + s) / 2, 0.5)
    return MeijerSpec(a, b, (2, 3, 3, 3), k * k / 16.0)


def _pole_families(spec: MeijerSpec):
    """Distinct pole locations (t-plane) of the two Gamma families as complex
    arrays: left from Gamma(1 - a_i + t), right from Gamma(b_j - t)."""
    m, n, _, _ = spec.orders
    ell = np.arange(_POLE_RANGE)
    left = (np.array(spec.a_params[:n])[:, None] - 1.0 - ell).ravel()
    right = (np.array(spec.b_params[:m])[:, None] + ell).ravel()
    return _distinct(left), _distinct(right)


def _distinct(t: np.ndarray) -> np.ndarray:
    """t with points that agree to 1e-12 merged: repeated parameters give
    one higher-order pole, which needs one residue circle, not several."""
    keys = np.round(np.column_stack((t.real, t.imag)) * 1e12)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return t[np.sort(idx)]


def _mb_integrand(spec: MeijerSpec):
    """The Mellin-Barnes integrand for an array of t.  Only exp of the summed
    log-gammas is used, so the branch loggamma picks does not matter."""
    m, n, _, q = spec.orders
    log_z = math.log(spec.argument)

    def f(t: np.ndarray) -> np.ndarray:
        acc = t * log_z
        for b in spec.b_params[:m]:
            acc += loggamma(b - t)
        for a in spec.a_params[:n]:
            acc += loggamma(1.0 - a + t)
        for b in spec.b_params[m:q]:
            acc -= loggamma(1.0 - b + t)
        return np.exp(acc)

    return f


def _residue(f, pole: complex) -> complex:
    """Residue of f at an isolated pole by trapezoidal circle quadrature."""
    w = _RES_RADIUS * np.exp(2j * math.pi * np.arange(_RES_NODES) / _RES_NODES)
    return complex(np.sum(f(pole + w) * w)) / _RES_NODES


def meijer_mb(spec: MeijerSpec, tol: float = 1e-11) -> EvalResult:
    """Evaluate the G-function by its defining Mellin-Barnes integral, summed
    by the trapezoid rule on the line Re t = c (see the module docstring)."""
    m, n, _, _ = spec.orders
    # Every left pole has Re <= lmax and every right pole Re >= rmin, so a
    # positive gap rmin - lmax separates the families and rules out a pinch.
    lmax = max(a.real for a in spec.a_params[:n]) - 1.0
    rmin = min(b.real for b in spec.b_params[:m])
    residue_poles = ()
    if rmin - lmax > _PINCH_TOL:
        c = 0.5 * (lmax + rmin)
    else:
        # No separating line: indent.  Put the line just left of the right
        # family and correct with residues at the stranded left poles.
        left, right = _pole_families(spec)
        min_gap = float(np.min(np.abs(left[:, None] - right[None, :])))
        if min_gap < _PINCH_TOL:
            raise ContourError(
                f"pole families coalesce (gap {min_gap:.2e}); contour is pinched"
            )
        c = rmin - 0.25
        re_all = np.concatenate((left.real, right.real))
        for shift in (0.0, -0.1, 0.1, -0.2):
            if np.min(np.abs(re_all - (c + shift))) > 0.2:
                c += shift
                break
        residue_poles = left[left.real > c]
        for t in residue_poles:
            if np.min(np.abs(t - right)) < 2.5 * _RES_RADIUS:
                raise ContourError("indentation circle would touch a right pole")

    f = _mb_integrand(spec)

    def edges(T: float) -> np.ndarray:
        return np.abs(f(np.array([complex(c, T), complex(c, -T)])))

    # Truncation height: integrand decays like exp(-c_decay |Im t|) with
    # c_decay >= 2 pi for both supported orders; extend until the boundary
    # value is negligible.
    T = 8.0
    while np.max(edges(T)) > tol * 1e-2 and T < 80:
        T += 4.0

    # n_half is even (T is a multiple of 4), so the even-indexed nodes are
    # the grid of step 2h.
    n_half = round(T / _MB_STEP)
    vals = f(c + 1j * _MB_STEP * np.arange(-n_half, n_half + 1))
    fine = _MB_STEP * np.sum(vals)
    diff = abs(fine - 2.0 * _MB_STEP * np.sum(vals[::2]))
    # Error estimate as in the module docstring: (diff / |fine|)^2 |fine|.
    err = (
        diff * diff / max(abs(fine), _TINY)
        + 32.0 * _EPS * _MB_STEP * float(np.sum(np.abs(vals)))
        + float(np.sum(edges(T))) / (2.0 * math.pi)
    )
    total = complex(fine) / (2.0 * math.pi)
    err /= 2.0 * math.pi
    for t in residue_poles:
        total += _residue(f, t)
        err += 1e-14 * abs(total)
    return EvalResult(total, err, Method.CONTOUR)


def elliptic_2k(c: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2 K(m) at m = 1 - p, p = c (a b)^2: the inner elliptic integral of the
    W_3 triple-integral representation, for arrays a and b that broadcast
    against each other."""
    # ellipkm1 takes 1 - m directly; forming m = 1 - tiny first would cancel
    # to m = 1 and overflow.
    p = c * (a * b) ** 2
    with np.errstate(divide="ignore"):
        kk = 2.0 * ellipkm1(p)
    # Where p underflows, 2 K(1 - p) -> log(16 / p), with log p assembled
    # factor by factor; squaring first would underflow too.
    under = p == 0.0
    if np.any(under):
        a, b = np.broadcast_arrays(a, b)
        kk[under] = math.log(16.0 / c) - 2.0 * (np.log(a[under]) + np.log(b[under]))
    return kk


def _halves(up: np.ndarray, t: np.ndarray) -> tuple:
    """(x, 1 - x) at the local node t of the lower half of (0, 1), x = t, or
    of the upper half, 1 - x = t, so the distance to 1 is exact there."""
    return np.where(up, 1.0 - t, t), np.where(up, t, 1.0 - t)


def meijer_triple_integral(s: complex, k: float, tol: float = 1e-9) -> EvalResult:
    """The W_3 G-function instance via its triple-integral representation.

    The innermost coordinate is an elliptic integral in disguise:
    int_0^1 dx1 / sqrt(x1 (1-x1) (1 - m x1)) = 2 K(m) with parameter
    m = 1 - (k^2/64) x2 x3, so only a 2-d singular integral remains, with
    weights (1 - x2)^(s/2) / sqrt(x2) and (1 - x3)^((s-1)/2) / sqrt(x3).
    Both coordinates are split at 1/2 and each upper half is integrated in
    its distance 1 - x, so every singular end sits at the origin of a half.
    The x2 halves for all outer x3 nodes of a level run as rows of one
    ladder.  Raises ConvergenceError when a row misses its tolerance.
    """
    s = complex(s)
    k = float(k)
    if s.real <= -1.0:
        raise DomainError("requires Re(s) > -1")
    if not 0.0 < abs(k) < 8.0:
        raise DomainError("requires 0 < |k| < 8")
    c64 = k * k / 64.0

    def outer(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        x3, om3 = (z.ravel() for z in _halves((rows == 1)[:, None], t))
        sq3 = np.sqrt(x3)
        m = len(x3)

        def inner(irows: np.ndarray, t2: np.ndarray) -> np.ndarray:
            x2, om2 = _halves((irows >= m)[:, None], t2)
            sq2 = np.sqrt(x2)
            w2 = np.exp(0.5 * s * np.log(om2)) / sq2
            return w2 * elliptic_2k(c64, sq2, sq3[irows % m, None])

        v, _, ok = ts_rows(inner, np.zeros(2 * m), 0.5, tol / 20.0)
        if not ok.all():
            raise ConvergenceError("meijer_triple_integral: an inner integral missed tol")
        w3 = np.exp(0.5 * (s - 1.0) * np.log(om3)) / sq3
        return (w3 * (v[:m] + v[m:])).reshape(t.shape)

    vals, errs, ok = ts_rows(outer, np.zeros(2), 0.5, tol / 2.0)
    if not ok.all():
        raise ConvergenceError("meijer_triple_integral: the outer integral missed tol")
    val = complex(np.sum(vals))
    # Inner integrals carry relative error ~tol/10 each; the outer successive
    # difference sees them as integrand noise, so fold them in proportionally.
    err = float(np.sum(errs)) + 0.1 * tol * (1.0 + abs(val))
    pref = (
        math.sqrt(math.pi)
        * cmath.exp((1.0 + s) * math.log(abs(k)))
        / (cmath.exp(log_gamma(1.0 + s)) * cmath.exp((3.0 + 2.0 * s) * math.log(2.0)))
    )
    return EvalResult(pref * val, abs(pref) * err, Method.QUADRATURE)
