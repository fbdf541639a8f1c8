"""The two Meijer G-functions needed for W_2 at odd integers and for W_3:
G^{2,3}_{3,3} and G^{2,4}_{4,4}, by their right-pole residue series, plus the
Nesterenko triple-integral representation of the W_3 instance as an
independent second route.

Mellin-Barnes convention:

    G^{m,n}_{p,q}(a; b; z) = (1/2 pi i) int_C
        [prod_{j<=m} Gamma(b_j - t) prod_{i<=n} Gamma(1 - a_i + t)]
      / [prod_{j>m} Gamma(1 - b_j + t) prod_{i>n} Gamma(a_i - t)] z^t dt,

with C separating the poles of Gamma(b_j - t) (right family) from those of
Gamma(1 - a_i + t) (left family).  Both supported orders have p = q and
0 < z < 1, so C closes to the right: G is minus the sum of the residues at
t = b_j + l (Slater, Generalized Hypergeometric Functions (1966), ch. 5;
Luke, The Special Functions and Their Approximations I (1969), sec. 5.2).
For b_1 - b_2 not an integer these are two Slater series, each a Gamma
prefactor times a pFq in +z.  For b_1 - b_2 = +-g, an integer, the poles
b_lo + j, j < g, are simple (a finite sum) and the rest double, each adding
-(-1)^g z^(b_lo+l) c_l (log z + d_l) to G, with c_l a pFq term and d_l its
derivative in a common shift of the parameters (hyper.pfq_shift_derivative).
W_3's block has b_1 = b_2, g = 0; W_2's at odd n has g = (1 + n)/2.

Next to z = 1 both series sum their tails by hyper's near-unit fit.  In the
W_2 and W_3 blocks log z enters as log z times a bounded series and through
tail cusps |log z|^(1 + alpha), alpha > 1/2, so the log of the rounded z
serves (log z from the exact distance k - 2^r changed no value by 1e-36
relative at k = 7.9999 to 8 - 1e-13).  The error is the series' own (tail
majorant, fit gap, rounding) plus gamma_ratio's per-factor error of each
prefactor.  A right pole on a left pole (b_j - a_i + 1 a non-positive
integer) pinches C: ContourError.  meijer_mb keeps its name for the
Mellin-Barnes integral it sums; the perfbench tracer hooks it by that name.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ellipkm1

from .errors import ContourError, ConvergenceError, DomainError
from .gamma import _POLE_TOL, log_gamma, nearest_int
from .hyper import SeriesSpec, gamma_ratio, pfq, pfq_shift_derivative
from .quadutil import ts_rows
from .types import ROUNDING, EvalResult, Method

_ALLOWED_ORDERS = {(2, 4, 4, 4), (2, 3, 3, 3)}


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
    a = ((2 + s) / 2,) * 4
    b = ((1 + s) / 2, (1 + s) / 2, 0.0, 0.5)
    return MeijerSpec(a, b, (2, 4, 4, 4), k * k / 64.0)


def w2_g_spec(s: complex, k: float) -> MeijerSpec:
    """The G^{2,3}_{3,3} block appearing in the odd-integer W_2 formula."""
    a = (1 + s / 2,) * 3
    b = (0.0, (1 + s) / 2, 0.5)
    return MeijerSpec(a, b, (2, 3, 3, 3), k * k / 16.0)


def _residues(spec: MeijerSpec, t: complex, log_z: float, lower: complex, *extra) -> tuple:
    """z^t prod Gamma(1 - a_i + t) / prod_{j>m} Gamma(1 - b_j + t) times the
    extra (c, x) factors Gamma(x)^c, its relative error, and the pFq (last
    lower parameter lower) of the residues at t, t + 1, ... over the one at t."""
    m, n, _, _ = spec.orders
    up = tuple(1.0 - a + t for a in spec.a_params[:n])
    low = tuple(1.0 - b + t for b in spec.b_params[m:])
    pref, rel = gamma_ratio(t * log_z, *((1.0, u) for u in up), *((-1.0, v) for v in low), *extra)
    return pref, rel, SeriesSpec(up, low + (lower,), spec.argument, log_z)


def meijer_mb(spec: MeijerSpec) -> EvalResult:
    """Evaluate the G-function as minus the sum of its right-pole residues
    (see the module docstring)."""
    m, n, _, _ = spec.orders
    b_right, a_left = spec.b_params[:m], spec.a_params[:n]
    pinches = [nearest_int(b - a + 1.0, _POLE_TOL) for b in b_right for a in a_left]
    if any(p is not None and p <= 0 for p in pinches):
        raise ContourError("pole families coalesce: a right pole sits on a left one")
    log_z = math.log(spec.argument)
    b1, b2 = b_right
    gap = b1 - b2
    parts = []  # (prefactor, its relative error, EvalResult of its series)
    if gap.imag != 0.0 or gap.real != round(gap.real):
        for bh, bo in ((b1, b2), (b2, b1)):
            pref, rel, series = _residues(spec, bh, log_z, 1.0 + bh - bo, (1.0, bo - bh))
            parts.append((pref, rel, pfq(series)))
    else:
        g = abs(round(gap.real))
        lo = min(b1, b2, key=lambda b: b.real)
        for j in range(g):
            pref, rel, _ = _residues(spec, lo + j, log_z, 1.0, (1.0, g - j), (-1.0, j + 1.0))
            parts.append(((-1.0) ** j * pref, rel, EvalResult(1.0, 0.0, Method.CLOSED_FORM)))
        pref, rel, series = _residues(spec, lo + g, log_z, g + 1.0, (-1.0, g + 1.0))
        parts.append((-((-1.0) ** g) * pref, rel, pfq_shift_derivative(series)))
    total = sum(pref * f.value for pref, _, f in parts)
    err = sum(abs(p) * f.abs_err + (rel + ROUNDING) * abs(p * f.value) for p, rel, f in parts)
    return EvalResult(complex(total), err, Method.CLOSED_FORM)


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
