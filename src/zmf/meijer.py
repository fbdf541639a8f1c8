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
Both blocks have b_1 - b_2 = +-g, an integer; a block with any other gap
raises DomainError.  The poles b_lo + j, j < g, are simple (a finite sum)
and the rest double, each adding -(-1)^g z^(b_lo+l) c_l (log z + d_l) to G,
with c_l a pFq term and d_l its derivative in a common shift of the
parameters (hyper.pfq_shift_derivative, which returns the plain sum of the
c_l from the same pass).  W_3's block has b_1 = b_2, g = 0; W_2's at odd n
has g = (1 + n)/2.

Next to z = 1 both series sum their tails by hyper's near-unit fit.  In the
W_2 and W_3 blocks log z enters as log z times a bounded series and through
tail cusps |log z|^(1 + alpha), alpha > 1/2, where the log of the rounded z
would serve (log z from the exact distance k - 2^r changed no G value by
1e-36 relative at k = 7.9999 to 8 - 1e-13).  The plain sum of W_3's
double-pole series, its 4F3 term, has the cusp exponent s + 3/2, down to
1/2, so w3_g_spec and w2_g_spec take log z from the exact distance
(types.edge_log).  The error is the series' own (tail
majorant, fit gap, rounding) plus gamma_ratio's per-factor error of each
prefactor.  A right pole on a left pole (b_j - a_i + 1 a non-positive
integer) pinches C: ContourError.  meijer_mb keeps its name for the
Mellin-Barnes integral it sums; the perfbench tracer hooks it by that name.

A block whose parameters are arrays over lanes (w3_g_spec at an array of s)
is summed as one lane series, provided every lane has the same pole
structure; each lane equals its one-lane call bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ellipkm1

from .errors import ContourError, ConvergenceError, DomainError
from .gamma import _POLE_TOL, any_pole, log_gamma
from .hyper import SeriesSpec, gamma_ratio, pfq_shift_derivative
from .quadutil import ts_rows
from .types import ROUNDING, EvalResult, Method, edge_log, lane_params

_ALLOWED_ORDERS = {(2, 4, 4, 4), (2, 3, 3, 3)}


@dataclass(frozen=True)
class MeijerSpec:
    """Parameter block (a; b; orders; argument) of one G-function instance;
    the parameters may be 1-d arrays over lanes."""

    a_params: tuple = field()
    b_params: tuple = field()
    orders: tuple = field()
    argument: float = field()
    # log of the argument from an exact distance to 1, as in SeriesSpec
    log_argument: float | None = None

    def __post_init__(self):
        m, n, p, q = self.orders
        if self.orders not in _ALLOWED_ORDERS:
            raise DomainError(f"unsupported orders {self.orders}")
        if len(self.a_params) != p or len(self.b_params) != q:
            raise DomainError("parameter row lengths must match (p, q)")
        if not 0.0 < self.argument < 1.0:
            raise DomainError("argument must lie in (0, 1)")
        params = lane_params(self.a_params + self.b_params)
        object.__setattr__(self, "a_params", params[:p])
        object.__setattr__(self, "b_params", params[p:])


def w3_g_spec(s: complex, k: float) -> MeijerSpec:
    """The G^{2,4}_{4,4} block appearing in the W_3 closed form."""
    a = ((2 + s) / 2,) * 4
    b = ((1 + s) / 2, (1 + s) / 2, 0.0, 0.5)
    return MeijerSpec(a, b, (2, 4, 4, 4), k * k / 64.0, edge_log(3, k))


def w2_g_spec(s: complex, k: float) -> MeijerSpec:
    """The G^{2,3}_{3,3} block appearing in the odd-integer W_2 formula."""
    a = (1 + s / 2,) * 3
    b = (0.0, (1 + s) / 2, 0.5)
    return MeijerSpec(a, b, (2, 3, 3, 3), k * k / 16.0, edge_log(2, k))


def _residues(spec: MeijerSpec, t: complex, log_z: float, lower: complex, *extra) -> tuple:
    """z^t prod Gamma(1 - a_i + t) / prod_{j>m} Gamma(1 - b_j + t) times the
    extra (c, x) factors Gamma(x)^c, its relative error, and the pFq (last
    lower parameter lower) of the residues at t, t + 1, ... over the one at t."""
    m, n, _, _ = spec.orders
    up = tuple(1.0 - a + t for a in spec.a_params[:n])
    low = tuple(1.0 - b + t for b in spec.b_params[m:])
    pref, rel = gamma_ratio(t * log_z, *((1.0, u) for u in up), *((-1.0, v) for v in low), *extra)
    return pref, rel, SeriesSpec(up, low + (lower,), spec.argument, log_z)


def meijer_mb(spec: MeijerSpec, series: bool = False):
    """Evaluate the G-function as minus the sum of its right-pole residues
    (see the module docstring).  With series, return also the pFq
    sum_l c_l of the double-pole residue series, whose terms that series
    shares (w3 reads its 4F3 term from it)."""
    m, n, _, _ = spec.orders
    b_right, a_left = spec.b_params[:m], spec.a_params[:n]
    if any_pole((b - a + 1.0 for b in b_right for a in a_left), _POLE_TOL):
        raise ContourError("pole families coalesce: a right pole sits on a left one")
    log_z = spec.log_argument if spec.log_argument is not None else math.log(spec.argument)
    b1, b2 = b_right
    gaps = np.atleast_1d(b1 - b2).tolist()
    gap = gaps[0]
    if gaps.count(gap) != len(gaps) or gap.imag != 0.0 or gap.real != round(gap.real):
        raise DomainError("meijer_mb: b_1 - b_2 is not one integer shared by every lane")
    g = int(abs(gap.real))
    lo = b2 if gap.real > 0 else b1
    parts = []  # (prefactor, its relative error, EvalResult of its series)
    for j in range(g):
        pref, rel, _ = _residues(spec, lo + j, log_z, 1.0, (1.0, g - j), (-1.0, j + 1.0))
        parts.append(((-1.0) ** j * pref, rel, EvalResult(1.0, 0.0, Method.CLOSED_FORM)))
    pref, rel, spec_d = _residues(spec, lo + g, log_z, g + 1.0, (-1.0, g + 1.0))
    plain, derivative = pfq_shift_derivative(spec_d)
    parts.append((-((-1.0) ** g) * pref, rel, derivative))
    total = sum(pref * f.value for pref, _, f in parts)
    err = sum(abs(p) * f.abs_err + (rel + ROUNDING) * abs(p * f.value) for p, rel, f in parts)
    g_value = EvalResult(total if type(total) is np.ndarray else complex(total), err, Method.CLOSED_FORM)
    return (g_value, plain) if series else g_value


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


def meijer_triple_integral(s: complex, k: float, tol: float = 1e-9) -> EvalResult:
    """The W_3 G-function instance via its triple-integral representation.

    The innermost coordinate is an elliptic integral in disguise:
    int_0^1 dx1 / sqrt(x1 (1-x1) (1 - m x1)) = 2 K(m) with parameter
    m = 1 - (k^2/64) x2 x3, so only a 2-d singular integral remains, with
    weights (1 - x2)^(s/2) / sqrt(x2) and (1 - x3)^((s-1)/2) / sqrt(x3).
    Each coordinate is one ladder row over (0, 1) that reads the exact
    distance 1 - x = rest at each node (``quadutil``), so both singular ends
    are resolved.  The x2 rows for all outer x3 nodes of a level run through
    one ladder, and their errors go to the outer ladder with their nodes.
    Raises ConvergenceError when a row misses its tolerance.
    """
    s = complex(s)
    k = float(k)
    if s.real <= -1.0:
        raise DomainError("requires Re(s) > -1")
    if not 0.0 < abs(k) < 8.0:
        raise DomainError("requires 0 < |k| < 8")
    c64 = k * k / 64.0

    def outer(rows: np.ndarray, x3: np.ndarray, om3: np.ndarray) -> tuple:
        sq3 = np.sqrt(x3.ravel())

        def inner(irows: np.ndarray, x2: np.ndarray, om2: np.ndarray) -> np.ndarray:
            sq2 = np.sqrt(x2)
            w2 = np.exp(0.5 * s * np.log(om2)) / sq2
            return w2 * elliptic_2k(c64, sq2, sq3[irows, None])

        v, e, ok = ts_rows(inner, np.zeros(len(sq3)), 1.0, tol / 20.0)
        if not ok.all():
            raise ConvergenceError("meijer_triple_integral: an inner integral missed tol")
        w3 = np.exp(0.5 * (s - 1.0) * np.log(om3)) / np.sqrt(x3)
        return w3 * v.reshape(x3.shape), np.abs(w3) * e.reshape(x3.shape)

    vals, errs, ok = ts_rows(outer, 0.0, 1.0, tol)
    if not ok[0]:
        raise ConvergenceError("meijer_triple_integral: the outer integral missed tol")
    pref = (
        math.sqrt(math.pi)
        * cmath.exp((1.0 + s) * math.log(abs(k)))
        / (cmath.exp(log_gamma(1.0 + s)) * cmath.exp((3.0 + 2.0 * s) * math.log(2.0)))
    )
    return EvalResult(pref * complex(vals[0]), abs(pref) * float(errs[0]), Method.QUADRATURE)
