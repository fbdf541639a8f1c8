"""The two Meijer G-functions needed for W_2 at odd integers and for W_3:
G^{2,3}_{3,3} and G^{2,4}_{4,4}, by Mellin-Barnes contour quadrature, plus the
Nesterenko triple-integral representation of the W_3 instance as an
independent second route.

Mellin-Barnes convention:

    G^{m,n}_{p,q}(a; b; z) = (1/2 pi i) int_C
        [prod_{j<=m} Gamma(b_j - t) prod_{i<=n} Gamma(1 - a_i + t)]
      / [prod_{j>m} Gamma(1 - b_j + t) prod_{i>n} Gamma(a_i - t)] z^t dt,

with C a vertical line separating the poles of Gamma(b_j - t) (right family)
from those of Gamma(1 - a_i + t) (left family).  When no straight line
separates the families (the odd-integer W_2 case, where half-integer left
poles interleave with integer right poles) the contour is indented: a line
left of the right family plus explicit residue corrections at the left poles
it strands on the wrong side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ellipkm1

from .errors import ContourError, DomainError
from .gamma import log_gamma
from .types import EvalResult, Method
from .quadutil import tanh_sinh_relaxed

_ALLOWED_ORDERS = {(2, 4, 4, 4), (2, 3, 3, 3)}
_POLE_RANGE = 200
_PINCH_TOL = 1e-8
_RES_RADIUS = 0.2
_RES_NODES = 128


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
    """Distinct pole locations (t-plane) of the two Gamma families, with
    multiplicities: right from Gamma(b_j - t), left from Gamma(1 - a_i + t)."""
    m, n, _, _ = spec.orders
    right = {}
    for b in spec.b_params[:m]:
        for ell in range(_POLE_RANGE):
            t = b + ell
            key = (round(t.real * 1e12), round(t.imag * 1e12))
            right[key] = (t, right.get(key, (t, 0))[1] + 1)
    left = {}
    for a in spec.a_params[:n]:
        for ell in range(_POLE_RANGE):
            t = a - 1 - ell
            key = (round(t.real * 1e12), round(t.imag * 1e12))
            left[key] = (t, left.get(key, (t, 0))[1] + 1)
    return list(left.values()), list(right.values())


def _mb_integrand(spec: MeijerSpec):
    m, n, _, q = spec.orders
    log_z = math.log(spec.argument)

    def f(t: complex) -> complex:
        acc = 0.0 + 0.0j
        for b in spec.b_params[:m]:
            acc += log_gamma(b - t)
        for a in spec.a_params[:n]:
            acc += log_gamma(1.0 - a + t)
        for b in spec.b_params[m:q]:
            acc -= log_gamma(1.0 - b + t)
        return cmath.exp(acc + t * log_z)

    return f


def _residue(f, pole: complex) -> complex:
    """Residue of f at an isolated pole by trapezoidal circle quadrature."""
    ang = 2.0 * math.pi * np.arange(_RES_NODES) / _RES_NODES
    total = 0.0 + 0.0j
    for th in ang:
        w = _RES_RADIUS * cmath.exp(1j * th)
        total += f(pole + w) * w
    return total / _RES_NODES


def meijer_mb(spec: MeijerSpec, tol: float = 1e-11) -> EvalResult:
    """Evaluate the G-function by its defining Mellin-Barnes integral."""
    left, right = _pole_families(spec)
    min_gap = min(
        abs(tl - tr) for tl, _ in left for tr, _ in right
    )
    if min_gap < _PINCH_TOL:
        raise ContourError(
            f"pole families coalesce (gap {min_gap:.2e}); contour is pinched"
        )
    lmax = max(tl.real for tl, _ in left)
    rmin = min(tr.real for tr, _ in right)
    residue_poles = []
    if rmin - lmax > _PINCH_TOL:
        c = 0.5 * (lmax + rmin)
    else:
        # No separating line: indent.  Put the line just left of the right
        # family and correct with residues at the stranded left poles.
        c = rmin - 0.25
        for shift in (0.0, -0.1, 0.1, -0.2):
            cand = c + shift
            dist = min(abs(t.real - cand) for t, _ in left + right)
            if dist > 0.2:
                c = cand
                break
        residue_poles = [(t, mult) for t, mult in left if t.real > c]
        for t, _ in residue_poles:
            if min(abs(t - tr) for tr, _ in right) < 2.5 * _RES_RADIUS:
                raise ContourError("indentation circle would touch a right pole")

    f = _mb_integrand(spec)

    # Truncation height: integrand decays like exp(-c_decay |Im t|) with
    # c_decay >= 2 pi for both supported orders; extend until the boundary
    # value is negligible.
    T = 8.0
    while max(abs(f(complex(c, T))), abs(f(complex(c, -T)))) > tol * 1e-2 and T < 80:
        T += 4.0

    def along(u: np.ndarray) -> np.ndarray:
        return np.array([f(complex(c, ui)) for ui in u])

    val, err = tanh_sinh_relaxed(along, -T, T, tol)
    total = val / (2.0 * math.pi)
    err = err / (2.0 * math.pi)
    for t, _ in residue_poles:
        total += _residue(f, t)
        err += 1e-14 * abs(total)
    return EvalResult(total, err, Method.CONTOUR)


def elliptic_2k(c64: float, x2: np.ndarray, x3: float) -> np.ndarray:
    """2 K(m) at m = 1 - p, p = c64 x2 x3: the inner elliptic integral of the
    W_3 triple-integral representation, for an array of x2."""
    # ellipkm1 takes 1 - m directly; forming m = 1 - tiny first would cancel
    # to m = 1 and overflow.
    p = c64 * x2 * x3
    with np.errstate(divide="ignore"):
        kk = 2.0 * ellipkm1(p)
    # The product can underflow to zero when x3 is extreme; use
    # 2 K(1-p) -> log(16/p) there, with log p assembled per factor.
    under = p == 0.0
    if np.any(under):
        kk[under] = (
            math.log(16.0)
            - math.log(c64)
            - np.log(x2[under])
            - math.log(x3)
        )
    return kk


def meijer_triple_integral(s: complex, k: float, tol: float = 1e-9) -> EvalResult:
    """The W_3 G-function instance via its triple-integral representation.

    The innermost coordinate is an elliptic integral in disguise:
    int_0^1 dx1 / sqrt(x1 (1-x1) (1 - m x1)) = 2 K(m) with parameter
    m = 1 - (k^2/64) x2 x3, so only a 2-d singular integral remains.
    """
    s = complex(s)
    k = float(k)
    if s.real <= -1.0:
        raise DomainError("requires Re(s) > -1")
    if not 0.0 < abs(k) < 8.0:
        raise DomainError("requires 0 < |k| < 8")
    c64 = k * k / 64.0

    def outer(x3: np.ndarray) -> np.ndarray:
        out = np.empty(len(x3), dtype=complex)
        for i, x3i in enumerate(x3):
            w3 = cmath.exp(0.5 * (s - 1.0) * math.log1p(-x3i)) / math.sqrt(x3i)

            def inner(x2: np.ndarray) -> np.ndarray:
                w2 = np.exp(0.5 * s * np.log1p(-x2)) / np.sqrt(x2)
                return w2 * elliptic_2k(c64, x2, x3i)

            v, _ = tanh_sinh_relaxed(inner, 0.0, 1.0, tol / 10.0)
            out[i] = w3 * v
        return out

    val, err = tanh_sinh_relaxed(outer, 0.0, 1.0, tol)
    # Inner integrals carry relative error ~tol/10 each; the outer successive
    # difference sees them as integrand noise, so fold them in proportionally.
    err = err + 0.1 * tol * (1.0 + abs(val))
    pref = (
        math.sqrt(math.pi)
        * cmath.exp((1.0 + s) * math.log(abs(k)))
        / (cmath.exp(log_gamma(1.0 + s)) * cmath.exp((3.0 + 2.0 * s) * math.log(2.0)))
    )
    return EvalResult(pref * val, abs(pref) * err, Method.QUADRATURE)
