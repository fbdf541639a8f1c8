"""Generalized hypergeometric series p+1Fp and their analytic continuation.

Three evaluation mechanisms live here:

* direct summation with a rigorous ratio-test tail bound (|z| < 1 or
  terminating series),
* unit-argument evaluation with a Hurwitz-zeta-accelerated tail (needed on
  the boundary |k| = 2^r),
* analytic continuation past z = 1 for the specific family
  (-s/2, (1-s)/2, 1/2, ..., 1/2; 1, ..., 1) by numerically integrating the
  order-(r+1) hypergeometric ODE along a half-plane detour path.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ConvergenceError,
    DomainError,
    NearDegenerateParameterError,
    PoleError,
)
from .gamma import log_gamma
from .types import EvalResult, Method

_MAX_TERMS = 200_000
_TOL = 1e-13
_INT_TOL = 1e-9


class ContinuationBranch(str, enum.Enum):
    FROM_ABOVE = "from-above"
    FROM_BELOW = "from-below"


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of a p+1Fp series: upper (a_1..a_{p+1}), lower (b_1..b_p)
    and the argument."""

    upper: tuple
    lower: tuple
    argument: complex

    def __post_init__(self):
        if len(self.upper) != len(self.lower) + 1:
            raise ValueError("need len(upper) == len(lower) + 1")
        object.__setattr__(self, "upper", tuple(complex(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(complex(b) for b in self.lower))
        object.__setattr__(self, "argument", complex(self.argument))


def _as_nonpositive_int(x: complex):
    """Return m >= 0 when x is numerically the non-positive integer -m."""
    if abs(x.imag) > _INT_TOL:
        return None
    n = round(x.real)
    if n <= 0 and abs(x.real - n) <= _INT_TOL:
        return -n
    return None


def _termination_order(spec: SeriesSpec):
    """Index after which every term vanishes, or None for a full series.

    Raises PoleError when a lower-parameter pole is hit before termination.
    """
    uppers = [m for m in map(_as_nonpositive_int, spec.upper) if m is not None]
    lowers = [m for m in map(_as_nonpositive_int, spec.lower) if m is not None]
    m_stop = min(uppers) if uppers else None
    if lowers:
        m_pole = min(lowers)
        if m_stop is None or m_stop > m_pole:
            raise PoleError(
                "pFq: lower parameter is a non-positive integer and the "
                "series does not terminate before the pole"
            )
    return m_stop


def _terms(spec: SeriesSpec):
    """The series terms t_0 = 1, t_1, ... at spec.argument, each from the
    last by t_{n+1} / t_n = z prod(a + n) / ((n + 1) prod(b + n))."""
    z, upper, lower = spec.argument, spec.upper, spec.lower
    term = 1.0 + 0.0j
    n = 0.0
    while True:
        yield term
        num = 1.0 + 0.0j
        for a in upper:
            num *= a + n
        den = n + 1.0
        for b in lower:
            den *= b + n
        term *= z * num / den
        n += 1.0


def _partial_sum(spec: SeriesSpec, count: int) -> complex:
    """t_0 + ... + t_{count-1}."""
    total = 0.0 + 0.0j
    terms = _terms(spec)
    for _ in range(count):
        total += next(terms)
    return total


def _term_at(spec: SeriesSpec, n: float) -> complex:
    """n-th series term via Gamma ratios (valid for non-integer n too),
    excluding the z^n factor."""
    acc = 0.0 + 0.0j
    for a in spec.upper:
        acc += log_gamma(n + a) - log_gamma(a)
    for b in spec.lower:
        acc -= log_gamma(n + b) - log_gamma(b)
    acc -= log_gamma(n + 1.0)
    return cmath.exp(acc)


def _sum_near_unit(spec: SeriesSpec) -> EvalResult:
    """pFq for z at or near 1: direct partial sum plus a tail fitted to the
    t_n ~ n^{-1-alpha} (c0 + c1/n + ...) asymptotics and summed exactly with
    Hurwitz zeta (z = 1) or Lerch transcendent (z != 1) functions."""
    z = spec.argument
    at_one = abs(z - 1.0) < 1e-14
    alpha = sum(spec.lower) - sum(spec.upper)
    if at_one and alpha.real <= 0:
        raise DomainError(
            "pFq at unit argument diverges: Re(sum(b)-sum(a)) must be > 0"
        )
    n_cut = 1000
    total = _partial_sum(spec, n_cut + 1)
    # Fit tail coefficients at geometrically spaced n (Richardson-style).
    n_fit = [n_cut * 2**m for m in range(6)]
    rhs = np.array(
        [_term_at(spec, float(nm)) * cmath.exp((1.0 + alpha) * math.log(nm)) for nm in n_fit]
    )
    vand = np.array([[(1.0 / nm) ** j for j in range(6)] for nm in n_fit])
    coef = np.linalg.solve(vand, rhs)

    def tail_sum(sigma: complex) -> complex:
        # sum_{n > n_cut} z^n n^{-sigma}
        if at_one:
            return complex(mpmath.zeta(complex(sigma), n_cut + 1))
        return complex(
            mpmath.lerchphi(complex(z), complex(sigma), n_cut + 1)
        ) * complex(z) ** (n_cut + 1)

    tail = 0.0 + 0.0j
    for j, c in enumerate(coef):
        tail += complex(c) * tail_sum(1.0 + alpha + j)
    err = (
        abs(coef[-1]) * abs(tail_sum(1.0 + alpha.real + 5)) * 1e-2
        + 1e-15 * abs(total + tail)
    )
    return EvalResult(total + tail, max(err, 2e-13 * abs(total + tail), 1e-15), Method.CLOSED_FORM)


def pfq(spec: SeriesSpec) -> EvalResult:
    """Evaluate the generalized hypergeometric series with a tail bound.

    Supported: terminating series (any z), |z| < 1, and |z| = 1 with
    Re(sum(b) - sum(a)) > 0.  Raises DomainError otherwise.
    """
    m_stop = _termination_order(spec)
    if m_stop is not None:
        val = _partial_sum(spec, m_stop + 1)
        return EvalResult(val, 1e-15 * (1.0 + abs(val)), Method.CLOSED_FORM)
    az = abs(spec.argument)
    if az > 1.0 + 1e-14:
        raise DomainError(f"pFq series diverges for |z| = {az} > 1")
    if az > 1.0 - 1e-3:
        # Plain summation needs ~|log _TOL| / (1 - |z|) terms here; switch to
        # the asymptotic tail resummation instead.
        return _sum_near_unit(spec)
    rho = 0.5 * (1.0 + az)  # majorant of the term ratio beyond the transient
    terms = _terms(spec)
    total = next(terms)
    prev = abs(total)
    n = 1
    for term in terms:
        if term == 0.0:
            return EvalResult(total, 1e-15 * (1.0 + abs(total)), Method.CLOSED_FORM)
        # The ratio tends to |z| < rho; once it is actually below rho the
        # geometric majorant bounds the whole tail.
        cur = abs(term)
        if n > 4 and prev > 0 and cur <= rho * prev:
            bound = cur * rho / (1.0 - rho)
            if bound < _TOL:
                return EvalResult(
                    total + term, bound + 1e-15 * abs(total), Method.CLOSED_FORM
                )
        total += term
        prev = cur
        n += 1
        if n > _MAX_TERMS:
            raise ConvergenceError("pFq: series did not converge within the term budget")


def family_spec(r: int, s: complex, w: complex) -> SeriesSpec:
    """The light-regime series (-s/2, (1-s)/2, 1/2...; 1...; w) of order r+1."""
    upper = (-s / 2.0, (1.0 - complex(s)) / 2.0) + ((0.5 + 0.0j),) * (r - 1)
    return SeriesSpec(upper, ((1.0 + 0.0j),) * r, w)


def _is_family(spec: SeriesSpec):
    """Recover (r, s) when spec has the family shape, else None."""
    r = len(spec.lower)
    if any(abs(b - 1.0) > 1e-12 for b in spec.lower):
        return None
    if any(abs(a - 0.5) > 1e-12 for a in spec.upper[2:]):
        return None
    s = -2.0 * spec.upper[0]
    if abs(spec.upper[1] - (1.0 - s) / 2.0) > 1e-12:
        return None
    return r, s


_DETOUR = 0.25
_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14


def _series_theta_derivatives(spec: SeriesSpec, order: int):
    """(theta^j F)(z) at z = spec.argument for j = 0..order by term-wise
    differentiation."""
    vals = [0.0 + 0.0j] * (order + 1)
    for n, term in enumerate(_terms(spec)):
        # Stop once t_n, times the largest weight (n-1)^order summed so far,
        # is negligible.
        if n > 9 and abs(term) * (float(n - 1) ** order) < 1e-16:
            return vals
        if n == _MAX_TERMS:
            raise ConvergenceError("initial-condition series did not converge")
        for j in range(order + 1):
            vals[j] += term * (float(n) ** j)


def _theta_poly(params) -> np.ndarray:
    """Coefficients of prod(theta + p) as a polynomial in theta."""
    coeffs = np.array([1.0 + 0.0j])
    for p in params:
        coeffs = np.convolve(coeffs, np.array([complex(p), 1.0 + 0.0j]))
    return coeffs  # coeffs[m] multiplies theta^m


def pfq_continued(spec: SeriesSpec, branch: ContinuationBranch) -> EvalResult:
    """Analytic continuation of the family pFq to real argument w > 1 along a
    path through the chosen half-plane (w < 1 is allowed and stays on the
    real axis; both branches then agree)."""
    fam = _is_family(spec)
    if fam is None:
        raise DomainError("pfq_continued supports only the family parameter shape")
    r, s = fam
    w = spec.argument
    if abs(w.imag) > 1e-13:
        raise DomainError("pfq_continued expects a real argument")
    w = w.real
    if w <= 0:
        raise DomainError("pfq_continued expects argument > 0")
    if abs(s.imag) < 1e-9 and s.real > 0:
        m = round((s.real - 1.0) / 2.0)
        if m >= 0 and abs(s.real - (2 * m + 1)) < 1e-6 and w > 1.0:
            raise NearDegenerateParameterError(
                "s within 1e-6 of an odd positive integer; use the limit formulas"
            )
    m_stop = _termination_order(spec)
    if m_stop is not None:
        val = _partial_sum(spec, m_stop + 1)
        return EvalResult(val, 1e-14 * (1.0 + abs(val)), Method.CLOSED_FORM)
    if abs(w - 1.0) < 10 * _ODE_ATOL:
        raise DomainError("pfq_continued: argument pinned at the singularity z = 1")

    z0 = 0.5 + 0.0j
    order = r  # ODE order is r+1; carry theta^0..theta^r
    y0 = np.array(
        _series_theta_derivatives(SeriesSpec(spec.upper, spec.lower, z0), order)
    )
    if w < 1.0 - _DETOUR / 4.0:
        path = [z0, complex(w)]
    else:
        sigma = 1.0 if branch is ContinuationBranch.FROM_ABOVE else -1.0
        lift = 1j * sigma * _DETOUR
        path = [z0, z0 + lift, complex(w) + lift, complex(w)]

    r_coef = _theta_poly(spec.upper)  # degree r+1
    # lower params are all 1: L(theta) = theta^{r+1}

    def rhs(z, y):
        dy = np.empty_like(y)
        dy[:-1] = y[1:] / z
        top = np.dot(r_coef[: order + 1], y)  # sum R_m theta^m y, m<=r
        # (1 - z) theta^{r+1} y = z * (R_{r+1}=1) theta^{r+1} y ... rearranged:
        # theta^{r+1} y = z * sum_{m<=r} R_m theta^m y / (1 - z)
        dy[-1] = top / (1.0 - z)
        return dy

    y = y0
    for za, zb in zip(path[:-1], path[1:]):
        seg = zb - za

        def seg_rhs(t, yv, za=za, seg=seg):
            return seg * rhs(za + t * seg, yv)

        sol = solve_ivp(
            seg_rhs,
            (0.0, 1.0),
            y,
            method="DOP853",
            rtol=_ODE_RTOL,
            atol=_ODE_ATOL,
            dense_output=False,
        )
        if not sol.success:
            raise ConvergenceError(f"ODE continuation failed: {sol.message}")
        y = sol.y[:, -1]
    val = complex(y[0])
    err = max(1e-11 * (1.0 + abs(val)), 1e-14)
    return EvalResult(val, err, Method.CONTOUR)
