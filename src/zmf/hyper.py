"""Generalized hypergeometric series p+1Fp and their analytic continuation.

Three evaluation mechanisms live here:

* direct summation with a ratio-test tail bound plus the rounding of the
  sum (|z| <= 0.999 or terminating series),
* near-unit evaluation, 0.999 < |z| <= 1: a direct sum to n = 1000 and the
  tail n > 1000 fitted to its n^(-1-alpha-j) asymptotics, each power summed
  in numpy by an Euler-Maclaurin Hurwitz zeta (z = 1, the boundary
  |k| = 2^r exactly), Erdelyi's Lerch expansion about z = 1 (real z next to
  the boundary, where it carries the |k - 2^r|^(s + r/2) cusp) or the Lerch
  asymptotic series (other z on the rim),
* analytic continuation past z = 1 for the specific family
  (-s/2, (1-s)/2, 1/2, ..., 1/2; 1, ..., 1) by numerically integrating the
  order-(r+1) hypergeometric ODE along a half-plane detour path.

The first two also sum pfq_shift_derivative, the residue series of a double
Mellin-Barnes pole; gamma_ratio gives Gamma prefactors with their error.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import comb, factorial, polygamma, psi

from .errors import (
    ConvergenceError,
    DomainError,
    NearDegenerateParameterError,
    PoleError,
)
from .gamma import log_gamma, nearest_int
from .types import ROUNDING, EvalResult, Method

_MAX_TERMS = 200_000
_TOL = 1e-13
_EPS = 2.0**-52
# Relative accuracy of log_gamma (scipy's loggamma): over 10,000 random z with
# Re z in (-6, 12) and |Im z| <= 40 it stayed within 11.5 eps (1 + |log Gamma(z)|)
# of 30-digit mpmath; gamma_ratio charges 32 eps per unit of that scale.
_LG_ERR = 32 * _EPS
_INT_TOL = 1e-9

# Near-unit tail: direct terms to _N_CUT, then _FIT_TERMS fitted powers.
_N_CUT = 1000
_FIT_TERMS = 6
_ERDELYI_TERMS = 24  # (a |log z|)^i / i! < 1e-16 for a |log z| <= 2
_LERCH_TERMS = 48  # past the smallest term, near m = a |log z| >= 36
_NEAR_INT = 1e-2  # |sigma - m| below which the pole pair is combined
_POLE_TERMS = 8  # Taylor terms of phi(delta), |delta| < _NEAR_INT
# Bernoulli numbers B_0..B_13, and B_2j / (2j)!, j = 1..6, for the
# Euler-Maclaurin Hurwitz zeta.
_BERNOULLI = np.array(
    [1, -1 / 2, 1 / 6, 0, -1 / 30, 0, 1 / 42, 0, -1 / 30, 0, 5 / 66, 0, -691 / 2730, 0]
)
_EM_COEF = _BERNOULLI[2:13:2] / factorial(np.arange(2, 13, 2))
# B_m(p) = sum_i C(m, i) B_(m-i) p^i, as a matrix over (m, i); C(m, i) = 0 for i > m.
_DEG = np.arange(len(_BERNOULLI))
_BERNOULLI_POLY = comb(_DEG[:, None], _DEG) * _BERNOULLI[np.abs(_DEG[:, None] - _DEG)]


def gamma_ratio(c0: complex, *factors) -> tuple[complex, float]:
    """exp(c0 + sum_i c_i log Gamma(z_i)) over factors (c_i, z_i), and its
    relative error: _LG_ERR |c_i| (1 + |log Gamma(z_i)|) per factor plus the
    rounding of the exponent, ROUNDING (1 + |c0| + |exponent|)."""
    total, err = c0, 0.0
    for c, z in factors:
        lg = log_gamma(z)
        total += c * lg
        err += _LG_ERR * abs(c) * (1.0 + abs(lg))
    return cmath.exp(total), err + ROUNDING * (1.0 + abs(c0) + abs(total))


class ContinuationBranch(str, enum.Enum):
    FROM_ABOVE = "from-above"
    FROM_BELOW = "from-below"


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of a p+1Fp series: upper (a_1..a_{p+1}), lower (b_1..b_p)
    and the argument z.  log_argument, when given, is log z computed from an
    exact distance to z = 1; the near-unit tail reads it instead of log z."""

    upper: tuple
    lower: tuple
    argument: complex
    log_argument: complex | None = None

    def __post_init__(self):
        if len(self.upper) != len(self.lower) + 1:
            raise ValueError("need len(upper) == len(lower) + 1")
        object.__setattr__(self, "upper", tuple(complex(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(complex(b) for b in self.lower))
        object.__setattr__(self, "argument", complex(self.argument))


def _as_nonpositive_int(x: complex):
    """Return m >= 0 when x is numerically the non-positive integer -m."""
    n = nearest_int(x, _INT_TOL)
    return -n if n is not None and n <= 0 else None


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


def _partial_sum(spec: SeriesSpec, count: int) -> tuple:
    """(t_0 + ... + t_{count-1}, |t_0| + ... + |t_{count-1}|), summed
    pairwise."""
    terms = np.fromiter(itertools.islice(_terms(spec), count), complex, count)
    return complex(terms.sum()), float(np.abs(terms).sum())


def _shift_terms(spec: SeriesSpec, count: int) -> tuple:
    """t_n and d_n = sum psi(a + n) - sum psi(b + n) - psi(1 + n), n <= count,
    by t_(n+1)/t_n = z prod(a + n) / ((1 + n) prod(b + n)) and d_(n+1) - d_n =
    sum 1/(a + n) - sum 1/(b + n) - 1/(1 + n), then the last ratio and step.
    A real series runs in real arithmetic, which is also where scipy's digamma
    is fast: its complex one sums a slow series near its root 1.46."""
    params, z = np.array(spec.upper + spec.lower + (1.0,)), spec.argument
    if not params.imag.any() and z.imag == 0.0:
        params, z = params.real, z.real
    up = len(spec.upper)
    shifted = params[:, None] + np.arange(float(count))
    ratio = z * shifted[:up].prod(0) / shifted[up:].prod(0)
    step = (1.0 / shifted[:up]).sum(0) - (1.0 / shifted[up:]).sum(0)
    t = np.concatenate(([1.0], np.cumprod(ratio)))
    d = psi(params[:up]).sum() - psi(params[up:]).sum() + np.concatenate(([0.0], np.cumsum(step)))
    return t, d, ratio[-1], step[-1]


def _scaled_terms(spec: SeriesSpec, nodes, log_z: complex | None = None) -> np.ndarray:
    """n^(1+alpha) t_n / z^n at large n, from the Stirling series
    log Gamma(n + p) = (n + p - 1/2) log n - n + log(2 pi)/2
                       + sum_k (-1)^(k+1) B_(k+1)(p) / (k (k+1) n^k)
    (DLMF 5.11.8), whose leading parts cancel between the parameters; summing
    log Gamma(n + p) itself would lose ~n log n * eps.  Needs n >> |p|.

    With log_z, the same times log z + d_n (_shift_terms), d_n from the
    p-derivative psi(n + p) = log n + sum_k (-1)^(k+1) B_k(p) / (k n^k) of that
    series (dB_(k+1)(p)/dp = (k+1) B_k(p), DLMF 24.4.34), whose log n cancel."""
    params = np.array(spec.upper + spec.lower + (1.0,))
    sign = np.r_[np.ones(len(spec.upper)), -np.ones(len(spec.lower) + 1)]
    bern = sign @ (params[:, None] ** _DEG @ _BERNOULLI_POLY.T)
    k = _DEG[1:-1]
    coef = (-1.0) ** (k + 1) * bern[k + 1] / (k * (k + 1))
    const = sum(log_gamma(b) for b in spec.lower) - sum(log_gamma(a) for a in spec.upper)
    inv = 1.0 / np.asarray(nodes, dtype=float)
    scaled = np.exp(const + np.polyval(np.r_[coef[::-1], 0.0], inv))
    if log_z is None:
        return scaled
    shift = (-1.0) ** (k + 1) * bern[k] / k
    return scaled * (log_z + np.polyval(np.r_[shift[::-1], 0.0], inv))


def _expm1_over(x: complex) -> complex:
    """(e^x - 1)/x, accurate for small |x| and 1 at x = 0."""
    return complex(np.expm1(x)) / x if x != 0 else 1.0 + 0.0j


def _hurwitz(sigma, a: float, pole: bool = True) -> np.ndarray:
    """Hurwitz zeta(sigma, a) for a >= 1000, elementwise in sigma, by
    Euler-Maclaurin with no direct terms:
    a^(1-sigma)/(sigma-1) + a^-sigma/2 + sum_j B_2j/(2j)! (sigma)_(2j-1) a^(1-sigma-2j).
    pole=False leaves out the a^(1-sigma)/(sigma-1) term."""
    sigma = np.asarray(sigma, dtype=complex)
    rising = np.cumprod(sigma[..., None] + np.arange(2 * len(_EM_COEF) - 1), axis=-1)
    powers = a ** (1.0 - 2.0 * np.arange(1, len(_EM_COEF) + 1))
    inner = 0.5 + (rising[..., ::2] * _EM_COEF * powers).sum(-1)
    if pole:
        inner = inner + a / (sigma - 1.0)
    return np.exp(-sigma * math.log(a)) * inner


def _pole_pair(delta: complex, m: int, a: float, log_l: complex) -> complex:
    """zeta(1 + delta, a) + (-1)^(m-1) (m-1)! Gamma(1 - m - delta) L^delta,
    with log_l = log L: the two Erdelyi terms whose 1/delta poles cancel at
    sigma = m + delta, combined in closed form (Erdelyi I, 1.11(9) at
    delta = 0).  The Gamma factor is -(1/delta) exp(phi(delta)),
    phi = log Gamma(1 - delta) + log Gamma(1 + delta) - log Gamma(m + delta)
    + log Gamma(m), summed as its Taylor series."""
    k = np.arange(1, _POLE_TERMS + 1)
    q = ((1 + (-1.0) ** k) * polygamma(k - 1, 1.0) - polygamma(k - 1, float(m))) / factorial(k)
    phi_over = complex(np.polyval(q[::-1], delta))  # phi(delta) / delta
    gamma_part = -phi_over * _expm1_over(delta * phi_over)
    log_a = math.log(a)
    return (
        complex(_hurwitz(1.0 + delta, a, pole=False))
        - log_a * _expm1_over(-delta * log_a)
        + gamma_part * cmath.exp(delta * log_l)
        - log_l * _expm1_over(delta * log_l)
    )


def _power_tails(alpha: complex, a: float, log_z: complex) -> np.ndarray:
    """S_j = sum_{n >= a} z^n n^(-1-alpha-j), j = 0.._FIT_TERMS-1, z = e^log_z.

    z = 1: Hurwitz zeta.  a |log z| <= 2: Erdelyi's expansion about z = 1
    (Higher Transcendental Functions I, 1.11(8)),
    z^a Phi(z, sigma, a) = Gamma(1-sigma) (-log z)^(sigma-1)
                           + sum_i zeta(sigma - i, a) (log z)^i / i!.
    Otherwise the Lerch asymptotic z^a sum_m c_m (sigma)_m a^(-sigma-m),
    c_m the Taylor coefficients of 1/(1 - z e^-t); its smallest term is
    about e^(-a |log z|) of the first, so the caller makes a |log z| >= 36."""
    sigma = 1.0 + alpha + np.arange(_FIT_TERMS)
    if log_z == 0:
        return _hurwitz(sigma, a)
    if a * abs(log_z) <= 2.0:
        shift = round(alpha.real)
        delta = alpha - shift
        near = abs(delta) < _NEAR_INT
        count = max(_ERDELYI_TERMS, shift + _FIT_TERMS + 1) if near else _ERDELYI_TERMS
        i = np.arange(count)
        powers = log_z**i / factorial(i)
        with np.errstate(divide="ignore", invalid="ignore"):  # pole pairs replaced below
            zeta = _hurwitz(sigma[:, None] - i, a)
        log_l = cmath.log(-log_z)
        cusp = np.empty(_FIT_TERMS, dtype=complex)
        for j, sg in enumerate(sigma):
            m = shift + j + 1
            if near and m >= 1:
                zeta[j, m - 1] = _pole_pair(delta, m, a, log_l)
                cusp[j] = 0.0
            else:
                cusp[j] = cmath.exp(log_gamma(1.0 - sg) + (sg - 1.0) * log_l)
        return zeta @ powers + cusp
    m = np.arange(_LERCH_TERMS)
    g = -cmath.exp(log_z) * (-1.0) ** m / factorial(m)  # 1 - z e^-t
    g[0] = -complex(np.expm1(log_z))
    c = np.empty(_LERCH_TERMS, dtype=complex)
    c[0] = 1.0 / g[0]
    for n in range(1, _LERCH_TERMS):
        c[n] = -np.dot(g[1 : n + 1], c[n - 1 :: -1]) / g[0]
    rising = np.cumprod(np.hstack([np.ones((_FIT_TERMS, 1)), sigma[:, None] + m[:-1]]), axis=1)
    terms = c * rising * a ** (-m.astype(float))
    # Each row stops at its smallest term.
    stop = np.argmin(np.abs(terms), axis=1)[:, None]
    series = np.where(m <= stop, terms, 0.0).sum(1)
    return cmath.exp(a * log_z) * np.exp(-sigma * math.log(a)) * series


def _sum_near_unit(spec: SeriesSpec, shifted: bool = False) -> EvalResult:
    """pFq for z at or near 1: direct partial sum to n_cut plus the tail
    n > n_cut fitted to the t_n ~ z^n n^{-1-alpha} (c0 + c1/n + ...)
    asymptotics, each power summed in closed form (_power_tails).  shifted
    sums t_n (log z + d_n) instead (pfq_shift_derivative), whose tail has the
    same powers: d_n is O(1/n) with no log n.

    The error is the gap between two fits of the same tail (nodes n_cut 2^m,
    m = 0..5 and m = 1..6) plus the rounding of the sums."""
    z = spec.argument
    log_z = spec.log_argument if spec.log_argument is not None else cmath.log(z)
    alpha = sum(spec.lower) - sum(spec.upper)
    if log_z == 0 and alpha.real <= 0:
        raise DomainError(
            "pFq at unit argument diverges: Re(sum(b)-sum(a)) must be > 0"
        )
    # The Stirling nodes need n >> |p|; beyond the Erdelyi disk a |log z| <= 2
    # the Lerch asymptotic needs a |log z| >= 36.
    n_cut = max(_N_CUT, math.ceil(32.0 * max(map(abs, spec.upper + spec.lower))))
    if (n_cut + 1) * abs(log_z) > 2.0:
        n_cut = max(n_cut, math.ceil(36.0 / abs(log_z)))
    terms, d, _, _ = _shift_terms(spec, n_cut)
    if shifted:
        terms = terms * (log_z + d)
    total, abs_sum = complex(terms.sum()), float(np.abs(terms).sum())
    nodes = [n_cut * 2**m for m in range(_FIT_TERMS + 1)]
    rhs = _scaled_terms(spec, nodes, log_z if shifted else None)
    vand = np.array([[(1.0 / n) ** j for j in range(_FIT_TERMS)] for n in nodes])
    sums = _power_tails(alpha, n_cut + 1.0, log_z)
    tail, tail_alt = (
        complex(np.linalg.solve(vand[lo : lo + _FIT_TERMS], rhs[lo : lo + _FIT_TERMS]) @ sums)
        for lo in (0, 1)
    )
    err = abs(tail - tail_alt) + ROUNDING * (abs_sum + abs(tail))
    return EvalResult(total + tail, err, Method.CLOSED_FORM)


def pfq(spec: SeriesSpec) -> EvalResult:
    """Evaluate the generalized hypergeometric series with a tail bound.

    Supported: terminating series (any z), |z| < 1, and |z| = 1 with
    Re(sum(b) - sum(a)) > 0.  Raises DomainError otherwise.
    """
    m_stop = _termination_order(spec)
    if m_stop is not None:
        val, _ = _partial_sum(spec, m_stop + 1)
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
    total = last = next(terms)
    prev = abs_sum = abs(total)
    for n, term in enumerate(itertools.islice(terms, _MAX_TERMS), 1):
        cur = abs(term)
        if cur == 0.0:
            return EvalResult(total, 1e-15 * (1.0 + abs(total)), Method.CLOSED_FORM)
        abs_sum += cur
        # The ratio tends to |z| < rho; once it is actually below rho the
        # geometric majorant bounds the whole tail.
        if n > 4 and cur <= rho * prev:
            bound = cur * rho / (1.0 - rho)
            if bound < _TOL:
                # Rounding: each step loses up to eps |total|, and the last
                # ~1/(1 - rho) terms sit near or below that level, where
                # they are lost one-sidedly.
                err = bound + 1e-15 * abs(total) + ROUNDING * abs_sum / (1.0 - rho)
                # The tail is summed as a geometric series; the bound covers it.
                q = term / last
                return EvalResult(total + term / (1.0 - q), err, Method.CLOSED_FORM)
        total += term
        prev = cur
        last = term
    raise ConvergenceError("pFq: series did not converge within the term budget")


def pfq_shift_derivative(spec: SeriesSpec) -> EvalResult:
    """sum_n t_n (log z + d_n), d_n = sum psi(a + n) - sum psi(b + n) - psi(1 + n),
    for a non-terminating series with |z| <= 1: the derivative in e at 0 of
    z^e sum_n z^n prod Gamma(a + e + n) / (prod Gamma(b + e + n) Gamma(1 + e + n))
    over prod Gamma(a) / prod Gamma(b), the residues of a double Mellin-Barnes
    pole (meijer).  At |z| <= 0.999 the terms are summed in numpy to a count
    that doubles until the last term ratio is below rho = (1 + |z|)/2 and the
    geometric majorant of the rest of sum |t_n| is below eps times it; the
    error is that tail times a bound on |log z + d_n| beyond it, plus the
    rounding of the sum.  Nearer 1: _sum_near_unit."""
    if _termination_order(spec) is not None:
        raise DomainError("pfq_shift_derivative: the series terminates")
    log_z = spec.log_argument if spec.log_argument is not None else cmath.log(spec.argument)
    if abs(spec.argument) > 1.0 - 1e-3:
        return _sum_near_unit(spec, shifted=True)
    rho = 0.5 * (1.0 + abs(spec.argument))
    for count in [2**j for j in range(5, 18)]:
        t, d, ratio, step = _shift_terms(spec, count)
        tail = abs(t[-1]) * rho / (1.0 - rho)
        if abs(ratio) <= rho and tail <= _EPS * float(np.abs(t).sum()):
            break
    else:
        raise ConvergenceError("pfq_shift_derivative: no convergence within 131,072 terms")
    terms = t * (log_z + d)
    # |d_n - d_N| <= sum_{i >= N} |d_(i+1) - d_i|, about N |d_N - d_(N-1)| for
    # steps that fall like 1/i^2.
    reach = abs(log_z + d[-1]) + count * abs(step)
    err = tail * reach + ROUNDING * float(np.abs(terms).sum())
    return EvalResult(complex(terms.sum()), err, Method.CLOSED_FORM)


def family_spec(r: int, s: complex, w: complex, log_w: complex | None = None) -> SeriesSpec:
    """The light-regime series (-s/2, (1-s)/2, 1/2...; 1...; w) of order r+1."""
    upper = (-s / 2.0, (1.0 - complex(s)) / 2.0) + ((0.5 + 0.0j),) * (r - 1)
    return SeriesSpec(upper, ((1.0 + 0.0j),) * r, w, log_w)


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


def pfq_continued(r: int, s: complex, w: float, branch: ContinuationBranch) -> EvalResult:
    """Analytic continuation of the family pFq ``family_spec(r, s, w)`` to
    real argument w > 1 along a path through the chosen half-plane (w < 1 is
    allowed and stays on the real axis; both branches then agree)."""
    if w <= 0:
        raise DomainError("pfq_continued expects argument > 0")
    if abs(s.imag) < 1e-9 and s.real > 0:
        m = round((s.real - 1.0) / 2.0)
        if m >= 0 and abs(s.real - (2 * m + 1)) < 1e-6 and w > 1.0:
            raise NearDegenerateParameterError(
                "s within 1e-6 of an odd positive integer, where the continuation is 0/0"
            )
    spec = family_spec(r, s, w)
    m_stop = _termination_order(spec)
    if m_stop is not None:
        val, _ = _partial_sum(spec, m_stop + 1)
        return EvalResult(val, 1e-14 * (1.0 + abs(val)), Method.CLOSED_FORM)
    if abs(w - 1.0) < 10 * _ODE_ATOL:
        raise DomainError("pfq_continued: argument pinned at the singularity z = 1")

    z0 = 0.5 + 0.0j
    order = r  # ODE order is r+1; carry theta^0..theta^r
    y0 = np.array(_series_theta_derivatives(family_spec(r, s, z0), order))
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
