"""Generalized hypergeometric series p+1Fp and their analytic continuation.

Three evaluation mechanisms live here:

* direct summation with a ratio-test tail bound plus the rounding of the
  sum (|z| <= 0.999, or any z when an upper parameter is exactly a
  non-positive integer and the series terminates),
* near-unit evaluation, 0.999 < |z| <= 1: a direct sum to n = 1000 and the
  tail n > 1000 fitted to its n^(-1-alpha-j) asymptotics, each power summed
  in numpy by an Euler-Maclaurin Hurwitz zeta (z = 1, the boundary
  |k| = 2^r exactly), Erdelyi's Lerch expansion about z = 1 (real z next to
  the boundary, where it carries the |k - 2^r|^(s + r/2) cusp) or the Lerch
  asymptotic series (other z on the rim),
* analytic continuation past z = 1 for the specific family
  (-s/2, (1-s)/2, 1/2, ..., 1/2; 1, ..., 1) by numerically integrating the
  order-(r+1) hypergeometric ODE along a half-plane detour path, at any
  complex s, by the DOP853 steps of `zmf.ode`.

The first two also sum pfq_shift_derivative, the residue series of a double
Mellin-Barnes pole, together with the plain sum of the same terms in one
pass; gamma_ratio gives Gamma prefactors with their error.

Lanes: a SeriesSpec whose parameters are 1-d arrays (one shared argument)
is summed by one numpy term recurrence over all its lanes (_shift_terms,
_lane_sums), the way Johansson (ACM TOMS 45 (2019), art. 30) sums a series
over many parameter sets; gamma_ratio takes lanes too.  Each lane stops at
the count its own one-lane call reaches, and every product and sum over the
parameters runs lane by lane, so a lane's value and error are bit-identical
to that call.  A scalar spec is one lane of that recurrence, with Python
numbers back.  Only pfq keeps a scalar Python loop: eval-series' series are
mostly short, and with scalar pfq through _lane_sums the median task of its
seed-1 pool went from 33-44 us to 68-71 us and the fastest pass from 97-104
ms to 136-144 ms (two in-process runs of five passes each, 2-core Xeon).
Per call the loop wins on short series (20 us against 36 us at r = 1,
k = 3, s = 1.5, z = 0.44) and loses on long ones (109 us against 43 us at
k = 2.1, z = 0.91); the two cross near z = 0.7.
"""

from __future__ import annotations

import cmath
import contextlib
import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import comb, factorial, polygamma, psi

from .errors import ConvergenceError, DomainError, PoleError
from .gamma import log_gamma, pole_order
from .ode import solve_ivp
from .types import ROUNDING, EvalResult, Method, lane_params, stack

_MAX_TERMS = 200_000
_TOL = 1e-13
_EPS = 2.0**-52
# Relative accuracy of log_gamma (scipy's loggamma): over 10,000 random z with
# Re z in (-6, 12) and |Im z| <= 40 it stayed within 11.5 eps (1 + |log Gamma(z)|)
# of 30-digit mpmath; gamma_ratio charges 32 eps per unit of that scale.
_LG_ERR = 32 * _EPS
# scipy's digamma: over 4,000 random z with Re z in (-6, 12) and |Im z| <= 3
# it stayed within 13.2 eps (1 + |psi(z)|) of 30-digit mpmath; _shifted_sum
# charges 32 eps per unit of that scale.
_PSI_ERR = 32 * _EPS
_INT_TOL = 1e-9
# The numpy sums start from where |z|^n < e^-40 (eps is e^-36), at least
# _FIRST_COUNT and at most _START_MAX terms (next to |z| = 1 the algebraic
# decay n^(-1-alpha) of the terms ends most series sooner), and double the
# count until every lane has converged.
_FIRST_COUNT = 16
_START_MAX = 4096
_MAX_COUNT = 2**17

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


def gamma_ratio(c0: complex, *factors) -> tuple:
    """exp(c0 + sum_i c_i log Gamma(z_i)) over factors (c_i, z_i), and its
    relative error: _LG_ERR |c_i| (1 + |log Gamma(z_i)|) per factor plus the
    rounding of the exponent, ROUNDING (1 + |c0| + |exponent|).  c0 and the
    z_i may be arrays of lanes, each lane's arithmetic then being that of
    its scalar call."""
    total, err = c0, 0.0
    for c, z in factors:
        lg = log_gamma(z)
        total = total + c * lg
        err = err + _LG_ERR * abs(c) * (1.0 + abs(lg))
    value = np.exp(total) if type(total) is np.ndarray else cmath.exp(total)
    return value, err + ROUNDING * (1.0 + abs(c0) + abs(total))


class ContinuationBranch(str, enum.Enum):
    FROM_ABOVE = "from-above"
    FROM_BELOW = "from-below"


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of a p+1Fp series: upper (a_1..a_{p+1}), lower (b_1..b_p)
    and the argument z.  log_argument, when given, is log z computed from an
    exact distance to z = 1; the near-unit tail reads it instead of log z.
    Parameters may be 1-d arrays over lanes, which share the argument."""

    upper: tuple
    lower: tuple
    argument: complex
    log_argument: complex | None = None

    def __post_init__(self):
        if len(self.upper) != len(self.lower) + 1:
            raise ValueError("need len(upper) == len(lower) + 1")
        params = lane_params(self.upper + self.lower)
        object.__setattr__(self, "upper", params[: len(self.upper)])
        object.__setattr__(self, "lower", params[len(self.upper) :])
        object.__setattr__(self, "argument", complex(self.argument))

    @property
    def lanes(self) -> int:
        """The number of lanes; 0 for scalar parameters."""
        return len(self.upper[0]) if isinstance(self.upper[0], np.ndarray) else 0

    def lane(self, i: int) -> SeriesSpec:
        """Lane i as a scalar spec."""
        return SeriesSpec(
            tuple(complex(p[i]) for p in self.upper), tuple(complex(p[i]) for p in self.lower),
            self.argument, self.log_argument,
        )

    @cached_property
    def rows(self) -> np.ndarray:
        """a_1.., b_1.. and the 1 of (1 + n) as an array of (parameter,
        lane), real when they and the argument are; a scalar spec is one
        lane."""
        params, real = self.upper + self.lower, self.argument.imag == 0.0
        if not self.lanes:  # built from Python numbers, the dtype inferred
            col = [p.real for p in params] if real and not any(p.imag for p in params) else list(params)
            return np.array(col + [1.0])[:, None]
        rows = np.array(params + (np.ones(self.lanes),), dtype=complex)
        return rows.real.copy() if real and not rows.imag.any() else rows


def _order(upper, lower):
    """Index after which every term with these parameters vanishes, or None
    for a full series.

    Only an exact non-positive integer upper parameter ends the series: one
    1e-9 away leaves terms of that relative size.  Raises PoleError when a
    lower parameter within _INT_TOL of a pole is reached before termination.
    """
    uppers = [m for m in (pole_order(a, 0.0) for a in upper) if m is not None]
    lowers = [m for m in (pole_order(b, _INT_TOL) for b in lower) if m is not None]
    m_stop = min(uppers) if uppers else None
    if lowers:
        m_pole = min(lowers)
        if m_stop is None or m_stop > m_pole:
            raise PoleError(
                "pFq: lower parameter is a non-positive integer and the "
                "series does not terminate before the pole"
            )
    return m_stop


def _termination_order(spec: SeriesSpec):
    """_order of spec; for a lane spec an array over the lanes, inf for a
    full series, or None when no lane terminates."""
    if not spec.lanes:
        return _order(spec.upper, spec.lower)
    rows, up = spec.rows[:-1], len(spec.upper)
    if rows.real.min() > _INT_TOL or np.abs(rows - np.rint(rows.real)).min() > _INT_TOL:
        return None  # no parameter next to an integer
    orders = [_order(lane[:up], lane[up:]) for lane in rows.T]
    if all(m is None for m in orders):
        return None
    return np.array([np.inf if m is None else m for m in orders])


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


def _chain_rounding(terms: np.ndarray):
    """Rounding of the sum of terms t_0, t_1, ... (the last axis) made by a
    chain of ratios: t_n carries about n roundings from the chain and one
    from the sum."""
    return ROUNDING * (np.abs(terms) * np.arange(1.0, terms.shape[-1] + 1.0)).sum(-1)


def _sum(x: np.ndarray) -> np.ndarray:
    """x summed over its last axis, as complex.  A complex x is summed part
    by part: a lane with real values then gets the bits of the same sum
    over a real array, which numpy orders differently from a complex one."""
    if x.dtype.kind == "f":
        return x.sum(-1) + 0j
    return x.real.sum(-1) + 1j * x.imag.sum(-1)


def _psi(params: np.ndarray, up: int) -> tuple:
    """sum psi(a) - sum psi(b) over the last axis, the first up parameters
    being the a, and the scale of its error, sum_j 1 + |psi(p_j)|.  A
    complex p takes psi(p) = psi(p + 2) - 1/p - 1/(p + 1), with scale
    1 + |psi(p + 2)| + |1/p + 1/(p + 1)|: scipy's complex digamma takes
    5-8 us a value left of Re p = 2 (a slow series next to its roots and 0)
    against 0.5 us beyond, and its real one 0.1 us."""
    vals = psi(params.real)
    scale = 1.0 + np.abs(vals)
    if params.dtype.kind == "c":
        vals = vals.astype(complex)
        cplx = params.imag != 0.0
        p = params[cplx]
        inv = 1.0 / p + 1.0 / (p + 1.0)
        far = psi(p + 2.0)
        vals[cplx], scale[cplx] = far - inv, 1.0 + np.abs(far) + np.abs(inv)
        return _sum(vals[:, :up]) - _sum(vals[:, up:]), scale.sum(-1)
    return vals[:, :up].sum(-1) - vals[:, up:].sum(-1), scale.sum(-1)


def _shift_terms(spec: SeriesSpec, count: int, prev: tuple | None = None, shifted: bool = True):
    """t_n for n <= count by t_(n+1)/t_n = z prod(a + n) / ((1 + n) prod(b + n)),
    and with shifted d_n = sum psi(a + n) - sum psi(b + n) - psi(1 + n) by
    d_(n+1) - d_n = sum 1/(a + n) - sum 1/(b + n) - 1/(1 + n); then the ratios,
    the steps and the error scale of the digammas psi(p) at n = 0 (_psi; None
    without shifted).  Rows are lanes (a scalar spec is one lane).

    prev, the output of a call at a smaller count, is extended from its last
    term and step, so doubling the count computes the new terms only and the
    digammas once.  The arithmetic is elementwise, real when the parameters
    and z are (spec.rows), and the products and sums over the parameters run
    over the first axis of (parameter, lane, term) blocks of at least
    _FIRST_COUNT terms, which numpy reduces element by element in parameter
    order (over a first axis with one element behind it it sums pairwise
    instead).  Complex arithmetic on a real lane gives the bits of real
    arithmetic for these steps, a quotient being a product by a reciprocal
    for that reason, so each lane's numbers do not depend on the other
    lanes."""
    up, params = len(spec.upper), spec.rows
    z = spec.argument if params.dtype.kind == "c" else spec.argument.real
    if prev is None:
        t = np.ones((params.shape[1], 1), dtype=params.dtype)
        ratio = step = d = psi_scale = None
        if shifted:
            d, psi_scale = _psi(np.ascontiguousarray(params.T), up)
            d = d[:, None]
    else:
        t, d, ratio, step, psi_scale = prev
    rows = params[:, :, None] + np.arange(t.shape[1] - 1, count, dtype=float)
    new = z * rows[:up].prod(0) * (1.0 / rows[up:].prod(0))
    block = np.cumprod(np.concatenate((t[:, -1:], new), axis=1), axis=1)
    t = block if prev is None else np.concatenate((t, block[:, 1:]), axis=1)
    ratio = new if prev is None else np.concatenate((ratio, new), axis=1)
    if shifted:
        inv = 1.0 / rows
        new = inv[:up].sum(0) - inv[up:].sum(0)
        block = np.cumsum(np.concatenate((d[:, -1:], new), axis=1), axis=1)
        d = block if prev is None else np.concatenate((d, block[:, 1:]), axis=1)
        step = new if prev is None else np.concatenate((step, new), axis=1)
    return t, d, ratio, step, psi_scale


def _shifted_sum(t, d, log_z: complex, step, psi_scale, abs_sum) -> tuple:
    """The terms t_n (log z + d_n) of _shift_terms and the rounding of their
    sum (the last axis), given abs_sum = sum |t_n|: that of the ratio chain of
    t_n (_chain_rounding), of log z, and of d_n, which carries the digammas'
    error and the steps summed into it."""
    terms = t * (log_z + d)
    d_err = _PSI_ERR * psi_scale + ROUNDING * np.abs(step).sum(-1)
    return terms, _chain_rounding(terms) + (ROUNDING * abs(log_z) + d_err) * abs_sum


def _start_count(z: complex) -> int:
    """The first count of the numpy sums: where |z|^n < e^-40, within
    _FIRST_COUNT.._START_MAX."""
    count = _FIRST_COUNT if z == 0 else math.ceil(-40.0 / math.log(abs(z)))
    return min(_START_MAX, max(_FIRST_COUNT, count))


def _lane_sums(spec: SeriesSpec, shifted: bool) -> tuple:
    """pfq at |z| <= 0.999 by the numpy recurrence, and with shifted also the
    shifted sum of pfq_shift_derivative: (plain, shifted or None), lane
    results for a lane spec and Python numbers for a scalar one, which is
    summed as one lane.

    The count starts at _start_count and doubles
    until, in every lane, the last term ratio is below rho = (1 + |z|)/2 and
    the geometric majorant of the rest of sum |t_n| is below eps times it; a
    lane that terminates stops at its last term instead, once the count
    reaches it.  The plain sum's error is that majorant plus the rounding of
    the ratio chain; the shifted sum's is the majorant times a bound on
    |log z + d_n| beyond it, plus the rounding of _shifted_sum.  A lane's
    stop depends on its own terms only."""
    z = spec.argument
    rho = 0.5 * (1.0 + abs(z))
    q = rho / (1.0 - rho)
    m_stop = _termination_order(spec)  # None when no lane terminates
    if shifted and m_stop is not None:
        raise DomainError("pfq_shift_derivative: the series terminates")
    count, terms, end = _start_count(z), None, m_stop  # a lane is done once its end <= count
    # A lane that terminates before a pole of its lower parameters divides by
    # zero past the pole; it stops before those terms.
    with np.errstate(divide="ignore", invalid="ignore") if m_stop is not None else contextlib.nullcontext():
        while True:
            terms = _shift_terms(spec, count, terms, shifted)
            t, ratio = terms[0], terms[2]
            mag = np.abs(t)
            abs_sum = mag.sum(1)
            ok = (np.abs(ratio[:, -1]) <= rho) & (mag[:, -1] * q <= _EPS * abs_sum)
            if end is None and ok.all():
                break
            end = np.where(ok, count, np.inf) if end is None else np.minimum(end, np.where(ok, count, np.inf))
            if (end <= count).all():
                break
            count *= 2
            if count > _MAX_COUNT:
                raise ConvergenceError(f"pFq: no convergence within {_MAX_COUNT:,} terms")
    t, d, _, step, psi_scale = terms
    if shifted:
        log_z = spec.log_argument if spec.log_argument is not None else cmath.log(z)

    def sums(rows, n: int) -> list:
        """Plain (and shifted) values and errors of the lanes rows, ended at n."""
        if rows is None:
            rows, tn, mn, mn_sum = slice(None), t, mag, abs_sum
        else:
            tn, mn = t[rows, : n + 1], mag[rows, : n + 1]
            mn_sum = mn.sum(1)
        tail = mn[:, -1] * q
        if m_stop is not None:  # past a terminating lane's last term the rest is zero
            tail = np.where(m_stop[rows] == n, 0.0, tail)
        out = [_sum(tn), tail + ROUNDING * (mn * np.arange(1.0, n + 2.0)).sum(1)]
        if shifted:
            dn = d[rows, : n + 1]
            terms_n, rounding = _shifted_sum(tn, dn, log_z, step[rows, :n], psi_scale[rows], mn_sum)
            # |d_m - d_n| <= sum_{i >= n} |d_(i+1) - d_i|, about n |d_n - d_(n-1)|
            # for steps that fall like 1/i^2.
            reach = np.abs(log_z + dn[:, -1]) + n * np.abs(step[rows, n - 1])
            out += [_sum(terms_n), tail * reach + rounding]
        return out

    if end is None:
        out = sums(None, count)
    else:
        out = [np.empty(len(end), dtype=(complex, float)[i % 2]) for i in range(4 if shifted else 2)]
        for n in np.unique(end):
            rows = end == n
            for whole, part in zip(out, sums(rows, int(n))):
                whole[rows] = part
    if not spec.lanes:
        out = [x.item() for x in out]
    plain = EvalResult(out[0], out[1], Method.CLOSED_FORM)
    return plain, EvalResult(out[2], out[3], Method.CLOSED_FORM) if shifted else None


def _scaled_terms(spec: SeriesSpec, nodes, log_z: complex) -> tuple:
    """n^(1+alpha) t_n / z^n at large n, from the Stirling series
    log Gamma(n + p) = (n + p - 1/2) log n - n + log(2 pi)/2
                       + sum_k (-1)^(k+1) B_(k+1)(p) / (k (k+1) n^k)
    (DLMF 5.11.8), whose leading parts cancel between the parameters; summing
    log Gamma(n + p) itself would lose ~n log n * eps.  Needs n >> |p|.

    Returned with the same times log z + d_n (_shift_terms), d_n from the
    p-derivative psi(n + p) = log n + sum_k (-1)^(k+1) B_k(p) / (k n^k) of that
    series (dB_(k+1)(p)/dp = (k+1) B_k(p), DLMF 24.4.34), whose log n cancel:
    the right-hand sides of the plain and the shifted tail fit."""
    params = np.array(spec.upper + spec.lower + (1.0,))
    sign = np.r_[np.ones(len(spec.upper)), -np.ones(len(spec.lower) + 1)]
    bern = sign @ (params[:, None] ** _DEG @ _BERNOULLI_POLY.T)
    k = _DEG[1:-1]
    coef = (-1.0) ** (k + 1) * bern[k + 1] / (k * (k + 1))
    const = sum(log_gamma(b) for b in spec.lower) - sum(log_gamma(a) for a in spec.upper)
    inv = 1.0 / np.asarray(nodes, dtype=float)
    scaled = np.exp(const + np.polyval(np.r_[coef[::-1], 0.0], inv))
    shift = (-1.0) ** (k + 1) * bern[k] / k
    return scaled, scaled * (log_z + np.polyval(np.r_[shift[::-1], 0.0], inv))


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


def _power_tails(alpha: complex, a: float, log_z: complex) -> tuple:
    """S_j = sum_{n >= a} z^n n^(-1-alpha-j), j = 0.._FIT_TERMS-1, z = e^log_z,
    and the error of each S_j from its Erdelyi cusp term, which carries the
    rounding of its exponent (gamma_ratio); the other parts are left to the
    caller's fit gap.

    z = 1: Hurwitz zeta.  a |log z| <= 2: Erdelyi's expansion about z = 1
    (Higher Transcendental Functions I, 1.11(8)),
    z^a Phi(z, sigma, a) = Gamma(1-sigma) (-log z)^(sigma-1)
                           + sum_i zeta(sigma - i, a) (log z)^i / i!.
    Otherwise the Lerch asymptotic z^a sum_m c_m (sigma)_m a^(-sigma-m),
    c_m the Taylor coefficients of 1/(1 - z e^-t); its smallest term is
    about e^(-a |log z|) of the first, so the caller makes a |log z| >= 36."""
    sigma = 1.0 + alpha + np.arange(_FIT_TERMS)
    cusp_err = np.zeros(_FIT_TERMS)
    if log_z == 0:
        return _hurwitz(sigma, a), cusp_err
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
                cusp[j], rel = gamma_ratio((sg - 1.0) * log_l, (1.0, 1.0 - sg))
                cusp_err[j] = rel * abs(cusp[j])
        return zeta @ powers + cusp, cusp_err
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
    return cmath.exp(a * log_z) * np.exp(-sigma * math.log(a)) * series, cusp_err


def _sum_near_unit(spec: SeriesSpec, shifted: bool = False):
    """pFq for z at or near 1: direct partial sum to n_cut plus the tail
    n > n_cut fitted to the t_n ~ z^n n^{-1-alpha} (c0 + c1/n + ...)
    asymptotics, each power summed in closed form (_power_tails).  With
    shifted, return the pair of that sum and the shifted sum of
    pfq_shift_derivative, sum t_n (log z + d_n), from the same direct terms
    and tail powers: d_n is O(1/n) with no log n.

    The error is the gap between two fits of the same tail (nodes n_cut 2^m,
    m = 0..5 and m = 1..6), the error of the cusp terms in the tail sums and
    the rounding of the direct sum and the tail."""
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
    t, d, _, step, psi_scale = (x if x is None else x[0] for x in _shift_terms(spec, n_cut, shifted=shifted))
    direct = [(t, _chain_rounding(t))]
    if shifted:
        direct.append(_shifted_sum(t, d, log_z, step, psi_scale, np.abs(t).sum()))
    nodes = [n_cut * 2**m for m in range(_FIT_TERMS + 1)]
    vand = np.array([[(1.0 / n) ** j for j in range(_FIT_TERMS)] for n in nodes])
    sums, sums_err = _power_tails(alpha, n_cut + 1.0, log_z)
    out = []
    for (terms, rounding), rhs in zip(direct, _scaled_terms(spec, nodes, log_z)):
        coef, coef_alt = (
            np.linalg.solve(vand[lo : lo + _FIT_TERMS], rhs[lo : lo + _FIT_TERMS]) for lo in (0, 1)
        )
        tail = complex(coef @ sums)
        fit = abs(tail - complex(coef_alt @ sums)) + float(np.abs(coef) @ sums_err)
        err = float(fit + rounding + ROUNDING * abs(tail))
        out.append(EvalResult(complex(terms.sum()) + tail, err, Method.CLOSED_FORM))
    return tuple(out) if shifted else out[0]


def pfq(spec: SeriesSpec) -> EvalResult:
    """Evaluate the generalized hypergeometric series with a tail bound.

    Supported: terminating series (any z), |z| < 1, and |z| = 1 with
    Re(sum(b) - sum(a)) > 0.  Raises DomainError otherwise.

    A lane spec gives a lane result: at |z| <= 0.999 by _lane_sums, nearer
    |z| = 1 lane by lane on the scalar path.
    """
    if spec.lanes:
        if abs(spec.argument) > 1.0 - 1e-3:
            return stack(pfq(spec.lane(i)) for i in range(spec.lanes))
        return _lane_sums(spec, shifted=False)[0]
    m_stop = _termination_order(spec)
    if m_stop is not None:
        terms = np.fromiter(itertools.islice(_terms(spec), m_stop + 1), complex, m_stop + 1)
        return EvalResult(complex(terms.sum()), float(_chain_rounding(terms)), Method.CLOSED_FORM)
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
            # Every later term is 0 too (z = 0, or an underflow): what is left
            # is the rounding of the sum.
            return EvalResult(total, ROUNDING * abs_sum, Method.CLOSED_FORM)
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


def pfq_shift_derivative(spec: SeriesSpec) -> tuple:
    """pfq(spec) = sum_n t_n and the shifted sum sum_n t_n (log z + d_n),
    d_n = sum psi(a + n) - sum psi(b + n) - psi(1 + n), from the same terms,
    for a non-terminating series with |z| <= 1.  The shifted sum is the
    derivative in e at 0 of
    z^e sum_n z^n prod Gamma(a + e + n) / (prod Gamma(b + e + n) Gamma(1 + e + n))
    over prod Gamma(a) / prod Gamma(b), the residues of a double Mellin-Barnes
    pole (meijer).  At |z| <= 0.999 both come from _lane_sums, a scalar spec
    as one lane; nearer 1 from one _sum_near_unit, lane by lane for a lane
    spec.  Raises DomainError past |z| = 1, as pfq does."""
    az = abs(spec.argument)
    if az > 1.0 + 1e-14:
        raise DomainError(f"pfq_shift_derivative: the series diverges for |z| = {az} > 1")
    if az <= 1.0 - 1e-3:
        return _lane_sums(spec, shifted=True)
    if spec.lanes:
        return tuple(map(stack, zip(*(pfq_shift_derivative(spec.lane(i)) for i in range(spec.lanes)))))
    if _termination_order(spec) is not None:
        raise DomainError("pfq_shift_derivative: the series terminates")
    return _sum_near_unit(spec, shifted=True)


def family_spec(r: int, s: complex, w: complex, log_w: complex | None = None) -> SeriesSpec:
    """The light-regime series (-s/2, (1-s)/2, 1/2...; 1...; w) of order r+1."""
    upper = (-s / 2.0, (1.0 - s) / 2.0) + ((0.5 + 0.0j),) * (r - 1)
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
    spec = family_spec(r, s, w)
    if _termination_order(spec) is not None:
        return pfq(spec)
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

        sol = solve_ivp(seg_rhs, y, _ODE_RTOL, _ODE_ATOL)
        if not sol.success:
            raise ConvergenceError(f"ODE continuation failed: {sol.message}")
        y = sol.y
    val = complex(y[0])
    err = max(1e-11 * (1.0 + abs(val)), 1e-14)
    return EvalResult(val, err, Method.CONTOUR)
