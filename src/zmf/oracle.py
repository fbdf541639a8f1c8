"""Independent ground truth for W_r(k;s): direct torus integration, Monte
Carlo sampling and 1-d integration against the closed-form densities.

The r-dimensional torus average reduces by Fubini to a nest of 1-d
integrals over the closed-form base T_0(x; s) = (|x - 1|^s + |x + 1|^s)/2,

    T_r(k;s) = (2/pi) int_0^{pi/2} |2 cos t|^s T_{r-1}(k / (2 cos t); s) dt,

one row-batched recursion at every depth r >= 1 (``_t_rows``).  Each
segment between singular points is one ladder row, and each node reads its
exact distance to the nearer end from the quadrature core (``quadutil``),
in the nest and in the density integral alike.  Nothing here touches the
hypergeometric closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .types import EvalResult, Method, QuadratureConfig, ZmfPoint
from .quadutil import cabs, split_points, ts_rows

_DEFAULT_CFG = QuadratureConfig()


def _abs_pow(base: np.ndarray, s: complex) -> np.ndarray:
    """|base|^s = exp(s log|base|), elementwise; 0^s -> 0 for Re s > 0.
    A real s (imaginary part 0) gives a real array, through the float exp."""
    mag = np.abs(base)
    if s == 0:
        return np.ones_like(mag)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp((s.real if s.imag == 0 else s) * np.log(mag))
    out = np.where(mag == 0.0, 0.0, out)
    return out


def _t1(k: float, s: complex, tol: float):
    """T_1(k; s) as the one-row call of ``_t_rows``; returns (value, error)."""
    v, e = _t_rows(1, np.array([abs(float(k)) - 2.0]), s, np.array([tol]))
    return v[0], e[0]


def _t_rows(r: int, delta: np.ndarray, s: complex, tol: np.ndarray):
    """T_r(k_i; s) to tolerance tol_i for every row, given the signed
    distance delta_i = |k_i| - 2^r; returns arrays (value, error).

    The folded integral has critical angles theta = acos(min(k/2^r, 1)),
    where k/(2cos t) crosses the inner edge 2^(r-1) (T_0's singular point 1
    at r = 1), and pi/2, where the weight vanishes.  The segments
    [0, theta] and [theta, pi/2] (a segment of length 0 is dropped) are one
    ladder row each, and every node is taken from its nearer end t0: at
    distance x from the left end, or at x = -rest from the right one.  At
    t = t0 + x, with c0 = cos t0 exact (1, min(k/2^r, 1) or 0) and
    p = 2 sin(t0 + x/2) sin(x/2), cos t = c0 - p and
    k - 2^r cos t = (k - 2^r c0) + 2^r p, where k - 2^r c0 is exactly delta,
    max(delta, 0) or k: both are exact where they vanish.  At r = 1 the
    integrand |2cos t|^s T_0(k/|2cos t|) is
    (|k - 2cos t|^s + |k + 2cos t|^s)/2, two powers read from that exact
    numerator; at r >= 2 each level's inner T_(r-1) at all nodes is one
    recursive call.  All segments of all rows are rows of one level ladder.
    """
    edge = 2.0**r
    k = edge + delta
    ctheta = np.minimum(k / edge, 1.0)
    # theta from the exact distance, 2^r sin^2(theta/2) = -delta/2, not as
    # acos of the rounded k: an inner row next to its edge sets its root by
    # delta, below the rounding of k.
    theta = 2.0 * np.arcsin(np.sqrt(np.maximum(-delta, 0.0) / (2.0 * edge)))
    n = len(delta)
    # (t0, c0, k - 2^r c0) at the ends 0, theta and pi/2.
    at_0 = (np.zeros(n), np.ones(n), delta)
    at_theta = (theta, ctheta, np.maximum(delta, 0.0))
    at_pi2 = (np.full(n, 0.5 * math.pi), np.zeros(n), k)
    # Segments slot by slot (every row's first segment, then the second
    # ones), so np.add.at sums each row's segments in this order.
    row = np.tile(np.arange(n), 2)
    lo_end = np.concatenate([at_0, at_theta], axis=1)
    hi_end = np.concatenate([at_theta, at_pi2], axis=1)
    length = hi_end[0] - lo_end[0]
    keep = length > 0.0
    row, lo_end, hi_end, length = row[keep], lo_end[:, keep], hi_end[:, keep], length[keep]
    kh, tolh = k[row], tol[row]

    # |2cos t|^s T_(r-1)(k/|2cos t|) -> |k|^s as cos t -> 0; below this
    # threshold the first-order large-argument expansion is already accurate
    # to ~1e-28 relative, and it avoids both overflow in the inner argument
    # and the inner error floor blowing up under the diverging weight.
    edge_in = 0.5 * edge
    thr = 1e-7 * kh / edge_in
    alpha = (-s / 2.0) * ((1.0 - s) / 2.0) * 0.5 ** (r - 2)
    k_pow_s = _abs_pow(kh, s) if r > 1 else None

    def f(rows: np.ndarray, u: np.ndarray, rest: np.ndarray):
        left = u <= rest
        x = np.where(left, u, -rest)
        t0, c0, num0 = np.where(left, lo_end[:, rows, None], hi_end[:, rows, None])
        p = 2.0 * np.sin(t0 + 0.5 * x) * np.sin(0.5 * x)
        absc = 2.0 * (c0 - p)
        num = num0 + edge * p
        if r == 1:
            # k + 2cos t = num + 2|2cos t|; bounded as cos t -> 0.
            return 0.5 * (_abs_pow(num, s) + _abs_pow(num + 2.0 * absc, s))
        near = absc < thr[rows, None]
        half = np.broadcast_to(rows[:, None], u.shape)
        out = np.empty(u.shape, dtype=complex)
        errs = np.zeros(u.shape)
        hn = half[near]
        out[near] = k_pow_s[hn] * (1.0 + alpha * edge_in * edge_in * (absc[near] / kh[hn]) ** 2)
        h_in, a_in = half[~near], absc[~near]
        pw = _abs_pow(a_in, s)
        wgt = cabs(pw)
        # Floor the inner distance: a node within rounding of the inner edge
        # (true distance > 0, weight ~1e-300) must not evaluate the genuinely
        # divergent edge integral.
        d_in = num[~near] / a_in
        tiny = np.abs(d_in) < 1e-250
        d_in[tiny] = np.where(d_in[tiny] >= 0.0, 1e-250, -1e-250)
        v, e = _t_rows(r - 1, d_in, s, tolh[h_in] / np.maximum(1.0, wgt))
        out[~near] = pw * v
        errs[~near] = wgt * e
        return out, errs

    # The folded integral is doubled, so each segment gets its row's
    # tolerance over twice the row's segment count.
    segs = np.bincount(row, minlength=n)[row]
    val, err, _ = ts_rows(f, 0.0, length, tolh / (2.0 * segs), max_level=7)
    total = np.zeros(n, dtype=complex)
    errs = np.zeros(n)
    np.add.at(total, row, val)
    np.add.at(errs, row, err)
    return 2.0 * total / math.pi, 2.0 * errs / math.pi


def _check_integrable(r: int, k: float, s: complex) -> None:
    """Raise DomainError where the torus average diverges; both oracles
    would return a finite value with a finite bar there."""
    if s.real <= -1.0 and k < 2.0**r:
        raise DomainError("non-integrable: Re(s) <= -1 with zeros on the torus")
    if k == 2.0**r and s.real <= -r / 2.0:
        raise DomainError("non-integrable: Re(s) <= -r/2 at |k| = 2^r")


def torus_quadrature(point: ZmfPoint, cfg: QuadratureConfig = _DEFAULT_CFG) -> EvalResult:
    """Direct numerical value of W_r(k;s) from the defining torus average."""
    if point.r > 3:
        raise DomainError("torus_quadrature supports r <= 3 (use monte_carlo beyond)")
    s = complex(point.s)
    r, k = point.r, abs(float(point.k))
    _check_integrable(r, k, s)
    if r >= 2 and 0.0 < k < 2.0**r and s.real < -0.5:
        # There the inner integral diverges at the regime edge (T_1(k') like
        # |k' - 2|^(s+1/2) at r = 2), which the nest does not resolve: its
        # edge floor returned values off by up to 1e84.
        raise DomainError("torus nest needs Re(s) >= -1/2 for 0 < |k| < 2^r at r >= 2")
    if r == 1:
        val, err = _t1(k, s, cfg.tol)
    elif k == 0.0:
        # Factors are independent: T_r(0;s) = T_1(0;s)^r.
        v, e = _t1(0.0, s, cfg.tol / r)
        val, err = v**r, r * abs(v) ** (r - 1) * e
    else:
        v, e = _t_rows(r, np.array([k - 2.0**r]), s, np.array([cfg.tol]))
        val, err = v[0], e[0]
    return EvalResult(val, err, Method.QUADRATURE)


_MC_CHUNK = 1 << 17


def monte_carlo(point: ZmfPoint, cfg: QuadratureConfig = _DEFAULT_CFG) -> EvalResult:
    """Sample mean of |k + prod 2 cos Theta_i|^s with a Philox counter-based
    generator; bit-for-bit reproducible for a given seed and sample count."""
    s = complex(point.s)
    _check_integrable(point.r, abs(float(point.k)), s)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    n = cfg.samples
    total = 0.0 + 0.0j
    total_sq = 0.0
    done = 0
    while done < n:
        m = min(_MC_CHUNK, n - done)
        theta = rng.uniform(0.0, math.pi, size=(point.r, m))
        prod = np.prod(2.0 * np.cos(theta), axis=0)
        vals = _abs_pow(point.k + prod, s)
        total += vals.sum()
        total_sq += float(np.sum(np.abs(vals) ** 2))
        done += m
    mean = total / n
    var = max(total_sq / n - abs(mean) ** 2, 0.0)
    se = math.sqrt(var / n)
    return EvalResult(mean, 3.0 * se, Method.MONTE_CARLO)


def density_quadrature(point: ZmfPoint, cfg: QuadratureConfig = _DEFAULT_CFG) -> EvalResult:
    """W_r(k;s) = int_{-2^r}^{2^r} |k + t|^s p_hat_r(t) dt over the signed
    product t, r <= 4: closed-form densities for r <= 3, the batched
    recursion on G_3 at r = 4.

    The singular points -2^r, 0, 2^r and -k are exact floats.  Each segment
    between them is one ladder row, and every node is taken from its nearer
    end: at distance u = x from the left end, or u = rest from the right
    one.  The integrand is built from that exact
    distance: |t| = u at 0, 2^r - |t| = u at +-2^r and |k + t| = u at -k.
    Raises ConvergenceError when a segment misses its share of the
    tolerance.
    """
    from .density import _p_hat_parts

    if point.r > 4:
        raise DomainError("density_quadrature supports r <= 4")
    s = complex(point.s)
    if s.real <= -1.0:
        raise DomainError("requires Re(s) > -1")
    r, k = point.r, abs(float(point.k))
    edge = 2.0**r
    segs = np.array(split_points(-edge, edge, [0.0, -k]))

    def f(rows: np.ndarray, x: np.ndarray, rest: np.ndarray) -> tuple:
        left = x <= rest
        u = np.where(left, x, rest)
        end = np.where(left, segs[rows, None], segs[rows + 1, None])
        dirn = np.where(left, 1.0, -1.0)
        # At t = end + dirn * u, |t| = |end| + grow * u and
        # 2^r - |t| = (2^r - |end|) - grow * u, both exact at the end.
        g = np.where(end == 0.0, 1.0, np.sign(end) * dirn) * u
        dens, e, ok = _p_hat_parts(r, (np.abs(end) + g).ravel(), (edge - np.abs(end) - g).ravel())
        if not ok.all():
            raise ConvergenceError("density_quadrature: the G_4 recursion did not converge")
        pw = _abs_pow((k + end) + dirn * u, s)
        return pw * dens.reshape(u.shape), cabs(pw) * e.reshape(u.shape)

    nseg = len(segs) - 1
    val, err, ok = ts_rows(f, np.zeros(nseg), np.diff(segs), cfg.tol / nseg)
    if not ok.all():
        raise ConvergenceError(f"density_quadrature missed tol {cfg.tol:.1e}")
    return EvalResult(complex(np.sum(val)), float(np.sum(err)), Method.QUADRATURE)
