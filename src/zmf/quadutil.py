"""Vectorized tanh-sinh (double-exponential) quadrature.

Used everywhere an integrand has integrable algebraic or logarithmic
endpoint singularities; node placement decays double-exponentially toward
the endpoints, so |x - a|^sigma with sigma > -1 converges at spectral rate
without explicit substitutions.

Node tables.  Level 0 is the grid h = 1/2 on [-6.5, 6.5]; level j >= 1 adds
the odd positions of the grid h = 2^-(j+1), so the grids nest and each
refinement evaluates only its new nodes.  Each level's table holds, in t
order, the node's exact distance d to the nearer end of (-1, 1) (1 - |x|
evaluated in exponential form), its weight w, and whether that end is the
right one; nodes whose weight or distance underflows are dropped.  The
tables (12,485 nodes up to level 9) are built once at import, so a level
costs a gather, the integrand and one weighted sum.  Nodes are placed at
b - c1*d or a + c1*d rather than c2 + c1*x: plain affine mapping rounds
nodes onto the endpoints once the distance drops below one ulp, which
evaluates endpoint-singular integrands at the singularity itself.

Distances to both ends.  A ``ts_rows`` integrand is called as
f(rows, x, rest) with rest = b - x.  Next to b, rest is the table's c1*d,
exact where the node x itself is rounded (and clipped within one ulp of
b); elsewhere it is b - x.  Next to a = 0 the node x is its own exact
distance.  So an integrand singular at both ends of a piece reads the
distance to a from x and the distance to b from rest, and a caller
integrates each segment between singular points as one row, taking at each
node the nearer end.

Row ladder.  ``ts_rows`` integrates many rows (a_i, b_i, tol_i) through the
same level ladder with one integrand call per level on a 2-D grid of the
rows still active.  Each row stops at its own level by the scalar rule:
the successive difference falls below tol_i * (1 + |value|) or below
tol_i.  Its error is that last difference plus ROUNDING |value|, so a
row whose last two levels agree to the bit still carries the rounding of
its sum.  An integrand whose values are inner integrals returns (values,
errors): the value c1 h sum w_i f_i is linear in the f_i, so the row's
error gains c1 h sum w_i e_i at its last level.  A row that exhausts
max_level keeps its last refinement and is flagged unconverged.
``_ts_run`` is the one-row call over the whole ladder and gives the same
bits as a row of a batch.  Nothing here raises on non-convergence: a
caller raises on the flag, or (as the torus nest does) carries an
unconverged row's last difference in its error.  A level whose sum (or
error sum) is not finite raises ConvergenceError at once: no later level
can repair it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .types import ROUNDING

# For an endpoint singularity |x-a|^sigma the transformed tail decays like
# exp(-(1+sigma) pi/2 sinh t), so the window must be wide enough for the
# worst sigma handled (about -0.9 here); 6.5 puts the truncation error below
# 1e-14 even at sigma = -0.9.
_T_MAX = 6.5
_W_CUT = 1e-300
_MAX_LEVEL = 9
# Rows are evaluated in blocks of at most this many nodes, which bounds the
# integrand's temporaries when many rows reach deep levels.
_BLOCK = 1 << 16


def _node_table(t: np.ndarray) -> tuple:
    """(d, w, right) for the transform abscissae t, underflowed nodes dropped."""
    st = 0.5 * math.pi * np.sinh(t)
    # 1 - tanh(u) = 2 e^{-2u} / (1 + e^{-2u}), computed without cancellation.
    e = np.exp(-2.0 * np.abs(st))
    d = 2.0 * e / (1.0 + e)
    # sech(st)^2 = 4 e / (1+e)^2 with e = exp(-2|st|); the direct
    # cosh(st)^2 form overflows beyond |st| ~ 355.
    w = 0.5 * math.pi * np.cosh(t) * 4.0 * e / (1.0 + e) ** 2
    keep = (w > _W_CUT) & (d > 0.0)
    return d[keep], w[keep], st[keep] >= 0.0


def _build_tables() -> tuple:
    h = 0.5
    tables = [_node_table(np.arange(-_T_MAX, _T_MAX + 0.5 * h, h))]
    for _ in range(_MAX_LEVEL):
        h *= 0.5
        tables.append(_node_table(np.arange(-_T_MAX + h, _T_MAX, 2.0 * h)))
    return tuple(tables)


_TABLES = _build_tables()


def _weighted_sum(f, a, b, c1, rows: np.ndarray, level: int) -> tuple:
    """sum_i w_i f(x_i, b - x_i) over one level's nodes, for each row in
    `rows`, with b - x_i exact at the nodes next to b; and sum_i w_i e_i
    where f returns (values, errors), else None."""
    d, w, right = _TABLES[level]
    step = max(1, _BLOCK // len(d))
    parts, errs = [], []
    for i in range(0, len(rows), step):
        blk = rows[i:i + step]
        lo, hi, cd = a[blk, None], b[blk, None], c1[blk, None] * d
        pts = np.where(right, hi - cd, lo + cd)
        # Clamp strictly inside (a, b): once c1*d is below one ulp the affine
        # map rounds onto the endpoint, which endpoint-singular integrands
        # cannot take.
        pts = np.clip(pts, np.nextafter(lo, hi), np.nextafter(hi, lo))
        rest = np.where(right, cd, hi - pts)
        out = f(blk, pts, rest)
        if type(out) is tuple:
            out, e = out
            errs.append(np.sum(w * e, axis=1))
        parts.append(np.sum(w * out, axis=1))
    total, etotal = np.concatenate(parts), (np.concatenate(errs) if errs else None)
    if not (np.isfinite(total).all() and (etotal is None or np.isfinite(etotal).all())):
        raise ConvergenceError(f"tanh-sinh: the level-{level} sum is not finite")
    return total, etotal


def cabs(z: np.ndarray) -> np.ndarray:
    """|z| elementwise with the same bits as Python's abs() on each element;
    numpy's vectorized complex absolute differs from it in the last bit."""
    return np.hypot(z.real, z.imag)


def ts_rows(f, a, b, tol, max_level: int = _MAX_LEVEL):
    """Integrate row i over (a_i, b_i) to tolerance tol_i, all rows through
    one level ladder.

    f(rows, x, rest) gets the indices of the active rows, a 2-D array x of
    their nodes, one row each, and the same-shape array rest of the nodes'
    distances b_i - x, exact next to b_i (see the module docstring); it
    returns the integrand values in that shape, or (values, errors).
    Returns arrays (value, error_estimate, converged).
    """
    if max_level > _MAX_LEVEL:
        raise ValueError(f"max_level {max_level} exceeds the node tables ({_MAX_LEVEL})")
    a, b, tol = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (a, b, tol))
    a, b, tol = np.broadcast_arrays(a, b, tol)
    if not len(a):
        return a.copy(), a.copy(), np.zeros(0, dtype=bool)
    c1 = 0.5 * (b - a)
    rows = np.arange(len(a))
    h = 0.5
    total, etotal = _weighted_sum(f, a, b, c1, rows, 0)
    value = c1 * h * total
    inner = 0.0 if etotal is None else c1 * h * etotal
    diff = np.full(len(a), np.inf)
    ok = np.zeros(len(a), dtype=bool)
    for level in range(1, max_level + 1):
        h *= 0.5
        part, epart = _weighted_sum(f, a, b, c1, rows, level)
        total[rows] += part
        if epart is not None:
            etotal[rows] += epart
            inner[rows] = c1[rows] * h * etotal[rows]
        cur = c1[rows] * h * total[rows]
        dif = cabs(cur - value[rows])
        rtol = tol[rows]
        done = (dif <= rtol * (1.0 + cabs(cur))) | (dif <= rtol)
        value[rows] = cur
        diff[rows] = dif
        ok[rows[done]] = True
        rows = rows[~done]
        if not len(rows):
            break
    return value, diff + ROUNDING * cabs(value) + inner, ok


def _ts_run(f, a: float, b: float, tol: float):
    """One row of the whole level ladder for a 1-D integrand f(x).
    Returns (value, error_estimate, converged)."""
    val, err, ok = ts_rows(lambda rows, x, rest: f(x[0])[None, :], a, b, tol)
    return val[0], err[0], bool(ok[0])


def split_points(a: float, b: float, pts) -> list:
    """Sorted breakpoints strictly inside (a, b), with the endpoints added."""
    inner = sorted({p for p in pts if a < p < b})
    return [a, *inner, b]
