"""Shared result and parameter types.

A lane call evaluates one formula at several parameter sets at once: its
parameters are 1-d arrays over lanes, and its EvalResult holds arrays of
values and errors, one entry per lane.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Rounding error of a floating-point sum or of exp(x), relative to the sum of
# the magnitudes of its terms (a few units in the last place).
ROUNDING = 4.0 * 2.0**-52
_INF = float("inf")


def check_finite(k: float, s) -> None:
    """Raise DomainError unless k and s (a scalar or an array of lanes) are finite."""
    finite = np.isfinite(s).all() if isinstance(s, np.ndarray) else cmath.isfinite(s)
    if not (math.isfinite(k) and finite):
        raise DomainError(f"k and s must be finite, got k={k}, s={s}")


def edge_log(r: int, k: float):
    """log(k^2 / 4^r) from the exact distance k - 2^r, so that a near-unit
    series sees the |k - 2^r|^(s + r/2) cusp without the rounding of
    k^2 / 4^r; None at k = 0."""
    edge = 2.0**r
    return 2.0 * math.log1p((k - edge) / edge) if k > 0.0 else None


class Method(str, enum.Enum):
    CLOSED_FORM = "closed-form"
    QUADRATURE = "quadrature"
    MONTE_CARLO = "monte-carlo"
    CONTOUR = "contour"


class Regime(str, enum.Enum):
    LIGHT = "light"
    BOUNDARY = "boundary"
    HEAVY = "heavy"


@dataclass(frozen=True)
class EvalResult:
    """A numerical value together with an absolute-error estimate and the
    route that produced it."""

    value: complex
    abs_err: float
    method: Method

    def __post_init__(self):
        err = self.abs_err
        if type(err) is np.ndarray:
            ok = np.minimum.reduce(err) >= 0.0 and np.maximum.reduce(err) < _INF
        else:
            ok = err >= 0.0 and err < _INF
        if not ok:
            raise ValueError(f"abs_err must be finite and >= 0, got {err}")


def stack(results) -> EvalResult:
    """Scalar results of one method as the lanes of one result."""
    results = list(results)
    return EvalResult(
        np.array([r.value for r in results], dtype=complex),
        np.array([r.abs_err for r in results], dtype=float),
        results[0].method,
    )


def lane_params(values) -> tuple:
    """Parameters as complex scalars or, when any of them is an array, as
    complex arrays broadcast to one common axis of lanes."""
    if np.ndarray not in map(type, values):
        return tuple(map(complex, values))
    shapes = {v.shape for v in values if isinstance(v, np.ndarray)}
    if len(shapes) > 1 or len(next(iter(shapes))) != 1:
        raise DomainError("lane parameters must be 1-d arrays of one length")
    (shape,) = shapes
    return tuple(
        v.astype(complex, copy=False) if isinstance(v, np.ndarray) else np.full(shape, v, dtype=complex)
        for v in values
    )


@dataclass(frozen=True)
class ZmfPoint:
    """One evaluation point (r, k, s) of W_r(k; s)."""

    r: int
    k: float
    s: complex

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        check_finite(self.k, self.s)

    @property
    def regime(self) -> Regime:
        edge = float(2**self.r)
        ak = abs(self.k)
        if ak == edge:
            return Regime.BOUNDARY
        return Regime.LIGHT if ak > edge else Regime.HEAVY


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for the torus-integration oracles."""

    tol: float = 1e-10
    seed: int = 0
    samples: int = 1_000_000

    def __post_init__(self):
        if not self.tol >= 1e-14:
            raise ValueError("tol must be >= 1e-14")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
