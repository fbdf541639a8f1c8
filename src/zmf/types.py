"""Shared result and parameter types."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Method(str, enum.Enum):
    CLOSED_FORM = "closed-form"
    QUADRATURE = "quadrature"
    MONTE_CARLO = "monte-carlo"
    CONTOUR = "contour"
    LIMIT = "limit"


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
        if not (self.abs_err >= 0.0 and self.abs_err < float("inf")):
            raise ValueError(f"abs_err must be finite and >= 0, got {self.abs_err}")


@dataclass(frozen=True)
class ZmfPoint:
    """One evaluation point (r, k, s) of W_r(k; s)."""

    r: int
    k: float
    s: complex

    _BOUNDARY_TOL = 1e-12

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be a positive integer")

    @property
    def regime(self) -> Regime:
        edge = float(2**self.r)
        ak = abs(self.k)
        if abs(ak - edge) <= self._BOUNDARY_TOL:
            return Regime.BOUNDARY
        return Regime.LIGHT if ak > edge else Regime.HEAVY


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for the torus-integration oracles."""

    tol: float = 1e-10
    seed: int = 0
    samples: int = 1_000_000

    def __post_init__(self):
        if self.tol < 1e-14:
            raise ValueError("tol must be >= 1e-14")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
