"""Complex gamma kernel: the principal-branch log-gamma and the principal
complex power.

log_gamma is scipy.special.loggamma, the principal branch of log Gamma
(continuous in z off the negative real axis), behind a pole guard.  Every
Gamma factor in the package goes through it (hyper.gamma_ratio).
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.special import loggamma

from .errors import PoleError

_POLE_TOL = 1e-12


def pole_order(z: complex, tol: float):
    """m >= 0 when z lies within tol of the non-positive integer -m (a pole
    of Gamma), else None."""
    z = complex(z)
    if abs(z.imag) > tol:
        return None
    n = round(z.real)
    return -n if n <= 0 and abs(z.real - n) <= tol else None


def any_pole(values, tol: float) -> bool:
    """Whether a value, a scalar or an array of lanes, lies within tol of a
    pole of Gamma; an array's entries are tested one by one only when one
    lies at or left of Re z = tol."""
    for v in values:
        if type(v) is not np.ndarray:
            if pole_order(v, tol) is not None:
                return True
        elif v.real.min() <= tol and any(pole_order(x, tol) is not None for x in v.flat):
            return True
    return False


def log_gamma(z):
    """Principal branch of log Gamma(z), elementwise for an array of lanes.

    Raises PoleError within 1e-12 of the non-positive integers.
    """
    if isinstance(z, np.ndarray):
        if any_pole((z,), _POLE_TOL):
            raise PoleError(f"log_gamma: a lane is within {_POLE_TOL} of a pole")
        return loggamma(z.astype(complex, copy=False))
    z = complex(z)
    if pole_order(z, _POLE_TOL) is not None:
        raise PoleError(f"log_gamma: z={z} is within {_POLE_TOL} of a pole")
    return complex(loggamma(z))


def cpow(z: complex, s: complex) -> complex:
    """z**s defined as exp(s * principal-log(z)); 0**s = 0 for Re s > 0."""
    z = complex(z)
    if z == 0:
        if complex(s).real > 0:
            return 0.0 + 0.0j
        if s == 0:
            return 1.0 + 0.0j
        raise ValueError("cpow: 0 raised to a power with Re(s) <= 0")
    return cmath.exp(complex(s) * cmath.log(z))
