"""Complex gamma kernel: the principal-branch log-gamma and the principal
complex power.

log_gamma is scipy.special.loggamma, the principal branch of log Gamma
(continuous in z off the negative real axis), behind a pole guard.
meijer sums its Mellin-Barnes integrands with the same scipy kernel on
arrays, so every Gamma factor in the package is one kernel.
"""

from __future__ import annotations

import cmath

from scipy.special import loggamma

from .errors import PoleError

_POLE_TOL = 1e-12


def nearest_int(z: complex, tol: float):
    """The integer n with |Re z - n| <= tol and |Im z| <= tol, else None."""
    z = complex(z)
    if abs(z.imag) > tol:
        return None
    n = round(z.real)
    return n if abs(z.real - n) <= tol else None


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Raises PoleError within 1e-12 of the non-positive integers.
    """
    z = complex(z)
    n = nearest_int(z, _POLE_TOL)
    if n is not None and n <= 0:
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
