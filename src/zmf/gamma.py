"""Complex gamma kernel: the principal-branch log-gamma and the principal
complex power.

Everything downstream (hypergeometric series, Mellin-Barnes integrands,
moment formulas) funnels through these two scalar routines, so they are kept
dependency-free and deterministic.  log_gamma uses a fixed Lanczos scheme
(g = 607/128, 15 coefficients) with reflection for Re z < 1/2; the accuracy
envelope is ~1e-14 relative for |z| <= 100 away from the pole set.
"""

from __future__ import annotations

import cmath

from .errors import PoleError

# Lanczos approximation, g = 607/128, 15 terms (Godfrey's coefficients).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LOG_SQRT_2PI = 0.91893853320467274178
_LOG_PI = 1.1447298858494001741
_POLE_TOL = 1e-12


def nearest_int(z: complex, tol: float):
    """The integer n with |Re z - n| <= tol and |Im z| <= tol, else None."""
    z = complex(z)
    if abs(z.imag) > tol:
        return None
    n = round(z.real)
    return n if abs(z.real - n) <= tol else None


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)), overflow-safe for large |Im z|."""
    if z.imag > 1.0:
        # sin(pi z) = -e^{-i pi z}(1 - e^{2 i pi z})/(2i)
        return (
            -1j * cmath.pi * z
            + cmath.log(1.0 - cmath.exp(2j * cmath.pi * z))
            - cmath.log(2j)
            + 1j * cmath.pi
        )
    if z.imag < -1.0:
        return _log_sin_pi(z.conjugate()).conjugate()
    return cmath.log(cmath.sin(cmath.pi * z))


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Raises PoleError within 1e-12 of the non-positive integers.
    """
    z = complex(z)
    n = nearest_int(z, _POLE_TOL)
    if n is not None and n <= 0:
        raise PoleError(f"log_gamma: z={z} is within {_POLE_TOL} of a pole")
    if z.real < 0.5:
        # Reflection: log Gamma(z) = log pi - log sin(pi z) - log Gamma(1-z).
        return _LOG_PI - _log_sin_pi(z) - log_gamma(1.0 - z)
    zz = z - 1.0
    a = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        a += _LANCZOS_C[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + cmath.log(a) + (zz + 0.5) * cmath.log(t) - t


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
