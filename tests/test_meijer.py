import random

import mpmath
import pytest

from zmf.errors import ContourError, DomainError
from zmf.meijer import (
    MeijerSpec,
    meijer_mb,
    meijer_triple_integral,
    w2_g_spec,
    w3_g_spec,
)


def mp_g(spec: MeijerSpec) -> complex:
    m, n, p, q = spec.orders
    a = [list(spec.a_params[:n]), list(spec.a_params[n:])]
    b = [list(spec.b_params[:m]), list(spec.b_params[m:])]
    return complex(mpmath.meijerg(a, b, spec.argument))


@pytest.mark.parametrize("s,k", [(0.5, 1.0), (2.0, 3.0), (1.2, 6.0), (0.0, 2.0)])
def test_w3_block_against_mpmath(s, k):
    spec = w3_g_spec(s, k)
    got = meijer_mb(spec)
    want = mp_g(spec)
    assert got.value == pytest.approx(want, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("s,k", [(1.0, 1.0), (1.0, 2.0), (3.0, 1.0)])
def test_w2_block_against_mpmath(s, k):
    # half-integer left poles interleave the integer right family here: the
    # right poles are simple up to (n - 1)/2 and double after it
    spec = w2_g_spec(s, k)
    got = meijer_mb(spec)
    want = mp_g(spec)
    assert got.value == pytest.approx(want, rel=1e-10, abs=1e-12)


def _sweep_specs(seed: int = 6, count: int = 16) -> list:
    """Seeded W_3 blocks at real and complex s, and W_2 blocks at
    n = 1, 3, 5.  k stays where mpmath.meijerg is quick (k <= 7.5 for W_3,
    k <= 3.8 for W_2)."""
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        if i % 3 == 2:
            specs.append(w2_g_spec((1, 3, 5)[(i // 3) % 3], rng.uniform(0.3, 3.8)))
        else:
            im = rng.uniform(-3.0, 3.0) if i % 2 else 0.0
            specs.append(w3_g_spec(complex(rng.uniform(-0.8, 4.0), im), rng.uniform(0.3, 7.5)))
    return specs


@pytest.mark.parametrize("spec", _sweep_specs())
def test_sweep_against_mpmath_within_error_bar(spec):
    # the reported error must cover the true error and stay small
    got = meijer_mb(spec)
    want = mp_g(spec)
    assert abs(got.value - want) <= got.abs_err <= 1e-12 * (1.0 + abs(got.value))


# 25-digit mpmath.meijerg at z = (k/8)^2 and (k/4)^2 from the exact k; each
# takes mpmath one to three minutes, so they are frozen here.
_NEAR_EDGE = [
    (w3_g_spec(0.5, 7.99), "80.32004270815202546305"),
    (w3_g_spec(0.5, 7.9999), "80.44143256838058641727"),
    (w2_g_spec(1, 3.999), "-61.99705145601145049015"),
    (w2_g_spec(3, 3.999), "72.30922882577244158127"),
]


@pytest.mark.parametrize("spec, want", _NEAR_EDGE)
def test_next_to_unit_argument(spec, want):
    # k = 7.99 sums 8,193 terms directly; z = 0.99998 at k = 7.9999
    # and 0.99950 at k = 3.999 take the fitted near-unit tail.
    got = meijer_mb(spec)
    want = float(want)
    assert abs(got.value - want) <= got.abs_err <= 1e-12 * (1.0 + abs(got.value))


@pytest.mark.parametrize(
    "spec",
    [
        MeijerSpec((0.3, 0.7, 1.1, 0.2), (0.4, 0.15, 0.0, 0.5), (2, 4, 4, 4), 0.3),
        MeijerSpec((0.3 + 0.2j, 0.7, 1.1), (0.4, -0.35, 0.5), (2, 3, 3, 3), 0.7),
    ],
)
def test_non_integer_gap_is_two_slater_series(spec):
    # b_1 - b_2 is not an integer: every right pole is simple.
    got = meijer_mb(spec)
    want = mp_g(spec)
    assert abs(got.value - want) <= got.abs_err <= 1e-12 * (1.0 + abs(got.value))


def test_coalescing_pole_families_raise():
    # left poles a - 1 - l = -1, -2, ... land on right poles b + l = -1, 0, ...
    spec = MeijerSpec((0.0,) * 3, (-1.0, 0.5, 0.5), (2, 3, 3, 3), 0.5)
    with pytest.raises(ContourError, match="coalesce"):
        meijer_mb(spec)


def test_conjugation_symmetry():
    s = 1.5 + 0.4j
    up = meijer_mb(w3_g_spec(s, 2.0)).value
    dn = meijer_mb(w3_g_spec(s.conjugate(), 2.0)).value
    assert dn == pytest.approx(up.conjugate(), rel=1e-10)


def test_cross_method_triple_integral():
    # Both routes return the bare G value, normalized identically.  With the
    # upper halves of x2 and x3 integrated in 1 - x the routes agree to
    # ~1e-14 for every s; forming 1 - x from a node lost the mass of
    # (1 - x3)^((s-1)/2) within an ulp of x3 = 1, 3e-9 relative at s = 0 and
    # 0.14 at s = -0.9.
    for s in (0.5, 1.2, 2.0, 0.0, -0.5, -0.9, -0.5 + 3j):
        for k in (1.0, 4.0, 6.0):
            a = meijer_mb(w3_g_spec(s, k))
            b = meijer_triple_integral(s, k)
            assert b.value == pytest.approx(a.value, rel=1e-12)
            assert abs(b.value - a.value) <= a.abs_err + b.abs_err


def test_invalid_spec_rejected():
    with pytest.raises(DomainError):
        MeijerSpec((0.5,) * 4, (0.0,) * 4, (2, 4, 4, 4), 1.5)
    with pytest.raises(DomainError):
        MeijerSpec((0.5,) * 3, (0.0,) * 3, (1, 1, 3, 3), 0.5)
