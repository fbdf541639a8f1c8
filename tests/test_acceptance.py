"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single pass/fail line
with the worst observed residual, and asserts it.  Oracle-equivalence tests
compare the closed-form evaluators against the independent torus
integration (or the density route where noted) at the stated tolerances.
"""

import math
import time

import numpy as np

from zmf.analysis import (
    check_fe_heavy,
    check_fe_light,
    count_zeros_box,
    find_zeros_w1,
    mahler_w2_routes,
    mahler_w3_routes,
    w1_rational_decomposition,
)
from zmf.density import _g_closed, g_recursion, moment, moment_quadrature
from zmf.meijer import meijer_mb, meijer_triple_integral, w3_g_spec
from zmf.oracle import density_quadrature, torus_quadrature
from zmf.types import QuadratureConfig, ZmfPoint
from zmf.zmf import (
    boundary_derivative_check,
    k_zero_derivatives,
    w,
    w2_odd,
    w_real_s,
)


def report(num: int, desc: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {desc}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_oracle_equivalence_r1():
    cfg = QuadratureConfig(tol=1e-10)
    t0 = time.monotonic()
    worst = 0.0
    for k in (0.0, 0.5, 1.0, 1.9, 2.0, 2.1, 3.0, 5.0):
        for s in (-0.4, 0.3, 1.0, 2.0, 2.5, 1.0 + 0.5j):
            ref = torus_quadrature(ZmfPoint(1, k, complex(s)), cfg)
            res = w(1, k, complex(s))
            gap = abs(res.value - ref.value)
            budget = max(1e-9, res.abs_err + ref.abs_err)
            worst = max(worst, gap / budget)
    elapsed = time.monotonic() - t0
    ok = worst <= 1.0 and elapsed < 30.0
    report(1, "r=1 closed form vs torus", ok,
           f"worst gap/budget {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_oracle_equivalence_r2():
    cfg = QuadratureConfig(tol=1e-8)
    t0 = time.monotonic()
    worst = 0.0
    for k in (0.0, 0.5, 2.0, 3.9, 4.0, 5.0):
        for s in (-0.5, 0.7, 2.0, 3.2):
            ref = torus_quadrature(ZmfPoint(2, k, complex(s)), cfg)
            res = w(2, k, complex(s))
            worst = max(worst, abs(res.value - ref.value))
    worst_odd = 0.0
    for k, n in ((1.0, 1), (2.0, 1), (1.0, 3)):
        ref = torus_quadrature(ZmfPoint(2, k, complex(n)), cfg)
        res = w2_odd(k, n)
        worst_odd = max(worst_odd, abs(res.value - ref.value))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-7 and worst_odd < 1e-6 and elapsed < 180.0
    report(2, "r=2 closed forms vs torus", ok,
           f"worst {worst:.2e}, odd worst {worst_odd:.2e}, {elapsed:.1f}s")


def test_criterion_03_oracle_equivalence_r3():
    cfg = QuadratureConfig(tol=1e-6)
    t0 = time.monotonic()
    worst = 0.0
    for k, s in ((1.0, 0.5), (4.0, 2.0), (6.0, 1.2), (9.0, 2.0)):
        ref = torus_quadrature(ZmfPoint(3, k, complex(s)), cfg)
        res = w(3, k, complex(s))
        worst = max(worst, abs(res.value - ref.value))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 600.0
    report(3, "r=3 closed forms vs torus", ok,
           f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_real_s_continuation_route():
    worst = 0.0
    for r, k, s in ((2, 2.0, 1.5), (2, 3.0, 0.5), (3, 4.0, 2.5)):
        a = w_real_s(r, k, s).value
        b = w(r, k, complex(s)).value
        worst = max(worst, abs(a - b))
    ok = worst < 1e-6
    oracle = density_quadrature(ZmfPoint(4, 8.0, 2.0), QuadratureConfig(tol=1e-6))
    gap4 = abs(w_real_s(4, 8.0, 2.0).value - oracle.value)
    ok = ok and gap4 < 1e-4
    # Complex s at r = 4: two continuation walks.
    point = ZmfPoint(4, 2.5, 1.2 + 0.8j)
    res = w(point.r, point.k, point.s)
    oracle = density_quadrature(point, QuadratureConfig(tol=1e-10))
    gap4c = abs(res.value - oracle.value)
    ok = ok and gap4c <= res.abs_err + oracle.abs_err
    report(4, "continuation route vs closed forms and r=4 oracle", ok,
           f"worst {worst:.2e}, r=4 gap {gap4:.2e}, complex s gap {gap4c:.2e}")


def test_criterion_05_functional_equations():
    worst = 0.0
    for k in (3.0, 5.0):
        for s in (1.0, 0.3 + 0.7j, -0.2):
            worst = max(worst, check_fe_light(k, s))
    for k in (1.0, 1.5):
        for s in (-0.3, -0.5, -0.7 + 0.4j):
            worst = max(worst, check_fe_heavy(k, s))
    ok = worst < 1e-9
    report(5, "reflection functional equations", ok, f"worst residual {worst:.2e}")


def test_criterion_06_critical_line():
    t0 = time.monotonic()
    ok = True
    details = []
    for k in (1.0, 3.0):
        zeros = find_zeros_w1(k, 20.0)
        worst_res = max(z.residual for z in zeros)
        # tile the off-line region; each box must wind zero times
        off = 0
        for lo, hi in ((-2.0, -0.505), (-0.495, 1.0)):
            mid = 0.5 * (lo + hi)
            for a, b in ((lo, mid), (mid, hi)):
                off += abs(count_zeros_box(k, (a, b, 1e-3, 20.0)).winding)
        strip = count_zeros_box(k, (-0.505, -0.495, 1e-3, 20.0)).winding
        ok = ok and worst_res < 1e-10 and off == 0 and strip == len(zeros)
        details.append(
            f"k={k}: {len(zeros)} zeros, residual {worst_res:.1e},"
            f" off-line {off}, strip {strip}"
        )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(6, "critical-line zeros and box counts", ok,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_07_moments():
    worst = 0.0
    for r in (1, 2, 3):
        for n in (1, 2, 3, 4, 5):
            want = float(math.comb(2 * n, n)) ** r
            got = moment_quadrature(r, 2 * n).value.real
            worst = max(worst, abs(got - want) / want)
    worst_odd = 0.0
    for r in (1, 2, 3):
        for v in (1, 3, 5):
            worst_odd = max(worst_odd, abs(moment(r, v, True)))
    ok = worst < 1e-10 and worst_odd < 1e-12
    report(7, "central-binomial and vanishing moments", ok,
           f"even rel {worst:.2e}, odd abs {worst_odd:.2e}")


def test_criterion_08_density_recursion():
    ys = np.linspace(0.02, 0.98, 20)
    worst = 0.0
    for r in (2, 3):
        closed = _g_closed(r, ys, 1.0 - ys)
        for y, c in zip(ys, closed):
            worst = max(worst, abs(g_recursion(r, float(y)).value.real - c))
    worst_norm = 0.0
    for r in (1, 2, 3):
        worst_norm = max(worst_norm, abs(moment_quadrature(r, 0).value.real - 1.0))
    ok = worst < 1e-8 and worst_norm < 1e-8
    report(8, "density recursion and normalization", ok,
           f"recursion {worst:.2e}, normalization {worst_norm:.2e}")


def test_criterion_09_mahler_measures():
    worst2 = 0.0
    for k in (0.5, 2.0, 3.5):
        routes = mahler_w2_routes(k)
        worst2 = max(worst2, max(routes.values()) - min(routes.values()))
    worst3 = 0.0
    for k in (0.5, 2.0, 6.0):
        routes = mahler_w3_routes(k)
        worst3 = max(worst3, max(routes.values()) - min(routes.values()))
    ok = worst2 < 1e-6 and worst3 < 1e-5
    report(9, "Mahler measure route agreement", ok,
           f"r=2 spread {worst2:.2e}, r=3 spread {worst3:.2e}")


def test_criterion_10_boundary_structure():
    worst_b = 0.0
    for r, s in ((1, 2.0), (2, 1.6)):
        rep = boundary_derivative_check(r, s)
        worst_b = max(worst_b, rep.residual_left, rep.residual_right)
    worst_k = 0.0
    for r, s, j in ((2, 3.5, 0), (2, 3.5, 1), (1, 2.5, 2)):
        rep = k_zero_derivatives(r, s, j)
        scale = 1.0 + abs(rep.reference)
        worst_k = max(worst_k, rep.residual_left / scale)
    ok = worst_b < 1e-5 and worst_k < 1e-4
    report(10, "boundary and k=0 derivatives", ok,
           f"boundary {worst_b:.2e}, k=0 rel {worst_k:.2e}")


def test_criterion_11_rationality():
    exact = w1_rational_decomposition(1)
    ok = exact == (type(exact[0])(1, 3), type(exact[1])(2))
    worst = 0.0
    from zmf.zmf import w1

    for n in (3, 5):
        q0, q1 = w1_rational_decomposition(n)
        recon = float(q0) + float(q1) * math.sqrt(3.0) / math.pi
        worst = max(worst, abs(w1(1.0, float(n)).value.real - recon))
    ok = ok and worst < 1e-10
    report(11, "rational decomposition of odd moments", ok,
           f"n=1 exact {exact}, reconstruction residual {worst:.2e}")


def test_criterion_12_meijer_cross_method():
    t0 = time.monotonic()
    worst = 0.0
    for s in (0.5, 1.2, 2.0):
        for k in (1.0, 4.0, 6.0):
            a = meijer_mb(w3_g_spec(s, k)).value
            b = meijer_triple_integral(s, k).value
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-7 and elapsed < 120.0
    report(12, "Meijer-G contour vs triple integral", ok,
           f"worst rel {worst:.2e}, {elapsed:.1f}s")
