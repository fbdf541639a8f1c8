import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import zmf.analysis as analysis_module
from zmf.analysis import (
    _phase,
    check_beauty,
    check_fe_heavy,
    check_fe_light,
    count_zeros_box,
    find_zeros_w1,
    jacobi_phi,
    mahler_w2,
    mahler_w2_routes,
    mahler_w3,
    mahler_w3_routes,
    w1_rational_decomposition,
)
from zmf.errors import ContourError, ConvergenceError, DomainError
from zmf.zmf import w1


class TestFunctionalEquations:
    @pytest.mark.parametrize("k", [3.0, 5.0])
    @pytest.mark.parametrize("s", [1.0, 0.3 + 0.7j, -0.2])
    def test_light_reflection(self, k, s):
        assert check_fe_light(k, s) < 1e-9

    @pytest.mark.parametrize("k", [1.0, 1.5])
    @pytest.mark.parametrize("s", [-0.3, -0.5 + 0.0j, -0.7 + 0.4j])
    def test_heavy_reflection(self, k, s):
        assert check_fe_heavy(k, s) < 1e-9

    def test_heavy_requires_strip(self):
        with pytest.raises(DomainError):
            check_fe_heavy(1.0, 0.5)


class TestCriticalLine:
    @pytest.mark.parametrize("k", [0.5, 1.87, 3.1])
    def test_phase_is_the_functional_equation_factor(self, k):
        ts = [0.05 * i for i in range(401)]
        phis = [_phase(k, t) for t in ts]
        assert phis[0] == 0.0
        # the grid's array form is the same function, node by node
        assert _phase(k, np.array(ts)) == pytest.approx(phis, rel=1e-15, abs=1e-15)
        assert max(abs(b - a) for a, b in zip(phis, phis[1:])) < math.pi
        for t, phi in zip(ts, phis):
            s = complex(-0.5, t)
            if k < 2.0:
                factor = cmath.cos(-0.5 * math.pi * s) / cmath.sin(-0.5 * math.pi * s)
                factor *= cmath.exp(-1j * t * math.log(4.0 - k * k))
            else:
                factor = cmath.exp(-1j * t * math.log(k * k - 4.0))
            assert abs(cmath.exp(1j * phi) - factor) < 1e-13
            # conj W_1 = X W_1 on the line, so e^(i phi/2) W_1 is real.
            w = w1(k, s)
            assert abs((cmath.exp(0.5j * phi) * w.value).imag) <= w.abs_err

    def test_zeros_k1(self):
        zeros = find_zeros_w1(1.0, 20.0)
        ts = [z.t for z in zeros]
        # frozen from an independent phase-tracking run
        assert ts == pytest.approx([2.901385, 8.592124, 14.305975], abs=1e-4)
        assert max(z.residual for z in zeros) < 1e-10

    def test_zeros_k3(self):
        zeros = find_zeros_w1(3.0, 20.0)
        assert len(zeros) == 5
        assert zeros[0].t == pytest.approx(3.001937, abs=1e-4)
        assert max(z.residual for z in zeros) < 1e-10

    def test_box_counts_match(self):
        # off-line boxes are empty; the strip holds exactly the located zeros
        strip = count_zeros_box(1.0, (-0.505, -0.495, 1e-3, 20.0))
        left = count_zeros_box(1.0, (-2.0, -0.505, 1e-3, 20.0))
        right = count_zeros_box(1.0, (-0.495, 1.0, 1e-3, 20.0))
        assert (left.winding, strip.winding, right.winding) == (0, 3, 0)

    def test_zeros_match_bisection(self):
        # Frozen from the plain bisection to 1e-12 that the Illinois method
        # replaced; on the line, xi is noisy past t ~ 12, where the two
        # methods land up to 1e-9 apart inside that noise.
        ts = [z.t for z in find_zeros_w1(3.1, 10.0)]
        assert ts == pytest.approx([3.1484403514812582, 7.202884558037914], abs=1e-12)
        ts = [z.t for z in find_zeros_w1(1.0, 12.0)]
        assert ts == pytest.approx([2.9013854429396453, 8.592123955548448], abs=1e-12)

    def test_illinois_needs_few_calls_per_zero(self, monkeypatch):
        # The 501-node grid is two lane calls of at most 256 lanes; bisection
        # from its 0.02 step to 1e-12 took 35 scalar calls a zero, the
        # Illinois method takes at most 8.
        shapes = []
        monkeypatch.setattr(analysis_module, "w1", lambda k, s: shapes.append(np.shape(s)) or w1(k, s))
        zeros = find_zeros_w1(3.1, 10.0)
        assert len(zeros) == 2
        assert shapes[:2] == [(251,), (250,)]
        assert all(shape == () for shape in shapes[2:])
        assert len(shapes) - 2 <= 8 * len(zeros)

    # Frozen from the scalar grid that the lane grid replaced, one w1 call per
    # node; the lane bits differ from the scalar ones, which moves a zero by
    # at most 2.5e-13 here (3.6e-12 at k = 2.1, where the form is flatter).
    _SCALAR_GRID_ZEROS = {
        0.5: [6.17015073107563],
        1.5: [1.6824106832147374, 4.863419784791539, 8.084264703707074],
        2.5: [2.2069899368978465, 5.032313046094636, 7.881877436454035],
        2.9: [2.8524327626017083, 6.521043596061428],
        3.3: [3.434303874377316, 7.860992770341111],
        4.0: [4.3873173807252375],
        6.0: [6.944830833887282],
    }

    @pytest.mark.parametrize("k", sorted(_SCALAR_GRID_ZEROS))
    def test_lane_grid_keeps_the_scalar_zeros(self, k):
        ts = [z.t for z in find_zeros_w1(k, 10.0)]
        assert ts == pytest.approx(self._SCALAR_GRID_ZEROS[k], abs=1e-12)

    def test_lane_grid_count_is_the_strip_winding(self):
        zeros = find_zeros_w1(2.5, 10.0)
        assert count_zeros_box(2.5, (-0.505, -0.495, 1e-3, 10.0)).winding == len(zeros) == 3

    @pytest.mark.parametrize("k", [1.9, 2.1])
    def test_noisy_imaginary_part_within_its_error(self, k):
        # Past t ~ 16 the imaginary part of xi exceeds a fixed 1e-9 (1 + max|xi|)
        # but stays within its own lane's abs_err, the bound each node is held
        # to.  20-digit mpmath finds 12 zeros here too.
        zeros = find_zeros_w1(k, 20.0)
        assert len(zeros) == 12
        assert count_zeros_box(k, (-0.505, -0.495, 1e-3, 20.0)).winding == 12

    def test_unresolved_sign_raises(self, monkeypatch):
        # From t = 21.44 on, |Re xi| is within its error at k = 1.9.  That
        # node is in the 5th block of the grid, and no later block is
        # evaluated (t_max = 50 has 10 blocks).
        calls = []
        monkeypatch.setattr(analysis_module, "w1", lambda k, s: calls.append(np.shape(s)) or w1(k, s))
        for t_max in (30.0, 50.0):
            calls.clear()
            with pytest.raises(ConvergenceError, match="unresolved from t = 21.44"):
                find_zeros_w1(1.9, t_max)
            assert len(calls) <= 5

    @pytest.mark.parametrize(
        "k, im_hi, winding",
        [(4.3, 5.0, 1), (4.3, 15.0, 2), (4.65, 5.0, 0), (4.65, 15.0, 2), (5.0, 5.0, 0), (5.0, 15.0, 2)],
    )
    def test_box_windings_on_the_benchmark_range(self, k, im_hi, winding):
        # Frozen from the scalar edge walk, one w1 call per node.
        assert count_zeros_box(k, (-0.9, -0.1, 1e-3, im_hi)).winding == winding

    def test_box_edges_are_one_lane_call(self, monkeypatch):
        shapes = []
        monkeypatch.setattr(analysis_module, "w1", lambda k, s: shapes.append(np.shape(s)) or w1(k, s))
        assert count_zeros_box(1.0, (-0.505, -0.495, 1e-3, 20.0)).winding == 3
        assert shapes[0] == (4 * 64 + 1,)
        # each refinement of a step over pi/2 is one more lane call
        assert len(shapes) > 1 and all(shape == (17,) for shape in shapes[1:])

    @pytest.mark.parametrize("box", [(-2.5, -1.5, 0.0, 0.5), (-2.0, -1.5, 0.0, 0.5)])
    def test_zero_on_the_contour_raises(self, box):
        # W_1(k; -2) = 0 exactly for |k| < 2, and s = -2 is a node of the
        # bottom edge: the phase step divided by it (ZeroDivisionError).
        with pytest.raises(ContourError, match="vanishes on the contour"):
            count_zeros_box(1.0, box)


class TestJacobiIdentity:
    def test_phi_at_origin(self):
        assert jacobi_phi(0.5, 0.5, 1.3, 0.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "alpha,beta,lam,mu,x",
        [(0.5, 0.5, 1.0, 2.0, 1.0), (1.0, 0.0, 0.7, 1.3, 0.8), (0.5, 0.0, 2.0, 0.5, 1.5)],
    )
    def test_wronskian_identity(self, alpha, beta, lam, mu, x):
        assert check_beauty(alpha, beta, lam, mu, x) < 1e-9


class TestMahler:
    @pytest.mark.parametrize("k", [0.5, 2.0, 3.5])
    def test_w2_routes_agree(self, k):
        routes = mahler_w2_routes(k)
        vals = list(routes.values())
        assert max(vals) - min(vals) < 1e-6

    @pytest.mark.parametrize("k", [0.5, 2.0, 3.5])
    def test_w2_integral_matches_series(self, k):
        # the theta form of the double integral has no endpoint singularity
        routes = mahler_w2_routes(k)
        assert abs(routes["integral"] - routes["series"]) < 1e-13

    def test_w2_series_route_sums_the_tail(self):
        # pfq stopped at an absolute 1e-13 majorant and dropped the positive
        # tail, 6.6e-15 (1.3e-14 relative) off here: more than the route
        # spread, so the perfbench check of this eval-contour task failed.
        k = 2.02330925346642
        with mpmath.workdps(40):
            kk = mpmath.mpf(k)
            want = float(kk / 4 * mpmath.hyp3f2(0.5, 0.5, 0.5, 1, 1.5, kk**2 / 16))
        assert abs(mahler_w2_routes(k)["series"] - want) <= 1e-15 * want

    def test_w2_value(self):
        assert mahler_w2(2.0).value.real == pytest.approx(0.511424067053, abs=1e-8)

    def test_w2_zero_k(self):
        assert mahler_w2(0.0).value == 0.0

    @pytest.mark.parametrize("k", [0.5, 2.0, 6.0])
    def test_w3_routes_agree(self, k):
        routes = mahler_w3_routes(k)
        vals = list(routes.values())
        assert max(vals) - min(vals) < 1e-5

    @pytest.mark.parametrize("k", [0.05, 0.5, 2.0, 6.0, 7.5, 7.9999])
    def test_w3_integral_matches_meijer(self, k):
        # In x = u sin theta both logarithmic singularities sit at x = 0, the
        # left end; at k = 0.05 the log^2 there dominates, and at k = 7.9999
        # the Meijer block's argument k^2/64 is next to 1.
        routes = mahler_w3_routes(k)
        assert routes["integral"] == pytest.approx(routes["meijer"], rel=1e-13)

    def test_w3_value(self):
        assert mahler_w3(2.0).value.real == pytest.approx(0.711709698426, abs=1e-8)

    def test_light_k_is_log(self):
        # |k| > 2^r: the measure is log|k| exactly
        routes = mahler_w2_routes(3.9)
        assert routes["series"] == pytest.approx(routes["derivative"], abs=1e-8)
        assert mahler_w2(3.9).value.real < math.log(4.0)


class TestRationalDecomposition:
    def test_first_moment_exact(self):
        assert w1_rational_decomposition(1) == (Fraction(1, 3), Fraction(2))

    @pytest.mark.parametrize("n", [3, 5])
    def test_higher_moments_reconstruct(self, n):
        q0, q1 = w1_rational_decomposition(n)
        from zmf.zmf import w1

        val = w1(1.0, float(n)).value.real
        recon = float(q0) + float(q1) * math.sqrt(3.0) / math.pi
        assert abs(val - recon) < 1e-10
        assert q0.denominator <= 10_000 and q1.denominator <= 10_000
