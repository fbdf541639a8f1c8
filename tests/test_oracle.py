import math

import mpmath
import numpy as np
import pytest

from zmf.errors import ConvergenceError, DomainError
from zmf.oracle import _t1, _t_rows, density_quadrature, monte_carlo, torus_quadrature
from zmf.types import QuadratureConfig, ZmfPoint
from zmf.zmf import w, w1

CFG = QuadratureConfig(tol=1e-10)


class TestTorus:
    def test_r1_light(self):
        res = torus_quadrature(ZmfPoint(1, 3.0, 2.0), CFG)
        assert res.value.real == pytest.approx(11.0, abs=1e-10)

    def test_r1_heavy(self):
        want = 1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi
        res = torus_quadrature(ZmfPoint(1, 1.0, 1.0), CFG)
        assert res.value.real == pytest.approx(want, abs=1e-10)

    def test_r1_boundary_negative_s(self):
        # the hardest r = 1 point: a near-double root with s = -0.4
        res = torus_quadrature(ZmfPoint(1, 2.0, -0.4), CFG)
        ref = w1(2.0, -0.4).value
        assert abs(res.value - ref) <= max(1e-9, res.abs_err + 1e-12)

    def test_r1_complex_s(self):
        s = 1.0 + 0.5j
        res = torus_quadrature(ZmfPoint(1, 1.0, s), CFG)
        ref = w1(1.0, s).value
        assert abs(res.value - ref) < 1e-9

    def test_r2_heavy(self):
        res = torus_quadrature(ZmfPoint(2, 3.9, 2.0), CFG)
        assert res.value.real == pytest.approx(3.9**2 + 4.0, abs=1e-9)

    def test_r2_vs_closed_form(self):
        res = torus_quadrature(ZmfPoint(2, 2.0, 0.7), CFG)
        ref = w(2, 2.0, 0.7).value
        assert abs(res.value - ref) < 1e-8

    def test_k_zero_factorizes(self):
        res = torus_quadrature(ZmfPoint(2, 0.0, 1.5), CFG)
        ref = w(2, 0.0, 1.5).value
        assert abs(res.value - ref) < 1e-9

    def test_rejects_large_r(self):
        with pytest.raises(DomainError):
            torus_quadrature(ZmfPoint(4, 1.0, 2.0), CFG)

    def test_rejects_s_below_half_inside(self):
        # The nest's inner edge diverges there; it returned 9.6e83 against
        # 1.7526 from the closed form.
        with pytest.raises(DomainError):
            torus_quadrature(ZmfPoint(2, 3.9, -0.9), CFG)

    @pytest.mark.parametrize("s", [0.7, -0.45, 1.5 + 2.0j])
    @pytest.mark.parametrize(
        "r, delta, tol",
        [
            # delta > 0 at two distances from the edge, on the edge, the
            # r >= 2 inner-distance floor on both sides, and delta < 0 with
            # the root k = 2 cos theta at theta = 0.1 and pi/3.
            pytest.param(
                1,
                [0.5, 0.1, 0.0, 1e-250, -1e-250, -0.01, -1.0],
                [1e-10, 1e-8, 1e-10, 1e-9, 1e-10, 1e-12, 1e-10],
                id="r1",
            ),
            # Light (one segment), on the edge, and heavy (two segments)
            # near the edge and near k = 0.
            pytest.param(2, [0.5, 0.0, -0.01, -3.5], [1e-10, 1e-10, 1e-8, 1e-9], id="r2"),
        ],
    )
    def test_t_rows_match_one_row_runs(self, r, delta, tol, s):
        # A row of the batch equals the same row run alone.
        delta, tol = np.array(delta), np.array(tol)
        val, err = _t_rows(r, delta, s, tol)
        for i in range(len(delta)):
            v, e = _t_rows(r, delta[i:i + 1], s, tol[i:i + 1])
            assert val[i] == v[0] and err[i] == e[0]
        if r == 1:
            v, e = _t1(2.5, s, 1e-10)
            assert v == val[0] and e == err[0]

    @pytest.mark.parametrize("delta", [-1e-12, -1e-15, -1e-17])
    def test_t1_reads_the_exact_distance(self, delta):
        # An inner row of the r = 2 nest next to its edge carries a delta
        # below the rounding of k = 2 + delta.  A root placed at acos of the
        # rounded k gave 3.642 +- 1.4e-12 for 3.286 at delta = -1e-17.
        s = -0.45
        v, e = _t_rows(1, np.array([delta]), s, np.array([1e-10]))
        with mpmath.workdps(30):
            th = 2 * mpmath.asin(mpmath.sqrt(-mpmath.mpf(delta) / 4))
            # |k - 2 cos t|^s + |k + 2 cos t|^s with k = 2 cos th, in product form
            f = lambda t: (abs(4 * mpmath.sin((t + th) / 2) * mpmath.sin((t - th) / 2)) ** s
                           + (4 * mpmath.cos((t + th) / 2) * mpmath.cos((t - th) / 2)) ** s)
            ref = complex(mpmath.quad(f, [0, th, mpmath.pi / 2]) / mpmath.pi)
        assert abs(v[0] - ref) <= e[0]

    @pytest.mark.parametrize(
        "r, k, s, tol",
        [
            # T_1 next to its edge k = 2, on both sides, where k - 2 cos t
            # has a near-double root at t = 0 and changes scale at
            # t ~ sqrt|k - 2|.
            *[
                (1, 2.0 + sign * gap, s, 1e-10)
                for gap in (1e-3, 1e-9, 1e-12)
                for sign in (1.0, -1.0)
                for s in (-0.45, -0.9 + 1j, 3.7)
            ],
            (2, 3.999, -0.45, 1e-10),
            (2, 4.0, 0.3, 1e-10),
            (3, 7.9, -0.3, 1e-6),
            (3, 8.0, 0.5, 1e-6),
            (3, 8.1, 1.2, 1e-6),
            # On the edge with -1 < s <= -1/2 the inner T_1 error blows up
            # next to the inner edge, where the outer weight vanishes; the
            # largest weighted inner error over the nodes gave bars of
            # 9.8e86, 2.5e49, 5.3e11 and 2.3e-7 for values within 1e-12 of w.
            (2, 4.0, -0.9, 1e-8),
            (2, 4.0, -0.75, 1e-8),
            (2, 4.0, -0.6, 1e-8),
            (2, 4.0, -0.5, 1e-8),
            # The inner edge at theta = pi/3 with s = -1/2: one node within
            # 1e-250 of it, where T_1 ~ log(1/delta), set that maximum, and
            # the bar read 3.2e-7 for a true error of 1.2e-14.
            (2, 2.0, -0.5, 1e-8),
        ],
    )
    def test_near_inner_edge(self, r, k, s, tol):
        # Where the inner argument k/(2cos t) crosses its own edge, at
        # theta = acos(k/2^r), the anchor there and the exact inner distance
        # decide the value; the inner errors, carried with the outer weights,
        # keep the bar within a few tol.
        res = torus_quadrature(ZmfPoint(r, k, s), QuadratureConfig(tol=tol))
        ref = w(r, k, s)
        assert abs(res.value - ref.value) <= res.abs_err + ref.abs_err
        assert res.abs_err <= 10.0 * tol * (1.0 + abs(res.value))

    def test_rejects_nonintegrable(self):
        with pytest.raises(DomainError):
            torus_quadrature(ZmfPoint(1, 1.0, -1.2), CFG)

    @pytest.mark.parametrize("r, s", [(1, -0.5), (1, -0.9 + 1.0j), (1, -0.7), (2, -1.0)])
    def test_rejects_nonintegrable_on_the_edge(self, r, s):
        # |2 + 2 cos t|^s ~ (pi - t)^(2s) is not integrable at s <= -1/2; the
        # ladder returned 118.8 +- 0.014 at (1, 2, -1/2), and Monte Carlo
        # 45.3 +- 38.8 at (1, 2, -0.7).
        for oracle in (torus_quadrature, monte_carlo):
            with pytest.raises(DomainError):
                oracle(ZmfPoint(r, 2.0**r, s), QuadratureConfig(samples=1000))

    @pytest.mark.parametrize("s", [-1.45, -1.395])
    def test_overflowing_nest_raises_a_typed_error(self, s):
        # At r = 3, k = 8 the inner |...|^s overflows to inf at nodes next to
        # the edge; the ladder ran every level (146 s) and EvalResult then
        # raised a plain ValueError on the nan abs_err.
        with pytest.raises(ConvergenceError, match="not finite"):
            torus_quadrature(ZmfPoint(3, 8.0, s), QuadratureConfig(tol=1e-6))


class TestMonteCarlo:
    def test_reproducible_bit_for_bit(self):
        cfg = QuadratureConfig(seed=42, samples=200_000)
        a = monte_carlo(ZmfPoint(3, 2.0, 1.5), cfg)
        b = monte_carlo(ZmfPoint(3, 2.0, 1.5), cfg)
        assert a.value == b.value
        assert a.abs_err == b.abs_err

    def test_seed_changes_stream(self):
        p = ZmfPoint(2, 1.0, 1.0)
        a = monte_carlo(p, QuadratureConfig(seed=1, samples=100_000))
        b = monte_carlo(p, QuadratureConfig(seed=2, samples=100_000))
        assert a.value != b.value

    def test_within_error_bars(self):
        # abs_err is 3 standard errors; the exact value 11 must be inside
        res = monte_carlo(ZmfPoint(1, 3.0, 2.0), QuadratureConfig(samples=400_000))
        assert abs(res.value.real - 11.0) < res.abs_err


class TestDensityRoute:
    def test_matches_closed_form_heavy(self):
        res = density_quadrature(ZmfPoint(2, 1.0, 1.5), CFG)
        ref = w(2, 1.0, 1.5).value
        assert abs(res.value - ref) < 1e-7

    def test_matches_closed_form_light(self):
        res = density_quadrature(ZmfPoint(1, 3.0, 2.0), CFG)
        assert res.value.real == pytest.approx(11.0, rel=1e-12)

    @pytest.mark.parametrize(
        "r, k, s, tol",
        [
            (3, 4.013422922741341, 0.5549929797046887, 1e-8),
            (2, 3.0, 2.0, 1e-10),
            (3, 2.0, 2.0, 1e-10),
            (4, 3.0, 1.5, 1e-6),
            (3, 0.5, 0.3 + 2j, 1e-10),
        ],
    )
    def test_error_bar_holds(self, r, k, s, tol):
        # In the signed product t, with -2^r, 0, 2^r and -k anchored at piece
        # ends, the true error stays inside abs_err; in the folded variable
        # the r = 3 point was 6.2e-8 relative off with abs_err 2.5e-9.
        res = density_quadrature(ZmfPoint(r, k, s), QuadratureConfig(tol=tol))
        assert abs(res.value - w(r, k, s).value) <= res.abs_err

    def test_rejects_low_s(self):
        with pytest.raises(DomainError):
            density_quadrature(ZmfPoint(1, 1.0, -1.5), CFG)
