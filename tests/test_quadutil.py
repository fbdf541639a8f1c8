import math

import numpy as np
import pytest

from zmf.errors import ConvergenceError
from zmf.quadutil import _ts_run, split_points, ts_rows


def _converged(f, a, b, tol):
    val, err, ok = _ts_run(f, a, b, tol)
    assert ok
    return val, err


def test_smooth_integral():
    val, err = _converged(np.exp, 0.0, 1.0, 1e-12)
    assert val.real == pytest.approx(math.e - 1.0, abs=1e-13)
    assert err < 1e-11


def test_left_endpoint_singularity():
    val, _ = _converged(lambda x: x**-0.5, 0.0, 1.0, 1e-12)
    assert val.real == pytest.approx(2.0, abs=1e-12)


def test_strong_singularity():
    # x^(-0.9) stresses the truncation window; exact value 10
    val, _ = _converged(lambda x: x**-0.9, 0.0, 1.0, 1e-11)
    assert val.real == pytest.approx(10.0, abs=1e-9)


def test_right_endpoint_singularity():
    val, _ = _converged(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, 1e-10)
    assert val.real == pytest.approx(2.0, abs=1e-7)


def test_log_singularity():
    val, _ = _converged(lambda x: np.log(x), 0.0, 1.0, 1e-12)
    assert val.real == pytest.approx(-1.0, abs=1e-12)


def test_complex_integrand():
    val, _ = _converged(lambda x: np.exp(1j * x), 0.0, math.pi, 1e-12)
    assert val == pytest.approx(2j, abs=1e-12)


def test_shifted_interval():
    # forming x - 2 at the nodes quantizes the distance to the singular
    # endpoint at ~1 ulp of 2, which caps the attainable accuracy; callers
    # needing better must supply the integrand in the local variable
    val, _ = _converged(lambda x: 1.0 / np.sqrt(x - 2.0), 2.0, 3.0, 1e-8)
    assert val.real == pytest.approx(2.0, abs=1e-6)


def test_nonconvergent_run_is_flagged():
    def rough(x):
        return np.sin(1.0 / x)

    val, err, ok = _ts_run(rough, 0.0, 1.0, 1e-14)
    assert not ok
    assert np.isfinite(val) and err > 0.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_sum_raises_at_once(bad):
    # A level sum that is not finite stays so at every later level; the
    # ladder raises instead of running every level to a nan error.
    levels = []

    def f(rows, x, rest):
        levels.append(x.shape)
        return np.where(x > 0.5, bad, 1.0)

    with pytest.raises(ConvergenceError, match="level-0 sum is not finite"):
        ts_rows(f, [0.0, 0.0], [1.0, 0.4], 1e-10)
    assert len(levels) == 1


def test_non_finite_inner_error_raises():
    with pytest.raises(ConvergenceError, match="not finite"):
        ts_rows(lambda rows, x, rest: (x, np.full(x.shape, np.inf)), 0.0, 1.0, 1e-10)


def test_split_points():
    assert split_points(0.0, 4.0, [3.0, 1.0, 5.0, 0.0]) == [0.0, 1.0, 3.0, 4.0]


def test_rows_match_one_row_runs():
    # Each row keeps its own interval, tolerance and stopping level.
    funcs = (np.exp, lambda x: np.sin(1.0 / x), lambda x: 1.0 / np.sqrt(x - 2.0))
    a = np.array([0.0, 0.0, 2.0])
    b = np.array([1.0, 1.0, 3.0])
    tol = np.array([1e-3, 1e-14, 1e-8])
    levels = np.zeros(3, dtype=int)

    def f(rows, x, rest):
        levels[rows] += 1
        return np.stack([funcs[i](xi) for i, xi in zip(rows, x)])

    val, err, ok = ts_rows(f, a, b, tol)
    assert levels[0] in (2, 3)  # level 0 plus one or two refinements
    assert levels[1] == 10  # the whole ladder, levels 0 to 9
    assert list(ok) == [True, False, True]
    for i, fn in enumerate(funcs):
        one = _ts_run(fn, a[i], b[i], tol[i])
        assert (val[i], err[i], bool(ok[i])) == one


@pytest.mark.parametrize("a", [0.0, 2.0])
def test_rows_see_exact_distance_to_right_end(a):
    # rest = b - x is exact next to b, where x itself is rounded and
    # clipped: (1 - x)^-0.9 from x gave 9.77, unconverged, on (0, 1).
    val, err, ok = ts_rows(lambda rows, x, rest: rest**-0.9, a, a + 1.0, 1e-12)
    assert ok[0]
    assert val[0] == pytest.approx(10.0, abs=1e-12)



def test_error_floor_is_above_one_ulp():
    # A constant integrand's last two levels agree to the bit, so the error
    # is the floor alone; the weighted sum still rounds (1 comes out as
    # 1 - 2^-53), and a floor of 1e-16 |value| sat below that rounding.
    eps = np.finfo(float).eps
    b = np.array([1.0, 2.0, 0.7])
    val, err, ok = ts_rows(lambda rows, x, rest: np.ones_like(x), 0.0, b, 1e-15)
    assert ok.all()
    assert (err >= eps * np.abs(val)).all()
    assert (np.abs(val - b) <= err).all()


def test_inner_errors_carry_their_weights():
    # An integrand that returns (values, errors) adds c1 h sum w e to its
    # row's error: e = 1e-6 everywhere on (0, 3) adds 1e-6 times the
    # integral of 1, on top of the plain row's ladder terms.
    val, err, ok = ts_rows(lambda rows, x, rest: (np.ones_like(x), np.full(x.shape, 1e-6)), 0.0, 3.0, 1e-10)
    plain = ts_rows(lambda rows, x, rest: np.ones_like(x), 0.0, 3.0, 1e-10)
    assert ok[0] and val[0] == plain[0][0]
    assert err[0] == pytest.approx(1e-6 * val[0] + plain[1][0], rel=1e-12)
    assert err[0] == pytest.approx(3e-6, rel=1e-9)
