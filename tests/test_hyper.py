import mpmath
import pytest
from scipy.special import hyp2f1

from zmf.errors import DomainError
from zmf.hyper import (
    ContinuationBranch,
    SeriesSpec,
    _series_theta_derivatives,
    family_spec,
    pfq,
    pfq_continued,
)


def mp_ref(upper, lower, z):
    return complex(mpmath.hyper(list(upper), list(lower), z))


def test_2f1_small_argument():
    got = pfq(SeriesSpec((0.3, 0.7), (1.1,), 0.25)).value
    assert got == pytest.approx(hyp2f1(0.3, 0.7, 1.1, 0.25), rel=1e-13)


def test_2f1_complex_parameters():
    spec = SeriesSpec((0.5 + 1j, -0.25), (1.5,), -0.6 + 0.2j)
    got = pfq(spec).value
    assert got == pytest.approx(mp_ref(spec.upper, spec.lower, spec.argument), rel=1e-12)


def test_3f2_and_4f3():
    s32 = SeriesSpec((0.5, 0.5, 0.5), (1.0, 1.5), 0.3)
    assert pfq(s32).value == pytest.approx(mp_ref(s32.upper, s32.lower, 0.3), rel=1e-12)
    s43 = SeriesSpec((-0.6, -0.6, -0.6, -0.6), (0.8, 0.8, 0.5), 0.45)
    assert pfq(s43).value == pytest.approx(mp_ref(s43.upper, s43.lower, 0.45), rel=1e-12)


def test_terminating_any_argument():
    # upper parameter -3 terminates the series; argument far outside the disk
    spec = SeriesSpec((-3.0, 0.7), (1.2,), 25.0)
    assert pfq(spec).value == pytest.approx(mp_ref(spec.upper, spec.lower, 25.0), rel=1e-13)


def test_zero_argument():
    assert pfq(SeriesSpec((0.4, 0.9), (1.3,), 0.0)).value == 1.0


def test_divergent_raises():
    with pytest.raises(DomainError):
        pfq(SeriesSpec((0.5, 0.5), (1.0,), 1.5))


@pytest.mark.parametrize("z", [0.999, 0.9999999, 1.0 - 1e-11, 1.0, -0.9995])
def test_near_unit_argument(z):
    # convergent at z = 1: Re(sum b - sum a) > 0
    spec = SeriesSpec((0.25, -0.4), (1.1,), z)
    got = pfq(spec).value
    want = mp_ref(spec.upper, spec.lower, z)
    assert got == pytest.approx(want, rel=2e-12)


def test_theta_derivative_initial_conditions():
    # (theta^j F)(z) = d^j/du^j F(e^u) at u = log z, theta = z d/dz; these
    # seed the continuation ODE
    s, z0 = 1.3 + 0.4j, 0.5
    spec = family_spec(3, s, z0)
    got = _series_theta_derivatives(spec, 3)
    with mpmath.workdps(30):
        want = [
            complex(mpmath.diff(
                lambda u: mpmath.hyper(spec.upper, spec.lower, mpmath.exp(u)),
                mpmath.log(z0),
                j,
            ))
            for j in range(4)
        ]
    assert got == pytest.approx(want, rel=1e-12)


def test_family_spec_structure():
    spec = family_spec(3, 1.2, 0.3)
    assert len(spec.upper) == 4 and len(spec.lower) == 3


def test_continuation_matches_series_inside_disk():
    # continue to a point still inside |z| < 1 and compare with plain summation
    s = 1.3
    spec = family_spec(2, s, 0.8)
    direct = pfq(spec).value
    cont = pfq_continued(spec, ContinuationBranch.FROM_BELOW).value
    assert cont == pytest.approx(direct, rel=1e-9)


def test_continuation_branches_conjugate():
    # beyond the unit disk the two branch choices are complex conjugates
    s = 0.7
    up = pfq_continued(family_spec(1, s, 2.5), ContinuationBranch.FROM_ABOVE).value
    dn = pfq_continued(family_spec(1, s, 2.5), ContinuationBranch.FROM_BELOW).value
    assert up == pytest.approx(dn.conjugate(), rel=1e-9)


def test_continuation_against_2f1_continuation():
    # r = 1 family is a Gauss 2F1; scipy continues it for real argument > 1
    s = 0.9
    got = pfq_continued(family_spec(1, s, 1.8), ContinuationBranch.FROM_BELOW).value
    a, b = -s / 2.0, (1.0 - s) / 2.0
    want = complex(mpmath.hyp2f1(a, b, 1.0, mpmath.mpc(1.8, -1e-20)))
    assert got == pytest.approx(want, rel=1e-8)
