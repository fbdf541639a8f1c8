"""The explicit Runge-Kutta pair DOP853 on t in [0, 1], for the continuation
of the family pFq (`hyper.pfq_continued`).

Dormand and Prince's 8th-order method with its 5th- and 3rd-order error
estimators (Hairer, Norsett and Wanner, Solving Ordinary Differential
Equations I, 2nd ed., sec. II.5 and II.10), with the initial step and step
control of scipy.integrate.solve_ivp's DOP853 (scipy 1.17) and the same
arithmetic, so a run takes the same steps to the same bits.  scipy.integrate
itself is not loaded: with scipy.linalg, scipy.sparse and scipy.optimize
behind it, that import costs a process about 19 MB once scipy.special is in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Butcher tableau: A's rows below the diagonal, the 8th-order weights B and
# the nodes C; E5 and E3 are B minus the 5th- and 3rd-order weights (E3
# padded to the 13 stages that include the next step's first).
_A = np.array([row + (0.0,) * (12 - len(row)) for row in (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)])
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
])
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
])
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
])
# Step control: the error estimator's order is 7.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0


@dataclass(frozen=True)
class OdeRun:
    """y at t = 1 (or where the run stopped), the right-hand side evaluations
    made, and whether it reached t = 1."""

    y: np.ndarray
    nfev: int
    success: bool
    message: str = ""


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, y0: np.ndarray, rtol: float, atol: float) -> OdeRun:
    """Integrate y' = fun(t, y) from t = 0 to t = 1 by DOP853, each step's
    error held to atol + rtol |y| in the RMS norm.  perfbench's tracer hooks
    this name in zmf.hyper and counts the returned nfev."""
    nfev = 0

    def f_of(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=complex)

    t, y = 0.0, np.asarray(y0, dtype=complex)
    f = f_of(t, y)
    # Initial step (Hairer, Norsett and Wanner, sec. II.4).
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 1.0)
    d2 = _rms((f_of(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, 1.0)
    k = np.empty((13, y.size), dtype=complex)
    while t < 1.0:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return OdeRun(y, nfev, False, "step size below the spacing of t")
            t_new = min(t + h_abs, 1.0)
            h = t_new - t
            h_abs = np.abs(h)
            k[0] = f
            for s in range(1, 12):
                k[s] = f_of(t + _C[s] * h, y + np.dot(k[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, _B)
            f_new = f_of(t + h, y_new)
            k[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(k.T, _E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(k.T, _E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                err = 0.0
            else:
                err = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return OdeRun(y, nfev, True)
