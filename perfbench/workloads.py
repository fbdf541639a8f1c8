"""The three benchmark workloads: seeded task generation, execution against
the library, independent references and the pass/fail check.

A workload is a mix of coverage rows.  One *round* holds `count` tasks of
each row, in an order shuffled by the seed; a workload's pool is `rounds`
rounds.  The library only ever receives the generated (r, k, s, tol, ...)
values.  Tasks are plain dicts, so a task list can be compared and stored.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import refs


@dataclass(frozen=True)
class Row:
    name: str
    count: int
    draw: object  # rng -> task dict
    # (field, lo, hi): the parameter that sets the row's cost is drawn by
    # stratified sampling over the pool, so every seed spans its range evenly
    # and a run's cost does not hinge on the seed.
    strata: tuple = ()


def _s_real(rng, lo, hi, odd_gap=0.0):
    """Real s in (lo, hi), redrawn while within odd_gap of an odd integer."""
    while True:
        s = rng.uniform(lo, hi)
        n = round(s)
        if not (odd_gap and n % 2 == 1 and abs(s - n) < odd_gap):
            return s


def _s_any(rng, lo, hi, im):
    """Real or complex s with probability 1/2 each."""
    if rng.random() < 0.5:
        return [rng.uniform(lo, hi), 0.0]
    return [rng.uniform(lo, hi), rng.uniform(-im, im)]


def _k_avoid(rng, lo, hi, edge, gap):
    while True:
        k = rng.uniform(lo, hi)
        if abs(k - edge) >= gap:
            return k


def _w(r, k, s):
    return {"fn": "w", "r": r, "k": k, "s": s}


# -- eval-series: every coverage row that needs no Meijer G ---------------
# The ranges keep clear of the regions where the closed forms' error bars
# are known not to hold (|Im s| > 5 or k < 0.4 for W_1, boundary W_1 at
# s < 1/2, r = 4 just above s = 3, k = 0 at r >= 3); PINNED below holds one
# point of each.
def _light(r):
    return lambda rng: _w(r, 2.0**r * rng.uniform(1.1, 3.0), _s_any(rng, -0.9, 4.0, 5.0))


EVAL_SERIES = (
    Row("light-r1", 300, _light(1)),
    Row("light-r2", 250, _light(2)),
    Row("light-r3", 200, _light(3)),
    Row("light-r4", 150, _light(4)),
    Row("boundary-r1", 8, lambda rng: _w(1, 2.0, [0.0, 0.0]), ("s", 0.6, 3.5)),
    # s > -1/2 keeps the r = 2 torus reference away from its s < -1/2 defect.
    Row("boundary-r2", 4, lambda rng: _w(2, 4.0, [0.0, 0.0]), ("s", -0.4, 3.5)),
    Row("boundary-r3", 2, lambda rng: _w(3, 8.0, [0.0, 0.0]), ("s", 0.0, 3.0)),
    Row("heavy-r1", 150, lambda rng: _w(1, rng.uniform(0.4, 1.95), _s_any(rng, -0.9, 4.0, 5.0))),
    Row(
        "critical-line-r1",
        150,
        lambda rng: _w(1, _k_avoid(rng, 0.4, 6.0, 2.0, 0.1), [-0.5, rng.uniform(0.2, 5.0)]),
    ),
    Row(
        "heavy-r2",
        60,
        lambda rng: _w(
            2,
            rng.uniform(0.1, 3.9),
            [_s_real(rng, -0.9, 4.0, 0.02), 0.0] if rng.random() < 0.5
            else [rng.uniform(-0.9, 3.0), rng.uniform(-4.0, 4.0)],
        ),
    ),
    Row(
        "heavy-r4-real",
        4,
        lambda rng: _w(4, 0.0, [_s_real(rng, 0.2, 2.9, 0.05), 0.0]),
        ("k", 0.5, 15.5),
    ),
    Row("k-zero", 40, lambda rng: _w(rng.randint(1, 2), 0.0, _s_any(rng, -0.9, 4.0, 5.0))),
        # The zero and box searches set the tail; these k ranges keep their
    # cost flat (about 40 ms and 9 ms).
    Row("zeros-w1", 4, lambda rng: {"fn": "zeros", "k": 0.0, "t_max": 10.0}, ("k", 2.9, 3.3)),
    Row(
        "box-w1",
        4,
        lambda rng: {
            "fn": "box",
            "k": 0.0,
            "box": [-0.9, -0.1, 1e-3, rng.uniform(5.0, 15.0)],
        },
        ("k", 4.3, 5.0),
    ),
    Row(
        "fe-light",
        4,
        lambda rng: {"fn": "fe_light", "k": rng.uniform(2.2, 6.0),
                     "s": [rng.uniform(-0.9, 0.9), rng.uniform(-3.0, 3.0)]},
    ),
    Row(
        "fe-heavy",
        4,
        lambda rng: {"fn": "fe_heavy", "k": rng.uniform(0.2, 1.8),
                     "s": [rng.uniform(-0.9, -0.1), rng.uniform(-3.0, 3.0)]},
    ),
)

# -- eval-contour: closed forms whose cost is a quadrature ----------------
# k ranges where each row's cost is flat, so a run's cost does not hinge on
# the seed (mahler_w2_routes costs 0.9 s below k = 1 and 2.5 s above 3.5).
EVAL_CONTOUR = (
    Row("w3-generic", 2, lambda rng: _w(3, 0.0, [_s_real(rng, -0.8, 4.0, 0.05), 0.0]), ("k", 0.5, 7.5)),
    Row("w3-odd", 1, lambda rng: _w(3, 0.0, [1.0, 0.0]), ("k", 0.5, 3.5)),
    Row("w2-odd", 2, lambda rng: _w(2, 0.0, [float(rng.choice((1, 3))), 0.0]), ("k", 0.3, 3.8)),
    Row("mahler-w2", 1, lambda rng: {"fn": "mahler2", "k": 0.0}, ("k", 1.5, 3.0)),
    Row("mahler-w3", 1, lambda rng: {"fn": "mahler3", "k": 0.0}, ("k", 4.0, 6.5)),
)


# -- oracle: the independent oracles at fixed tolerances ------------------
def _oracle(kind, r, k, s, **extra):
    return {"fn": kind, "r": r, "k": k, "s": s, **extra}


# k >= 0.4 for r = 1: below it the closed-form reference's own error bar
# does not hold (see PINNED).
ORACLE = (
    Row(
        "torus-r1",
        60,
        lambda rng: _oracle("torus", 1, _k_avoid(rng, 0.4, 6.0, 2.0, 0.05),
                            _s_any(rng, -0.9, 4.0, 5.0), tol=1e-10),
    ),
    # s > -1/2: below it the r = 2 nest hits its known inner-edge defect,
    # which the pinned task covers.
    Row(
        "torus-r2",
        70,
        lambda rng: _oracle("torus", 2, rng.uniform(0.2, 3.8),
                            [_s_real(rng, -0.45, 4.0, 0.05), 0.0], tol=1e-8),
    ),
    Row(
        "mc-r2",
        15,
        lambda rng: _oracle("mc", 2, rng.uniform(0.2, 3.8), [_s_real(rng, 0.2, 3.0, 0.05), 0.0],
                            samples=200_000, seed=rng.randrange(1 << 30)),
    ),
    Row(
        "mc-r3",
        15,
        lambda rng: _oracle("mc", 3, rng.uniform(8.5, 12.0), [rng.uniform(0.2, 3.0), 0.0],
                            samples=200_000, seed=rng.randrange(1 << 30)),
    ),
)


@dataclass(frozen=True)
class Workload:
    name: str
    rows: tuple
    rounds: int
    why: str


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("eval-series", EVAL_SERIES, 1,
                 "w() on every coverage row without a Meijer G, plus the W_1 zero, "
                 "box and functional-equation checks; pFq, ODE and gamma do the work"),
        Workload("eval-contour", EVAL_CONTOUR, 3,
                 "w3, odd-s limits and Mahler routes: one Meijer-G contour of ~100k "
                 "log_gamma calls per point, shared parameters across calls"),
        Workload("oracle", ORACLE, 1,
                 "torus nest at r = 1, 2 and Monte Carlo at r = 2, 3: thousands of "
                 "small tanh-sinh runs, no pFq, Meijer or gamma work"),
    )
}

# Known defect points, run beside the seeded tasks in the traced run and
# counted in fail_frac; the seeded ranges keep clear of them.
PINNED = {
    "eval-series": (
        _w(1, 2.0 - 1e-13, [-0.4, 0.0]),
        _w(1, 2.0 + 1e-13, [-0.4, 0.0]),
        _w(1, 2.0 - 1e-12, [-0.4, 0.0]),
        _w(2, 4.0 - 1e-12, [1.5, 0.0]),
        _w(2, 1.0, [1.0 + 2e-6, 0.0]),
        # Error bars that do not hold.
        _w(1, 2.0, [0.1, 0.0]),
        _w(1, 1.87, [-0.5, 10.14]),
        _w(1, 0.18148019777345276, [3.867026285503695, 0.0]),
        _w(4, 1.3503999321533973, [3.2855929668195754, 0.0]),
        _w(4, 0.0, [3.673826641513681, 1.8273699914659938]),
    ),
    "eval-contour": (),
    "oracle": (
        _oracle("torus", 2, 3.9, [-0.9, 0.0], tol=1e-8),
        # The r = 3 density oracle and G_3 recursion miss the closed forms
        # by 1e-8 relative, several times their abs_err, at every tolerance
        # tried; they run here until their error bars hold.
        _oracle("density", 3, 4.013422922741341, [0.5549929797046887, 0.0], tol=1e-8),
        {"fn": "g_recursion", "r": 3, "y": 0.5962335678270925, "tol": 1e-10},
    ),
}


def generate(workload: str, seed: int, stream: str = "timed", rounds: int | None = None) -> list:
    """The seeded task pool: `rounds` rounds of the workload's row mix."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{stream}/{seed}")
    rounds = wl.rounds if rounds is None else rounds
    strata = {}
    for row in wl.rows:
        if row.strata:
            n = row.count * rounds
            us = [(j + rng.random()) / n for j in range(n)]
            rng.shuffle(us)
            strata[row.name] = iter(us)
    pool = []
    for _ in range(rounds):
        rnd = []
        for row in wl.rows:
            for _ in range(row.count):
                task = dict(row.draw(rng), row=row.name)
                if row.strata:
                    field, lo, hi = row.strata
                    x = lo + (hi - lo) * next(strata[row.name])
                    if field == "s":
                        task["s"] = [x, task["s"][1]]
                    else:
                        task[field] = x
                rnd.append(task)
        rng.shuffle(rnd)
        pool.extend(rnd)
    return pool


def warmup(workload: str, seed: int) -> list:
    """One task of each row, from a seed stream the timed tasks never use."""
    seen, out = set(), []
    for task in generate(workload, seed, stream="warmup", rounds=1):
        if task["row"] not in seen:
            seen.add(task["row"])
            out.append(task)
    return out


def row_mix(tasks: list) -> dict:
    mix = {}
    for t in tasks:
        mix[t["row"]] = mix.get(t["row"], 0) + 1
    return mix


# -- execution -------------------------------------------------------------
def _s(task) -> complex:
    return complex(*task["s"])


def runner(zmf):
    """Return run(task) -> (value, abs_err).  Library functions are looked up
    through their modules on every call, so the tracer's wrappers apply."""
    from zmf.types import QuadratureConfig, ZmfPoint

    Z, O, D, A = zmf.zmf, zmf.oracle, zmf.density, zmf.analysis

    def run(task):
        fn = task["fn"]
        if fn == "w":
            res = Z.w(task["r"], task["k"], _s(task))
            return res.value, res.abs_err
        if fn in ("torus", "mc", "density"):
            point = ZmfPoint(task["r"], task["k"], _s(task))
            if fn == "torus":
                res = O.torus_quadrature(point, QuadratureConfig(tol=task["tol"]))
            elif fn == "mc":
                res = O.monte_carlo(point, QuadratureConfig(seed=task["seed"], samples=task["samples"]))
            else:
                res = O.density_quadrature(point, QuadratureConfig(tol=task["tol"]))
            return res.value, res.abs_err
        if fn == "g_recursion":
            res = D.g_recursion(task["r"], task["y"], task["tol"])
            return res.value, res.abs_err
        if fn in ("mahler2", "mahler3"):
            routes = (A.mahler_w2_routes if fn == "mahler2" else A.mahler_w3_routes)(task["k"])
            vals = [float(v) for v in routes.values()]
            return complex(vals[0]), max(vals) - min(vals)
        if fn == "zeros":
            return [z.t for z in A.find_zeros_w1(task["k"], task["t_max"])], 0.0
        if fn == "box":
            return A.count_zeros_box(task["k"], tuple(task["box"])).winding, 0.0
        if fn == "fe_light":
            return A.check_fe_light(task["k"], _s(task)), 0.0
        if fn == "fe_heavy":
            return A.check_fe_heavy(task["k"], _s(task)), 0.0
        raise ValueError(f"unknown task function {fn!r}")

    return run


# -- references ------------------------------------------------------------
def reference(task, zmf):
    """(value, abs_err) from a route independent of the one the task runs.

    Closed forms are checked against mpmath or an oracle; oracle tasks
    against the closed form.  Tasks whose check is an identity or a count
    return the value they must match."""
    from zmf.types import QuadratureConfig, ZmfPoint

    fn = task["fn"]
    row = task["row"]
    if fn == "w":
        r, k, s = task["r"], task["k"], _s(task)
        if k == 0.0:
            return refs.mp_k_zero(r, s)
        if r == 1:
            return refs.mp_w1(k, s)
        if r == 2 and row.startswith(("boundary", "pinned", "w2-odd")):
            res = zmf.oracle.torus_quadrature(ZmfPoint(r, k, s), QuadratureConfig(tol=1e-10))
            return complex(res.value), res.abs_err
        if row == "w3-odd":
            return refs.mp_odd(r, k, int(s.real))
        if k >= 2.0**r:
            return refs.mp_light(r, k, s)
        return refs.mp_heavy(r, k, s)
    if fn in ("torus", "mc", "density"):
        res = zmf.zmf.w(task["r"], task["k"], _s(task))
        return complex(res.value), res.abs_err
    if fn == "g_recursion":
        return refs.mp_g3(task["y"])
    if fn == "mahler2":
        return refs.mp_mahler(2, task["k"])
    if fn == "mahler3":
        return refs.mp_mahler(3, task["k"])
    if fn == "zeros":
        return refs.mp_zeros_w1(task["k"], 0.0, task["t_max"]), 1e-12
    if fn == "box":
        # Every zero of W_1 in the strip lies on the critical line.
        lo, hi = task["box"][2], task["box"][3]
        return len(refs.mp_zeros_w1(task["k"], lo, hi)), 0.0
    if fn in ("fe_light", "fe_heavy"):
        return 0.0, 1e-9
    raise ValueError(f"no reference for {fn!r}")


# -- checking --------------------------------------------------------------
# The monte_carlo abs_err is a 3-sigma bar; the check allows 5 sigma, so a
# correct seeded run fails by chance with probability below 1e-6 per task.
_MC_SIGMAS = 5.0 / 3.0
# An oracle asked for tolerance tol fails when it reports an abs_err more
# than this many times tol (relative to the reference's size).
_TOL_SLACK = 100.0


def check(task, out, ref):
    """(ok, digits) for one output; digits is None where it does not apply."""
    if isinstance(out, BaseException):
        return False, None
    value, abs_err = out
    ref_val, ref_err = ref
    fn = task["fn"]
    if fn == "box":
        return value == ref_val, None
    if fn in ("fe_light", "fe_heavy"):
        return math.isfinite(value) and value <= ref_err, None
    if fn == "zeros":
        if len(value) != len(ref_val):
            return False, None
        if not value:
            return True, None
        gaps = [abs(a - b) for a, b in zip(value, ref_val)]
        ok = all(g <= 1e-9 for g in gaps)
        return ok, min(refs.digits_of(b, max(g, 1e-16 * abs(b))) for g, b in zip(gaps, ref_val))
    value = complex(value)
    if not (cmath.isfinite(value) and math.isfinite(abs_err)):
        return False, None
    gap = abs(value - ref_val)
    allowed = abs_err * (_MC_SIGMAS if fn == "mc" else 1.0) + ref_err
    ok = gap <= allowed
    if "tol" in task and abs_err > _TOL_SLACK * task["tol"] * (1.0 + abs(ref_val)):
        ok = False
    if not ok:
        return False, None
    cap = refs.digits_of(ref_val, ref_err)
    digits = cap if gap == 0.0 else min(cap, refs.digits_of(ref_val, gap))
    return True, digits
