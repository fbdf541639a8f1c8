"""Command-line front end: point evaluation, densities, moments, zeros,
Mahler measures, verification suites, and direct oracle access.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 validation error, 3 numerical error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import (
    check_fe_heavy,
    check_fe_light,
    count_zeros_box,
    find_zeros_w1,
    mahler_w2_routes,
    mahler_w3_routes,
)
from .density import moment as density_moment
from .density import p_hat, p_r
from .errors import (
    ContourError,
    ConvergenceError,
    EdgeSingularityError,
    PoleError,
)
from .errors import DomainError
from .oracle import monte_carlo, torus_quadrature
from .types import EvalResult, QuadratureConfig, ZmfPoint
from .zmf import w

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

_NUMERICAL_ERRORS = (
    PoleError,
    ConvergenceError,
    ContourError,
    EdgeSingularityError,
)


def _fmt(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trip exact)."""
    return f"{float(x):.17g}"


def _eval_record(r: int, k: float, s: complex, res: EvalResult) -> dict:
    point = ZmfPoint(r, k, s)
    return {
        "r": r,
        "k": float(k),
        "s": {"re": s.real, "im": s.imag},
        "value": {"re": res.value.real, "im": res.value.imag},
        "abs_err": float(res.abs_err),
        "method": str(res.method.value),
        "regime": str(point.regime.value),
    }


def _emit_record(rec: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(rec, indent=2))
    elif output == "csv":
        print("r,k,s_re,s_im,value_re,value_im,abs_err,method,regime")
        print(
            ",".join(
                [
                    str(rec["r"]),
                    _fmt(rec["k"]),
                    _fmt(rec["s"]["re"]),
                    _fmt(rec["s"]["im"]),
                    _fmt(rec["value"]["re"]),
                    _fmt(rec["value"]["im"]),
                    _fmt(rec["abs_err"]),
                    rec["method"],
                    rec["regime"],
                ]
            )
        )
    else:
        sval = complex(rec["s"]["re"], rec["s"]["im"])
        vval = complex(rec["value"]["re"], rec["value"]["im"])
        print(
            f"W_{rec['r']}({_fmt(rec['k'])}; {sval}) = {vval}"
            f" +- {rec['abs_err']:.3e} [{rec['method']}, {rec['regime']}]"
        )


def _parse_s(args) -> complex:
    re = args.s if args.s is not None else (args.s_re or 0.0)
    return complex(re, args.s_im or 0.0)


def _oracle_check(r: int, k: float, s: complex, res: EvalResult, seed: int) -> None:
    """Cross-check a closed-form value against an oracle; warn on stderr if
    the disagreement exceeds 10x the combined error estimate."""
    point = ZmfPoint(r, k, s)
    try:
        if r <= 2:
            ref = torus_quadrature(point, QuadratureConfig(tol=1e-8, seed=seed))
        elif r == 3:
            ref = monte_carlo(point, QuadratureConfig(samples=200_000, seed=seed))
        else:
            return
    except _NUMERICAL_ERRORS + (DomainError,) as exc:
        print(f"warning: oracle cross-check unavailable: {exc}", file=sys.stderr)
        return
    gap = abs(res.value - ref.value)
    budget = 10.0 * (res.abs_err + ref.abs_err)
    if gap > budget:
        print(
            f"warning: closed form and oracle disagree by {gap:.3e}"
            f" (budget {budget:.3e})",
            file=sys.stderr,
        )


def _cmd_eval(args) -> int:
    if args.from_json:
        with open(args.from_json) as fh:
            rec = json.load(fh)
        r = int(rec["r"])
        k = float(rec["k"])
        s = complex(rec["s"]["re"], rec["s"]["im"])
        if rec.get("method") in ("quadrature", "monte-carlo"):
            # The record holds no tolerance, seed or sample count to rerun it by.
            raise DomainError("--from-json re-evaluates closed-form and contour records only")
        res = w(r, k, s)
        _emit_record(_eval_record(r, k, s, res), args.output)
        return EXIT_OK
    if args.r is None or args.k is None:
        raise DomainError("eval requires --r and --k (or --from-json)")
    s = _parse_s(args)
    if args.method == "mc":
        res = monte_carlo(ZmfPoint(args.r, args.k, s), QuadratureConfig(seed=args.seed))
    else:
        method = {"auto": None, "closed-form": None, "quadrature": "quadrature"}[args.method]
        res = w(args.r, args.k, s, method=method)
    if args.method == "auto":
        _oracle_check(args.r, args.k, s, res, args.seed)
    _emit_record(_eval_record(args.r, args.k, s, res), args.output)
    return EXIT_OK


def _cmd_density(args) -> int:
    if args.k is None:
        val = p_hat(args.r, args.x)
        rec = {"r": args.r, "x": float(args.x), "value": float(val),
               "kind": "base-density"}
    else:
        val = p_r(args.r, args.k, args.x)
        rec = {"r": args.r, "k": float(args.k), "x": float(args.x),
               "value": float(val), "kind": "shifted-absolute-value-density"}
    if args.output == "csv":
        keys = list(rec)
        print(",".join(keys))
        print(",".join(_fmt(rec[key]) if isinstance(rec[key], float) else str(rec[key])
                       for key in keys))
    else:
        print(json.dumps(rec, indent=2))
    return EXIT_OK


def _cmd_moment(args) -> int:
    val = density_moment(args.r, complex(args.v), not args.one_sided)
    rec = {
        "r": args.r,
        "v": float(args.v),
        "two_sided": not args.one_sided,
        "value": {"re": val.real, "im": val.imag},
    }
    print(json.dumps(rec, indent=2))
    return EXIT_OK


def _cmd_zeros(args) -> int:
    zeros = find_zeros_w1(args.k, args.t_max)
    recs = [
        {"k": z.k, "t": z.t, "residual": z.residual, "method": z.method}
        for z in zeros
    ]
    if args.output == "csv":
        print("k,t,residual,method")
        for z in zeros:
            print(f"{_fmt(z.k)},{_fmt(z.t)},{_fmt(z.residual)},{z.method}")
    else:
        rec = {"k": float(args.k), "count": len(recs), "zeros": recs}
        print(json.dumps(rec, indent=2))
    return EXIT_OK


def _cmd_mahler(args) -> int:
    if args.r == 2:
        routes = mahler_w2_routes(args.k)
        value = routes["series"]
    else:
        routes = mahler_w3_routes(args.k)
        value = routes["meijer"]
    spread = max(routes.values()) - min(routes.values())
    rec = {
        "r": args.r,
        "k": float(args.k),
        "value": float(value),
        "route_spread": float(spread),
        "routes": {key: float(val) for key, val in routes.items()},
    }
    print(json.dumps(rec, indent=2))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    s = _parse_s(args)
    point = ZmfPoint(args.r, args.k, s)
    cfg = QuadratureConfig(tol=args.tol, seed=args.seed, samples=args.samples)
    if args.method == "mc":
        res = monte_carlo(point, cfg)
    else:
        res = torus_quadrature(point, cfg)
    _emit_record(_eval_record(args.r, args.k, s, res), args.output)
    return EXIT_OK


def _suite_functional_equations() -> list:
    rows = []
    for k, s in [(3.0, 0.7), (3.0, complex(1, 2)), (5.0, complex(-0.3, 1))]:
        rows.append(("light", k, s, check_fe_light(k, s), 1e-9))
    for k, s in [(1.0, -0.5), (1.5, complex(-0.3, 0.4)), (0.5, -0.25)]:
        rows.append(("heavy", k, s, check_fe_heavy(k, s), 1e-9))
    return rows


def _suite_moments() -> list:
    rows = []
    for r in (1, 2, 3):
        for n in (1, 2, 3):
            got = density_moment(r, 2 * n, True).real
            want = float(math.comb(2 * n, n)) ** r
            rows.append((f"even-moment r={r}", float(2 * n), 2 * n,
                         abs(got - want) / want, 1e-10))
    return rows


def _suite_zeros() -> list:
    rows = []
    for k in (1.0, 3.0):
        zeros = find_zeros_w1(k, 20.0)
        worst = max((z.residual for z in zeros), default=0.0)
        rows.append((f"on-line residual k={k}", k, complex(-0.5), worst, 1e-10))
        strip = count_zeros_box(k, (-0.51, -0.49, 1e-3, 20.0))
        rows.append((f"strip count k={k}", k, complex(-0.5),
                     float(abs(strip.winding - len(zeros))), 0.5))
    return rows


def _suite_mahler() -> list:
    rows = []
    for k in (0.5, 2.0, 3.5):
        routes = mahler_w2_routes(k)
        rows.append(("mahler r=2", k, 0.0,
                     max(routes.values()) - min(routes.values()), 1e-6))
    for k in (0.5, 2.0, 6.0):
        routes = mahler_w3_routes(k)
        rows.append(("mahler r=3", k, 0.0,
                     max(routes.values()) - min(routes.values()), 1e-5))
    return rows


_SUITES = {
    "functional-equations": _suite_functional_equations,
    "moments": _suite_moments,
    "zeros": _suite_zeros,
    "mahler": _suite_mahler,
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = False
    print("suite,case,k,s,residual,threshold,status")
    for name in names:
        for case, k, s, resid, thresh in _SUITES[name]():
            ok = resid < thresh
            failed = failed or not ok
            print(
                f"{name},{case},{_fmt(k)},{s},{_fmt(resid)},{_fmt(thresh)},"
                f"{'pass' if ok else 'FAIL'}"
            )
    return EXIT_VERIFICATION if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zmf",
        description="Evaluate W_r(k;s) and its associated quantities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_s_flags(p):
        p.add_argument("--s", type=float, default=None, help="real s")
        p.add_argument("--s-re", type=float, default=None)
        p.add_argument("--s-im", type=float, default=None)

    def add_output(p):
        p.add_argument("--output", choices=("json", "csv", "plain"),
                       default="json")

    p = sub.add_parser("eval", help="evaluate W_r(k;s)")
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=float)
    add_s_flags(p)
    p.add_argument("--method", choices=("auto", "closed-form", "quadrature", "mc"),
                   default="auto")
    p.add_argument("--from-json", default=None,
                   help="re-evaluate a previous closed-form or contour JSON record")
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("density", help="density of the polynomial's value")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--x", type=float, required=True)
    add_output(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("moment", help="moments of the base density")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--one-sided", action="store_true")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("zeros", help="critical-line zeros of W_1")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--t-max", type=float, default=20.0)
    add_output(p)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("mahler", help="Mahler measure by independent routes")
    p.add_argument("--r", type=int, choices=(2, 3), required=True)
    p.add_argument("--k", type=float, required=True)
    p.set_defaults(func=_cmd_mahler)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="direct torus-integration oracle")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    add_s_flags(p)
    p.add_argument("--method", choices=("quadrature", "mc"), default="quadrature")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (DomainError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
