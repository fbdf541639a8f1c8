"""zmf benchmark: closed-loop workloads with checked outputs and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-series --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload oracle --seed 1 --self-check

One caller on one thread runs each workload in a closed loop: a task starts
only after the previous one returned.  Before timing, references are
computed for every task and an untimed warm-up runs tasks from a separate
seed stream.  The timed loop makes whole passes over the seeded pool until
--seconds have elapsed.  --trace 0 prints the end-to-end metrics; --trace 1
runs the first round of the pool untraced and then traced, adds the pinned
defect tasks, and prints the per-layer metrics.  The last line of standard
output is one JSON object.  Run details (environment, per-task results and
spans) go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# (metric, tracer key, field, unit).  The tracer reports None for a hook
# whose target no longer exists.
PER_LAYER = (
    ("gamma.log_gamma.calls", "gamma.log_gamma", "calls", "count"),
    ("gamma.log_gamma.self_s", "gamma.log_gamma", "self_s", "s"),
    ("hyper.pfq.calls", "hyper.pfq", "calls", "count"),
    ("hyper.pfq.self_s", "hyper.pfq", "self_s", "s"),
    ("hyper.near_unit.calls", "hyper.near_unit", "calls", "count"),
    ("hyper.near_unit.self_s", "hyper.near_unit", "self_s", "s"),
    ("hyper.continued.calls", "hyper.continued", "calls", "count"),
    ("hyper.continued.self_s", "hyper.continued", "self_s", "s"),
    ("hyper.ode.nfev", "hyper.ode", "nfev", "count"),
    ("hyper.ode.self_s", "hyper.ode", "self_s", "s"),
    ("meijer.mb.calls", "meijer.mb", "calls", "count"),
    ("meijer.mb.nodes", "meijer.mb", "nodes", "count"),
    ("meijer.mb.self_s", "meijer.mb", "self_s", "s"),
    ("meijer.triple.calls", "meijer.triple", "calls", "count"),
    ("meijer.triple.self_s", "meijer.triple", "self_s", "s"),
    ("quadutil.ts.runs", "quadutil.ts", "calls", "count"),
    ("quadutil.ts.nodes", "quadutil.ts", "nodes", "count"),
    ("quadutil.ts.levels", "quadutil.ts", "levels", "count"),
    ("quadutil.ts.unconverged", "quadutil.ts", "unconverged", "count"),
    ("quadutil.ts.self_s", "quadutil.ts", "self_s", "s"),
    ("oracle.torus.calls", "oracle.torus", "calls", "count"),
    ("oracle.torus.t1_calls", "oracle.torus.t1", "calls", "count"),
    ("oracle.torus.self_s", "oracle.torus", "self_s", "s"),
    ("oracle.torus.t1.self_s", "oracle.torus.t1", "self_s", "s"),
    ("oracle.mc.samples", "oracle.mc", "samples", "count"),
    ("oracle.mc.self_s", "oracle.mc", "self_s", "s"),
    ("oracle.density.calls", "oracle.density", "calls", "count"),
    ("oracle.density.self_s", "oracle.density", "self_s", "s"),
    ("density.g_recursion.calls", "density.g_recursion", "calls", "count"),
    ("density.g_recursion.self_s", "density.g_recursion", "self_s", "s"),
    ("density.g_recursion_impl.calls", "density.g_recursion_impl", "calls", "count"),
    ("density.g_recursion_impl.self_s", "density.g_recursion_impl", "self_s", "s"),
    ("density.p_r.calls", "density.p_r", "calls", "count"),
    ("density.p_r.self_s", "density.p_r", "self_s", "s"),
    ("analysis.zeros.self_s", "analysis.zeros", "self_s", "s"),
    ("analysis.box.self_s", "analysis.box", "self_s", "s"),
    ("analysis.fe.self_s", "analysis.fe", "self_s", "s"),
    ("analysis.mahler.self_s", "analysis.mahler", "self_s", "s"),
    ("zmf.w.calls", "zmf.w", "calls", "count"),
    ("zmf.w.self_s", "zmf.w", "self_s", "s"),
    ("zmf.closed.calls", "zmf.closed", "calls", "count"),
    ("zmf.closed.self_s", "zmf.closed", "self_s", "s"),
    ("zmf.odd_limit.calls", "zmf.odd_limit", "calls", "count"),
)
SETUP_REPEATS = 5
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import zmf.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _env() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def measure_setup() -> float:
    """Median time of `import zmf.cli` in a fresh interpreter, after one
    untimed import that leaves the bytecode cache warm; each import is
    scaled to reference seconds by calibrations just before and after it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        before = _calibrate()
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            raw = float(out.stdout.strip().splitlines()[-1])
            times.append(raw * 2.0 * CAL_REF_S / (before + _calibrate()))
    return statistics.median(times)


# Reference machine: _calibrate() takes CAL_REF_S on the 2-core Xeon host
# (Python 3.11.7) this benchmark was tuned on.
CAL_REF_S = 1.3e-3
CAL_EVERY_S = 0.25


def _calibrate() -> float:
    """Median of three timings of a fixed pure-Python complex recurrence,
    the kind of interpreter-bound work that dominates zmf."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        acc, term, z = 0j, 1 + 0j, 0.3 + 0.1j
        for n in range(3000):
            term = term * z * ((n - 0.5j) * (n + 0.25)) / ((n + 1.0) * (n + 1.5))
            acc += term
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _scaled(raw: list, marks: list) -> list:
    """Scale each latency by CAL_REF_S over the mean of the calibrations
    taken just before and just after it; marks are (tasks done, time)."""
    out, j = [], 0
    for i, dt in enumerate(raw):
        while marks[j + 1][0] <= i:
            j += 1
        out.append(dt * 2.0 * CAL_REF_S / (marks[j][1] + marks[j + 1][1]))
    return out


def _tail(lat: list) -> float:
    """Latency at the highest percentile with at least 10 tasks beyond it."""
    if len(lat) < 11:
        raise ValueError("a tail needs at least 11 tasks")
    return sorted(lat)[-11]


def _run_once(tasks, run, tracer=None):
    """Run tasks once in a closed loop; returns (wall_s, outcomes)."""
    outcomes = []
    t_start = time.perf_counter()
    for task in tasks:
        try:
            out = tracer.task(run, task) if tracer else run(task)
        except Exception as exc:  # a failed task is counted, never retried
            out = exc
        outcomes.append(out)
    wall = time.perf_counter() - t_start
    return wall, outcomes


def _score(tasks, outcomes, refs_, wl):
    """(ok per task, agreement digits of passing tasks, failure records)."""
    oks, digits, failures = [], [], []
    for task, out, ref in zip(tasks, outcomes, refs_):
        ok, d = wl.check(task, out, ref)
        oks.append(ok)
        if not ok:
            failures.append({"task": task, "out": repr(out), "ref": repr(ref)})
        elif d is not None:
            digits.append(d)
    return oks, digits, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of a workload; returns the result record it also writes out."""
    import workloads as wl
    import zmf

    started = time.time()
    pool = wl.generate(name, seed)
    result = {"workload": name, "seed": seed, "trace": int(trace), "env": _env(),
              "row_mix": wl.row_mix(pool)}
    if trace:
        metrics, spans = _traced(wl, zmf, name, seed, pool, result)
    else:
        metrics, spans = _timed(wl, zmf, name, seed, pool, seconds, result), []
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["elapsed_s"] = time.time() - started
    _write(name, seed, trace, result, spans)
    return result


def _timed(wl, zmf, name, seed, pool, seconds, result) -> dict:
    """Untraced closed loop over whole passes of the pool: end-to-end metrics."""
    run = wl.runner(zmf)
    setup = measure_setup()
    t_ref = time.perf_counter()
    refs_ = [wl.reference(t, zmf) for t in pool]
    result["reference_s"] = time.perf_counter() - t_ref
    _run_once(wl.warmup(name, seed), run)
    # On a shared host the machine's own speed swings by 40% over a minute,
    # and a run sits in one state or another.  Each task's latency is
    # therefore scaled by a calibration kernel timed right before and after
    # it (outside the task timings), to seconds of a reference machine on
    # which the kernel takes CAL_REF_S.  Throughput and tail are per pass,
    # reported as the median over passes.
    raw, marks, failed, digits, failures, npass = [], [(0, _calibrate())], 0, [], [], 0
    t0 = t_cal = time.perf_counter()
    while time.perf_counter() - t0 < seconds or not npass:
        outcomes = []
        for task in pool:
            ts = time.perf_counter()
            try:
                out = run(task)
            except Exception as exc:  # a failed task is counted, never retried
                out = exc
            te = time.perf_counter()
            raw.append(te - ts)
            outcomes.append(out)
            if te - t_cal >= CAL_EVERY_S:
                marks.append((len(raw), _calibrate()))
                t_cal = time.perf_counter()
        npass += 1
        oks, d, fl = _score(pool, outcomes, refs_, wl)
        failed, digits, failures = failed + oks.count(False), digits + d, failures + fl
    if marks[-1][0] < len(raw):
        marks.append((len(raw), _calibrate()))
    wall = time.perf_counter() - t0
    lat = _scaled(raw, marks)
    passes = [lat[i:i + len(pool)] for i in range(0, len(lat), len(pool))]
    by_row = {}
    for task, dt in zip(pool * npass, raw):
        by_row.setdefault(task["row"], []).append(dt)
    result.update(
        attempted=len(lat), failed=failed, failures=failures[:20], passes=npass,
        timed_wall_s=wall, tail_percentile=100.0 * (len(pool) - 10) / len(pool),
        tail_tasks=len(pool), fail_frac=failed / len(lat),
        calibration_ms=[1e3 * c for _, c in marks],
        wall_tasks_per_s=len(raw) / wall, wall_task_p50_ms=1e3 * statistics.median(raw),
        row_p50_ms={r: 1e3 * statistics.median(v) for r, v in by_row.items()},
    )
    return {
        "setup_s": (setup, "s"),
        "tasks_per_s": (statistics.median(len(p) / sum(p) for p in passes), "1/ref_s"),
        "task_p50_ms": (1e3 * statistics.median(lat), "ref_ms"),
        "task_tail_ms": (1e3 * statistics.median(_tail(p) for p in passes), "ref_ms"),
        "agree_digits_min": (min(digits) if digits else None, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _traced(wl, zmf, name, seed, pool, result):
    """The first round untraced, then traced, then the pinned defect tasks
    traced: per-layer metrics and the spans."""
    from tracer import Tracer

    run = wl.runner(zmf)
    tasks = pool[: len(pool) // wl.WORKLOADS[name].rounds]
    pinned = [dict(t, row="pinned") for t in wl.PINNED[name]]
    t_ref = time.perf_counter()
    refs_ = [wl.reference(t, zmf) for t in tasks]
    pin_refs = [wl.reference(t, zmf) for t in pinned]
    result["reference_s"] = time.perf_counter() - t_ref
    _run_once(wl.warmup(name, seed), run)
    base_wall, _ = _run_once(tasks, run)
    tracer = Tracer()
    tracer.install()
    try:
        wall, outcomes = _run_once(tasks, run, tracer)
        pin_wall, pin_out = _run_once(pinned, run, tracer)
    finally:
        tracer.uninstall()
    oks, _, failures = _score(tasks, outcomes, refs_, wl)
    pin_oks, _, _ = _score(pinned, pin_out, pin_refs, wl)
    failed, pin_failed = oks.count(False), pin_oks.count(False)
    layers = tracer.layer_self()
    attributed = sum(v for k, v in layers.items() if k != "bench")
    result.update(
        attempted=len(tasks), failed=failed, failures=failures,
        pinned=[{"task": t, "ok": ok, "out": repr(o), "ref": repr(r)}
                for t, ok, o, r in zip(pinned, pin_oks, pin_out, pin_refs)],
        missing_hooks=tracer.missing, layer_self_s=layers,
        traced_wall_s=wall, untraced_wall_s=base_wall, pinned_wall_s=pin_wall,
        counts=tracer.counts(), values=[repr(o) for o in outcomes],
    )
    metrics = {m: (tracer.value(key, f), unit) for m, key, f, unit in PER_LAYER}
    metrics["trace_overhead"] = (wall / base_wall - 1.0, "ratio")
    metrics["trace.attributed_frac"] = (attributed / (wall + pin_wall), "ratio")
    metrics["fail_frac"] = ((failed + pin_failed) / (len(tasks) + len(pinned)), "ratio")
    metrics["pinned.failed"] = (pin_failed, "count")
    return metrics, tracer.spans


def _write(name, seed, trace, result, spans):
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=repr)
    if spans:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for name_, sid, parent, t0, t1 in spans:
                fh.write(f'["{name_}",{sid},{parent},{t0!r},{t1!r}]\n')


def _print_report(result: dict) -> None:
    env = result["env"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"mpmath={env['mpmath']} nproc={env['nproc']} cpu={env['cpu']!r} "
          f"loadavg={env['loadavg'][0]:.2f}")
    if not result["trace"]:
        print(f"#   tail at p{result['tail_percentile']:.2f} of {result['tail_tasks']} tasks per pass, "
              f"{result['passes']} passes, fail_frac {result['fail_frac']:.4g}; wall clock: "
              f"{result['wall_tasks_per_s']:.6g} tasks/s, p50 {result['wall_task_p50_ms']:.6g} ms")
    else:
        for p in result["pinned"]:
            print(f"#   pinned {'ok  ' if p['ok'] else 'FAIL'} {p['task']} -> {p['out']}")
        if result["missing_hooks"]:
            print(f"#   missing hooks: {', '.join(result['missing_hooks'])}")
    for f in result["failures"][:5]:
        print(f"#   failed {f['task']}: {f['out']} vs {f['ref']}")
    for name, m in result["metrics"].items():
        v = m["value"]
        shown = "absent" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))
        print(f"{result['workload']:<13} {name:<34} {shown:>14} {m['unit']}")


def self_check(name: str, seed: int) -> bool:
    """Same seed twice: identical tasks, bit-identical values and identical
    counts.  A second seed: different tasks, same row mix."""
    import workloads as wl

    a, b = wl.generate(name, seed), wl.generate(name, seed)
    c = wl.generate(name, seed + 1)
    checks = {
        "same seed, same tasks": a == b,
        "other seed, other tasks": a != c,
        "other seed, same row mix": wl.row_mix(a) == wl.row_mix(c),
    }
    r1 = run_workload(name, seed, 0, trace=True)
    r2 = run_workload(name, seed, 0, trace=True)
    checks["same seed, same values"] = r1["values"] == r2["values"]
    checks["same seed, same counts"] = r1["counts"] == r2["counts"]
    for what, ok in checks.items():
        print(f"{name:<13} self-check {what:<28} {'ok' if ok else 'FAILED'}")
    return all(checks.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "zmf" / "__init__.py").is_file():
        print(f"perfbench: no zmf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    if args.self_check:
        return 0 if all(self_check(n, args.seed) for n in names) else 1

    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = []
    for trace in modes:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, trace)
            _print_report(res)
            results.append(res)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
