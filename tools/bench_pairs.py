"""Alternating-pair benchmark of a change against its parent commit.

Usage, from the root of a checkout whose working tree holds the change:

    python3 tools/bench_pairs.py --out BENCH_20.json --workloads eval-contour \
        --seeds 1 2 --pairs 10 --claim eval-contour:tasks_per_s:1.4

The parent side is `git archive` of --base (default HEAD) unpacked into a
scratch directory; the change side is a copy of the working tree's tracked
and untracked, not ignored, files.  Both run `perfbench/run.py` from their
own directory, so neither writes into the other.  For each workload and seed
the two sides run in --pairs alternating pairs (pair i even: parent first),
each run `--trace 0` for the `run_seconds` that BENCHMARK.json sets;
afterwards each side runs once with `--trace 1` for the per-layer counts.  The output holds, per workload, seed and end-to-end
metric, both sides' runs, medians and inclusive quartiles, and the number of
pairs the change wins (ties count for neither side); per workload and seed,
each side's median minor page faults per run (the `ru_minflt` of the
perfbench child, from `getrusage(RUSAGE_CHILDREN)`); and the no-regression
test that BENCHMARK.json's `bound` sets: "within" when the change's median is
worse than the parent's by at most that fraction of the parent's median,
"worse" when by more, and "unresolved" when the parent's own interquartile
range, as the same fraction, is wider than the bound, unless every run of the
change reads better than every run of the parent.  A --claim
workload:metric:factor also records whether the change's median beats the
parent's by that factor, wins 9 of 10 pairs or more, and differs from the
parent's median by more than the parent's interquartile range.  The output
also records `src_lines`: the lines that the working tree adds and removes
under src/ against --base (`git diff --numstat`, so untracked files are not
counted), and their net.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checkouts(scratch: Path, base: str) -> dict:
    """{"parent": dir, "change": dir}: base's files and the working tree's."""
    parent, change = scratch / "parent", scratch / "change"
    for d in (parent, change):
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", base], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
    files = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "-co", "--exclude-standard"],
        check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():
            (change / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, change / name)
    return {"parent": parent, "change": change}


def _src_lines(base: str) -> dict:
    """{added, removed, net}: lines under src/ in the working tree against base."""
    out = subprocess.run(
        ["git", "-C", str(ROOT), "diff", "--numstat", base, "--", "src/"],
        check=True, capture_output=True, text=True,
    ).stdout
    added = removed = 0
    for line in out.splitlines():
        a, r, _ = line.split("\t", 2)
        if a != "-":  # a binary file has no line counts
            added, removed = added + int(a), removed + int(r)
    return {"added": added, "removed": removed, "net": added - removed}


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its last line of standard output as a dict, with
    the run's minor page faults added as "minflt"."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout
    rec = json.loads(out.strip().splitlines()[-1])
    rec["minflt"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    return rec


def _quartiles(xs: list) -> tuple:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def _summary(runs: dict, specs: dict) -> dict:
    """Per metric: both sides' runs, median and quartiles, and the change's wins."""
    out = {}
    for name, spec in specs.items():
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        if any(v is None for vs in sides.values() for v in vs):
            continue
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        entry = {"better": spec["better"], "unit": spec["unit"], "change_wins": wins}
        for side, xs in sides.items():
            q1, med, q3 = _quartiles(xs)
            entry[side] = {"median": med, "q1": q1, "q3": q3, "runs": xs}
        entry["no_regression"] = _no_regression(entry, sign, spec["bound"])
        out[name] = entry
    return out


def _no_regression(metric: dict, sign: float, bound: float) -> dict:
    """How much worse the change's median is than the parent's, and the
    parent's interquartile range, both as fractions of the parent's median,
    with the status "within", "worse" or "unresolved" against bound."""
    p, c = metric["parent"], metric["change"]
    scale = abs(p["median"]) or 1.0
    worse_by = sign * (p["median"] - c["median"]) / scale
    spread = (p["q3"] - p["q1"]) / scale
    all_better = min(sign * x for x in c["runs"]) > max(sign * x for x in p["runs"])
    if spread > bound and not all_better:
        status = "unresolved"
    else:
        status = "within" if worse_by <= bound else "worse"
    return {"bound": bound, "worse_by": worse_by, "parent_spread": spread, "status": status}


def _claim(metric: dict, factor: float) -> dict:
    """Whether the change's median is factor times better than the parent's,
    wins 9 of 10 pairs or more, and sits beyond the parent's IQR."""
    p, c = metric["parent"], metric["change"]
    higher = metric["better"] == "higher"
    ratio = c["median"] / p["median"] if higher else p["median"] / c["median"]
    pairs = len(p["runs"])
    gap, iqr = abs(c["median"] - p["median"]), p["q3"] - p["q1"]
    return {
        "change_over_parent": ratio, "factor": factor, "change_wins": metric["change_wins"],
        "pairs": pairs, "parent_iqr": iqr, "median_gap": gap,
        "met": ratio >= factor and metric["change_wins"] >= 0.9 * pairs and gap > iqr,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--scratch", default=None, help="directory for the two checkouts")
    ap.add_argument("--claim", action="append", default=[], help="workload:metric:factor")
    args = ap.parse_args(argv)
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="bench_pairs_"))
    dirs = _checkouts(scratch, args.base)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    base = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.base],
                          check=True, capture_output=True, text=True).stdout.strip()
    result = {
        "command": "python3 perfbench/run.py --workload <w> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "method": f"parent: git archive of {base}; change: the working tree; "
                  f"{args.pairs} alternating pairs per workload and seed (pair i even: "
                  "parent first), inclusive quartiles; then one --trace 1 run per side",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "processor": platform.processor()},
        "src_lines": _src_lines(args.base),
        "end_to_end": {}, "traced": {}, "claims": {},
    }
    for workload in args.workloads:
        for seed in args.seeds:
            key = f"{workload} seed {seed}"
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(_run(dirs[side], workload, seed, seconds, 0))
                    print(f"{key} pair {i} {side}: "
                          f"{runs[side][-1]['metrics']['tasks_per_s']['value']:.1f} tasks/s",
                          file=sys.stderr)
            result["end_to_end"][key] = {
                "pairs": args.pairs,
                "correct_all": all(r["correct"] for side in runs.values() for r in side),
                "failed_total": {s: sum(r["failed"] for r in rs) for s, rs in runs.items()},
                "attempted_total": {s: sum(r["attempted"] for r in rs) for s, rs in runs.items()},
                "minor_faults_median": {
                    s: statistics.median(r["minflt"] for r in rs) for s, rs in runs.items()
                },
                "metrics": _summary(runs, specs),
            }
            result["traced"][key] = {
                side: {name: m["value"] for name, m in _run(d, workload, seed, 0, 1)["metrics"].items()}
                for side, d in dirs.items()
            }
    for claim in args.claim:
        workload, metric, factor = claim.split(":")
        result["claims"][claim] = {
            key: _claim(entry["metrics"][metric], float(factor))
            for key, entry in result["end_to_end"].items() if key.startswith(workload + " ")
        }
    result["no_regression"] = {
        key: {name: m["no_regression"]["status"] for name, m in entry["metrics"].items()}
        for key, entry in result["end_to_end"].items()
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
