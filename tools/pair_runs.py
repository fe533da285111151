"""Pair runs of the perfbench workloads: a parent commit against the working tree.

Usage (from the repository root):

    python tools/pair_runs.py --parent <commit> --workloads h2-8q-paper,h2-8q-rmse \
        --seeds 0-9 --out BENCH_<n>.json [--claim h2-8q-paper:wall_s] \
        [--trace-seed 3] [--scratch DIR]

A workload may carry its own seeds, as in ``h2-8q-paper:0-10,h2-8q-rmse:0-5``.

The parent side is a ``git archive`` of ``--parent``; the change side is a
copy of the working tree's tracked and untracked, not ignored, files. For
each workload and seed the script runs ``perfbench/run.py --trace 0`` once
per side, one run at a time, alternating which side goes first (the
parent on even pair indices). Run length is left to ``perfbench/run.py``'s
own ``--seconds`` default. It writes the output file after every pair:
per metric of ``BENCHMARK.json``'s ``end_to_end`` list, the median and
quartiles of each side, the number of pairs in which the change is
strictly lower, the relative change of the medians, and every pair.

Each workload gets a no-regression verdict per metric, against the
metric's ``bound`` in ``BENCHMARK.json`` (every metric there is better
lower): ``unresolved`` when the parent's interquartile range exceeds the
bound times its median and not every change run is below every parent
run, else ``worse`` when the change's median exceeds the parent's by more
than the bound times the parent's median, else ``within bound``. With
``--claim WORKLOAD:METRIC`` it adds a claim verdict: the claim holds when
at least ten pairs ran, the change is lower in at least nine of ten of
them, and the medians differ by more than the parent's interquartile
range. With ``--trace-seed`` it adds, for every workload, one traced pass
(``--trace 1``) per side and its per-layer metrics, under
``trace_seed<seed>_<workload>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """``0-10`` or ``0,2,5`` or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout


def make_sides(parent: str, scratch: str) -> dict[str, str]:
    """Check out the parent commit and copy the working tree under ``scratch``."""
    sides = {"parent": os.path.join(scratch, "parent"), "change": os.path.join(scratch, "change")}
    for path in sides.values():
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", parent],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", sides["parent"]], input=archive, check=True)
    for name in git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):
            dst = os.path.join(sides["change"], name)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)
    return sides


def run_once(side_dir: str, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run; the parsed JSON of its last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side_dir, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {side_dir} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "iqr": round(float(q3 - q1), 4)}


def summarize(pairs: list[dict], metrics: list[str]) -> dict:
    out = {}
    for m in metrics:
        par = [p["parent"][m] for p in pairs]
        chg = [p["change"][m] for p in pairs]
        pq, cq = quartiles(par), quartiles(chg)
        out[m] = {
            "parent": pq,
            "change": cq,
            "pairs": len(pairs),
            "change_lower": sum(c < p for p, c in zip(par, chg)),
            "change_below_all": max(chg) < min(par),
            "median_change_rel": round(float(np.median(chg) / np.median(par) - 1.0), 4),
        }
    return out


def verdict(summary: dict, metric: str) -> str:
    s = summary[metric]
    pm, cm = s["parent"]["median"], s["change"]["median"]
    if s["pairs"] < MIN_PAIRS:
        status = f"NOT met (fewer than {MIN_PAIRS} pairs)"
    elif s["change_lower"] >= 0.9 * s["pairs"] and pm - cm > s["parent"]["iqr"]:
        status = "met"
    else:
        status = "NOT met"
    return (f"claim {status}: the change is lower on "
            f"{s['change_lower']}/{s['pairs']} pairs, median {pm} -> {cm} "
            f"({100 * s['median_change_rel']:+.1f}%), a gap of {pm - cm:.4f} against a "
            f"parent IQR of {s['parent']['iqr']}")


def regression(summary: dict, metric: str, bound: float) -> str:
    """The no-regression verdict of one lower-is-better metric (module docstring)."""
    s = summary[metric]
    pm, cm = s["parent"]["median"], s["change"]["median"]
    if s["parent"]["iqr"] > bound * pm and not s["change_below_all"]:
        return "unresolved"
    return "worse" if cm - pm > bound * pm else "within bound"


def host() -> str:
    import scipy

    return (f"{os.cpu_count()} CPUs ({platform.machine()}), 1 BLAS thread (perfbench default), "
            f"Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    p.add_argument("--seeds", default=f"0-{MIN_PAIRS - 1}", help="seeds, e.g. 0-9 or 0,3,7")
    p.add_argument("--out", required=True, help="output file, e.g. BENCH_9.json")
    p.add_argument("--claim", help="WORKLOAD:METRIC the change claims to lower")
    p.add_argument("--trace-seed", type=int, help="seed of one traced pass per side")
    p.add_argument("--scratch", help="directory for the two checkouts (default: a temp dir)")
    args = p.parse_args(argv)

    workloads = {}
    for entry in args.workloads.split(","):
        name, _, own = entry.partition(":")
        if name:
            workloads[name] = own or args.seeds
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    metrics = list(bounds)
    parent = git("rev-parse", "--short", args.parent).strip()
    scratch = args.scratch or tempfile.mkdtemp(prefix="pair_runs-")
    sides = make_sides(parent, scratch)

    command = ("python3 perfbench/run.py --workload <workload> --seed <seed> --trace 0 "
               "(run length: perfbench's own --seconds default)")
    result = {
        "what": f"perfbench pair runs: parent commit {parent} against this change, "
                "alternating which side runs first",
        "command": command,
        "sides": f"parent: a git archive of {parent}; change: a copy of the working tree "
                 "(tracked and untracked files, ignored ones left out)",
        "seeds": workloads,
        "host": host(),
        "quartiles": "numpy.percentile, linear interpolation; iqr = q3 - q1",
        "change_lower": "pairs in which the change's value is strictly lower "
                        "(ties count for neither side)",
        "no_regression": "per end-to-end metric: within bound, worse or unresolved against "
                         "its BENCHMARK.json bound (rule in tools/pair_runs.py)",
        "workloads": {},
    }
    claim_workload, _, claim_metric = (args.claim or "").partition(":")
    if args.claim:
        result["claim"] = f"{claim_metric} on {claim_workload} is lower"

    def write():
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")

    try:
        for w, seed_text in workloads.items():
            pairs = []
            for i, seed in enumerate(parse_seeds(seed_text)):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    res = run_once(sides[side], w, seed, 0)
                    pair[side] = {m: round(res["metrics"][m]["value"], 4) for m in metrics}
                    pair[side].update(correct=res["correct"], failed=res["failed"],
                                      attempted=res["attempted"])
                pairs.append(pair)
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{s} {pair[s]['wall_s']:.4f} s" for s in ("parent", "change")),
                    file=sys.stderr)
                summary = summarize(pairs, metrics)
                result["workloads"][w] = {
                    "summary": summary,
                    "no_regression": {m: regression(summary, m, bounds[m]) for m in metrics},
                    "correct": all(p[s]["correct"] for p in pairs for s in sides),
                    "failed": {s: sum(p[s]["failed"] for p in pairs) for s in sides},
                    "pairs": pairs,
                }
                if w == claim_workload:
                    result["verdict"] = verdict(summary, claim_metric)
                write()
        if args.trace_seed is not None:
            for w in workloads:
                traced = {}
                for side in ("parent", "change"):
                    res = run_once(sides[side], w, args.trace_seed, 1)
                    for name, m in res["metrics"].items():
                        traced.setdefault(name, {})[side] = round(m["value"], 4)
                result[f"trace_seed{args.trace_seed}_{w}"] = {
                    "note": f"one traced run per side of {w}, --trace 1, seed {args.trace_seed}",
                    **traced,
                }
                write()
    finally:
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
