"""Benchmark of the icshadows CLI pipeline. Run from the repository root:

    python3 perfbench/run.py --workload h2-8q-paper --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke                # every workload at tiny sizes, with self-checks
    python3 perfbench/run.py --workload h2-8q-paper --seed 1 --record-references

A run measures for about ``--seconds`` seconds (at least one pass). Each
pass is a fresh Python process (``bench_pass.py``) that runs the
workload's CLI stages in-process, so peak memory and first-call costs
are per pass, as a CLI user pays them. Set-up time is the median of
several processes that only import the package and write the inputs.
With ``--trace 0`` the last stdout line holds the end-to-end metrics of
``BENCHMARK.json``, medians over the untraced passes; with ``--trace 1``
it holds the per-layer metrics, from traced passes alternated with
untraced ones. The full record of a run (environment, every pass,
checks, spans of the last traced pass) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import KINDS, WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # every run ends well inside the 180 s budget
SETUP_SAMPLES = 7
BLAS_THREADS = "1"
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """The passes of one workload run, spawned as child processes."""

    def __init__(self, root, workload, seed, size):
        self.root, self.workload, self.seed, self.size = root, workload, seed, size
        self.t_begin = time.monotonic()
        self.work = os.path.join(root, WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
        # One BLAS thread: the pass is the only busy process, and on a small
        # shared machine a second BLAS thread made stage times noisier, not faster.
        self.env = dict(os.environ)
        self.env.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)
        self.env.setdefault("OMP_NUM_THREADS", self.env["OPENBLAS_NUM_THREADS"])
        self.count = 0
        self.crashes = []

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.t_begin)

    def spawn(self, trace=False, setup_only=False):
        """Run one child; return its result dict with ``setup_s`` added, or None."""
        self.count += 1
        result = os.path.join(self.work, f"pass{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "bench_pass.py"),
               "--root", self.root, "--workload", self.workload, "--seed", str(self.seed),
               "--size", self.size, "--trace", str(int(trace)),
               "--workdir", os.path.join(self.work, f"pass{self.count}"), "--result", result]
        if setup_only:
            cmd.append("--setup-only")
        os.makedirs(self.work, exist_ok=True)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            self.crashes.append(f"pass {self.count} exceeded the run deadline")
            return None
        if proc.returncode != 0 or not os.path.exists(result):
            self.crashes.append(f"pass {self.count} exited with code {proc.returncode}")
            return None
        with open(result) as fh:
            res = json.load(fh)
        res["setup_s"] = res["ready"] - t0
        res["traced"] = trace
        shutil.rmtree(os.path.join(self.work, f"pass{self.count}"), ignore_errors=True)
        return res

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with_parent = os.path.join(self.root, WORK_DIR)
        if os.path.isdir(with_parent) and not os.listdir(with_parent):
            os.rmdir(with_parent)


def measure(root, workload, seed, seconds, trace, size="full", setup_samples=SETUP_SAMPLES):
    """Run set-up probes and passes; return (e2e, per_layer, record)."""
    run = Run(root, workload, seed, size)
    try:
        setups = [r["setup_s"] for r in (run.spawn(setup_only=True) for _ in range(setup_samples)) if r]
        passes, durations = [], []
        t_first = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            t0 = time.monotonic()
            res = run.spawn(trace=traced)
            durations.append(time.monotonic() - t0)
            if res is None:
                break
            passes.append(res)
            elapsed = time.monotonic() - t_first
            kinds = {p["traced"] for p in passes}
            if trace and len(kinds) < 2:
                continue
            if elapsed + median(durations) > seconds or max(durations) > run.remaining():
                break
    finally:
        run.close()
    e2e, layer, record = summarize(workload, seed, trace, setups, passes, run.crashes)
    record.update(source(root))
    return e2e, layer, record


def summarize(workload, seed, trace, setups, passes, crashes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    e2e = {}
    if plain and setups:
        e2e = {
            "setup_s": median(setups),
            "wall_s": median([p["wall_s"] for p in plain]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        }
    layer = {}
    if traced and e2e:
        for name in traced[0]["layer_metrics"]:
            layer[name] = median([p["layer_metrics"][name] for p in traced])
        for kind in KINDS:
            layer[f"pipeline.{kind}_s"] = median([p["stage_s"][kind] for p in plain])
        layer["trace.wall_s"] = median([p["wall_s"] for p in traced])
        layer["trace.overhead_s"] = layer["trace.wall_s"] - e2e["wall_s"]
    out = plain[0]["outputs"] if plain else {}
    reduction = 0.0
    if out.get("exact.lad"):
        reduction = out["exact.canonical"] / out["exact.lad"]
    layer["pipeline.variance_reduction"] = reduction
    failures = crashes + [f for p in passes for f in p["failures"]]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": passes[0]["env"] if passes else {},
        "setup_s": setups,
        "passes": [
            {k: p[k] for k in ("traced", "setup_s", "wall_s", "peak_rss_mb", "stage_s", "stages",
                               "failures", "checks", "outputs")}
            for p in passes
        ],
        "attempted": sum(p["operations"] for p in passes) + len(crashes),
        "failed": len(failures),
        "failures": failures,
        "variance_reduction": reduction,
    }
    if traced:
        record["coverage"] = traced[-1]["coverage"]
        record["spans"] = traced[-1]["spans"]
        record["layer_self_s"] = layer_totals(layer)
    return e2e, layer, record


def layer_totals(layer):
    """Self time by module (layer), from the ``<module>.<function>.self_s`` metrics."""
    totals = {}
    for name, value in layer.items():
        parts = name.split(".")
        if len(parts) == 3 and parts[2] == "self_s":
            totals[parts[0]] = totals.get(parts[0], 0.0) + value
    totals["cli"] = layer.get("cli.overhead_s", 0.0)
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def source(root):
    """The commit when the checkout is a git repository, and always a SHA-256
    over the package sources."""
    import hashlib

    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    base = os.path.join(root, "src", "icshadows")
    for dirpath, dirnames, files in sorted(os.walk(base)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".txt")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def spec():
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def select(metrics, wanted):
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"benchmark defect: metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def write_record(record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def report(record):
    env = record["env"]
    print(f"[{record['workload']} seed {record['seed']}] python {env.get('python')} numpy "
          f"{env.get('numpy')} scipy {env.get('scipy')} {env.get('blas')} threads "
          f"{env.get('blas_threads')} nproc {env.get('nproc')} cpu {env.get('cpu_model')!r}",
          file=sys.stderr)
    for p in record["passes"]:
        stages = ", ".join(f"{k} {v:.3f}" for k, v in p["stage_s"].items() if v)
        print(f"  {'traced' if p['traced'] else 'plain '} wall {p['wall_s']:.3f} s ({stages})",
              file=sys.stderr)
    if record.get("layer_self_s"):
        top = ", ".join(f"{k} {v:.3f}" for k, v in list(record["layer_self_s"].items())[:4])
        print(f"  self time by layer: {top}", file=sys.stderr)
        for c in record["coverage"]:
            if c["unattributed"]:
                print(f"  unattributed: stage {c['stage']} covered {c['covered']:.0%}", file=sys.stderr)
    for f in record["failures"]:
        print(f"  FAILED: {f}", file=sys.stderr)


def record_references(root, workload, seed):
    """Store this seed's outputs as pinned references (done once, at the seed commit)."""
    from checks import REFERENCES, load_references

    if workload == "tfim-10-sample":
        raise SystemExit("tfim-10-sample is checked statistically only")
    _, _, record = measure(root, workload, seed, 0.0, False, setup_samples=1)
    if record["failed"] or not record["passes"]:
        raise SystemExit(f"not recording references from a failed run: {record['failures']}")
    outputs = record["passes"][0]["outputs"]
    refs = load_references()
    mine = refs.setdefault(workload, {})
    for key, value in outputs.items():
        if key.endswith(".ratio"):
            continue
        seedless = key == "exact.canonical" or key == "rmse.predicted_rmse"
        mine.setdefault("any" if seedless else str(seed), {})[key] = value
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(outputs)} values for {workload} seed {seed}", file=sys.stderr)


def smoke(root):
    """Every workload at tiny sizes, traced and untraced, with the harness's self-checks."""
    import tracing

    bench = spec()
    problems = []
    for name in WORKLOADS:
        e2e, layer, record = measure(root, name, 0, 0.0, True, size="smoke", setup_samples=1)
        report(record)
        problems += [f"{name}: {f}" for f in record["failures"]]
        for group, metrics in (("end_to_end", e2e), ("per_layer", layer)):
            for m in bench[group]:
                if m["name"] not in metrics or not m["unit"]:
                    problems.append(f"{name}: {group} metric {m['name']} not printed with a unit")
        selfs = tracing.self_times(record.get("spans", []))
        if any(v < -1e-9 for v in selfs.values()):
            problems.append(f"{name}: negative self time")
        if sum(selfs.values()) > layer.get("trace.wall_s", 0.0) + 1e-6:
            problems.append(f"{name}: self times sum above the traced wall time")
    for p in problems:
        print(f"SMOKE FAILURE: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "icshadows", "cli.py")):
        print("error: run from the repository root; src/icshadows is missing", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if not args.workload:
        p.error("--workload is required")
    if args.record_references:
        record_references(root, args.workload, args.seed)
        return 0
    bench = spec()
    e2e, layer, record = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_record(record)
    report(record)
    print(f"  record: {path}", file=sys.stderr)
    if not record["passes"]:
        print("error: no pass completed", file=sys.stderr)
        return 1
    metrics = select(layer, bench["per_layer"]) if args.trace else select(e2e, bench["end_to_end"])
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
