"""One pass of one workload, in a fresh process.

Run by ``run.py``; not meant to be started by hand. The pass imports the
package from ``<root>/src``, writes the workload's generated inputs into
its own work directory (the end of set-up), runs the workload's CLI
stages in-process through ``icshadows.cli.main``, then checks the outputs
and writes one JSON result file. With ``--trace 1`` it records a span
around every stage and every traced library call, and afterwards runs
two sampler probes outside the timed stages.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=["full", "smoke"], required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    return p.parse_args(argv)


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def run_stages(cli, stages, tracer):
    timings, printed, failures = [], {}, []
    for st in stages:
        buf = io.StringIO()
        t0 = time.perf_counter()
        rec = tracer.begin(f"cli.{st.label}") if tracer else None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(st.argv))
        except Exception as exc:  # a traceback is a failed operation, not a crash of the pass
            rc = repr(exc)
        if rec:
            tracer.end(rec)
        t1 = time.perf_counter()
        timings.append((st.label, st.kind, t0, t1))
        printed[st.label] = buf.getvalue()
        if rc != 0:
            failures.append(f"stage {st.label} returned {rc}")
    return timings, printed, failures


def probes(originals, cli, workload, sizes, seed) -> dict:
    """Sampler planning cost (S = 1) and the workers=2 speed-up, untimed by the pass."""
    from icshadows.povm import pauli6_product

    sample = originals["sampling.sample_shots"]
    obs = cli.load_hamiltonian(workload.hamiltonian)
    _, psi = originals["states.ground_state"](obs)
    povm = pauli6_product(obs.n)
    fixed = []
    for _ in range(5):
        t0 = time.perf_counter()
        sample(psi, povm, 1, seed)
        fixed.append(time.perf_counter() - t0)
    chunk = max(1, sizes.probe_shots // 4)
    times = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        sample(psi, povm, sizes.probe_shots, seed, workers=workers, chunk=chunk)
        times[workers] = time.perf_counter() - t0
    return {
        "sampling.sample_shots.fixed_s": sorted(fixed)[len(fixed) // 2],
        "sampling.workers2_speedup": times[1] / times[2],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    import icshadows.cli as cli

    import checks
    from workloads import KINDS, WORKLOADS, write_inputs

    workload = WORKLOADS[args.workload]
    sizes = workload.sizes[args.size]
    os.makedirs(args.workdir)
    os.chdir(args.workdir)
    write_inputs(workload, args.seed)
    result = {"ready": time.monotonic()}
    if args.setup_only:
        return _write(args.result, result)

    tracer = originals = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
    stages = workload.stages(args.seed, args.size)
    timings, printed, failures = run_stages(cli, stages, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["wall_s"] = timings[-1][3] - timings[0][2]
    result["stage_s"] = {
        kind: sum(t1 - t0 for _, k, t0, t1 in timings if k == kind) for kind in KINDS
    }
    result["stages"] = [[label, t1 - t0] for label, _, t0, t1 in timings]

    if tracer:
        spans = list(tracer.spans)
        metrics, coverage = tracing.layer_metrics(spans)
        metrics.update(probes(originals, cli, workload, sizes, args.seed))
        result.update(layer_metrics=metrics, coverage=coverage, spans=spans)

    outputs = checks.collect_outputs(printed)
    refs = None
    if args.size == "full":
        refs = checks.pinned(args.workload, args.seed, checks.load_references())
    found = checks.run_checks(workload, sizes, outputs, args.root, refs)
    result.update(
        outputs=outputs,
        operations=len(stages) + len(found),
        failures=failures + [f"check {name}: {detail}" for name, ok, detail in found if not ok],
        checks=found,
        env=environment(),
    )
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
