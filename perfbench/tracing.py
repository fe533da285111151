"""Span recording around the library's public functions, from outside it.

Nothing under ``src/`` is edited. ``install`` replaces each traced
function with a recording wrapper in every ``icshadows`` module namespace
that holds it, so a call is recorded under the name its caller looks it
up by (``cli.estimate``, ``estimation.sample_shots`` inside
``rmse_experiment``, ``frames.duality_residual`` inside ``DualFrame``
validation, ...). Spans stay in memory; the pass writes them out at the
end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time


def _dataset_shot_terms(ds, duals, obs, *_, **__):
    return {"work": ds.S * len(obs.terms)}


def _term_pairs(state, povm, duals, obs, *_, **__):
    t = len(obs.terms)
    return {"work": t * (t + 1) // 2}


def _shots(state, povm, S, *_, **__):
    return {"work": int(S)}


def _hamiltonian_key(obs, *_, **__):
    return {"key": hash(obs.terms)}


def _backend(mt, effects, backend, *_, **__):
    return {"backend": {"ConstrainedLAD": "lad", "LinearInversionPSD": "psd",
                        "FrequencyBias": "bias"}.get(type(backend).__name__, "other")}


def _reconstruct_report(result, *_, **__):
    report = result[1]
    return {"iterations": int(report.iterations), "converged": bool(report.converged)}


def _written_bytes(result, path, *_, **__):
    return {"bytes": os.path.getsize(path)}


# (module, function) -> (attrs before the call, attrs from the result)
TRACED = {
    ("estimation", "estimate"): (_dataset_shot_terms, None),
    ("estimation", "exact_moments"): (_term_pairs, None),
    ("estimation", "exact_expectation"): (None, None),
    ("estimation", "rmse_experiment"): (None, None),
    ("sampling", "sample_shots"): (_shots, None),
    ("sampling", "marginal_counts"): (None, None),
    ("frames", "canonical_global"): (None, None),
    ("frames", "optimal_duals"): (None, None),
    ("frames", "duals_from_weights"): (None, None),
    ("frames", "duality_residual"): (None, None),
    ("tomography", "reconstruct"): (_backend, _reconstruct_report),
    ("correlations", "mi_graph"): (None, None),
    ("correlations", "greedy_partition"): (None, None),
    ("io", "read_hamiltonian"): (None, None),
    ("io", "read_dataset"): (None, None),
    ("io", "write_dataset"): (None, _written_bytes),
    ("io", "read_partition"): (None, None),
    ("io", "write_partition"): (None, None),
    ("io", "read_duals"): (None, None),
    ("io", "write_duals"): (None, None),
    ("io", "write_csv"): (None, None),
    ("states", "ground_state"): (_hamiltonian_key, None),
}


class Tracer:
    """In-memory span recorder: name, start, end, parent span, attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str, attrs: dict | None = None) -> dict:
        stack = self._stack()
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs or {},
        }
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def end(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.begin(name, before(*args, **kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if after:
                rec["attrs"].update(after(result, *args, **kwargs))
            return result

        return traced


def install(tracer: Tracer) -> dict:
    """Wrap every function in ``TRACED`` wherever an icshadows module holds it.

    Returns the original functions by traced name.
    """
    originals = {}
    replace = {}
    for (mod, func), (before, after) in TRACED.items():
        fn = getattr(importlib.import_module(f"icshadows.{mod}"), func)
        originals[f"{mod}.{func}"] = fn
        replace[id(fn)] = tracer.wrap(f"{mod}.{func}", fn, before, after)
    for name, module in list(sys.modules.items()):
        if name != "icshadows" and not name.startswith("icshadows."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in replace:
                setattr(module, attr, replace[id(value)])
    return originals


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


COVERAGE_FLOOR = 0.9


def layer_metrics(spans: list[dict]) -> tuple[dict, list[dict]]:
    """Per-layer metrics of one traced pass, and its per-stage coverage.

    Stage spans are named ``cli.<label>``. A stage whose traced library
    calls cover less than ``COVERAGE_FLOOR`` of its time is reported as
    unattributed; its uncovered time stays in ``cli.overhead_s``.
    """
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    m: dict[str, float] = {}

    def named(name):
        return [s for s in spans if s["name"] == name]

    for mod, func in TRACED:
        mine = named(f"{mod}.{func}")
        m[f"{mod}.{func}.calls"] = len(mine)
        m[f"{mod}.{func}.self_s"] = sum(selfs[s["id"]] for s in mine)

    def rate(name):
        sp = named(name)
        busy = sum(s["end"] - s["start"] for s in sp)
        return sum(s["attrs"]["work"] for s in sp) / busy if busy > 0 else 0.0

    m["estimation.shot_terms_per_s"] = rate("estimation.estimate")
    m["estimation.term_pairs_per_s"] = rate("estimation.exact_moments")
    m["sampling.shots_per_s"] = rate("sampling.sample_shots")

    reps = []
    for rm in named("estimation.rmse_experiment"):
        kids = sorted((s for s in spans if s["parent"] == rm["id"]), key=lambda s: s["start"])
        draws = [s for s in kids if s["name"] == "sampling.sample_shots"]
        ests = [s for s in kids if s["name"] == "estimation.estimate"]
        reps += [(e["end"] - d["start"]) * 1e3 for d, e in zip(draws, ests)]
    m["estimation.rmse.rep_p50_ms"] = _percentile(reps, 0.50)
    m["estimation.rmse.rep_p90_ms"] = _percentile(reps, 0.90)

    recon = named("tomography.reconstruct")
    lad = [s for s in recon if s["attrs"]["backend"] == "lad"]
    m["tomography.lad.iterations"] = sum(s["attrs"].get("iterations", 0) for s in lad)
    m["tomography.lad.converged_ratio"] = (
        sum(s["attrs"].get("converged", False) for s in lad) / len(lad) if lad else 0.0
    )

    def has_ancestor(s, name):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                return True
            p = by_id[p]["parent"]
        return False

    m["correlations.partition.marginal_counts.calls"] = sum(
        has_ancestor(s, "correlations.greedy_partition") for s in named("sampling.marginal_counts")
    )
    m["io.dataset_bytes"] = sum(s["attrs"].get("bytes", 0) for s in named("io.write_dataset"))
    solves = named("states.ground_state")
    distinct = len({s["attrs"]["key"] for s in solves})
    m["states.ground_state.calls_per_hamiltonian"] = len(solves) / distinct if distinct else 0.0

    stages = [s for s in spans if s["name"].startswith("cli.")]
    coverage = []
    for s in stages:
        dur = s["end"] - s["start"]
        share = 1.0 - selfs[s["id"]] / dur if dur > 0 else 1.0
        coverage.append({"stage": s["name"][4:], "seconds": dur, "covered": share,
                         "unattributed": share < COVERAGE_FLOOR})
    m["cli.overhead_s"] = sum(selfs[s["id"]] for s in stages)
    m["trace.coverage_min"] = min((c["covered"] for c in coverage), default=1.0)
    m["trace.unattributed_stages"] = sum(c["unattributed"] for c in coverage)
    return m, coverage
