"""The claim and no-regression verdicts of tools/pair_runs.py on synthetic pairs."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pair_runs.py")
_spec = importlib.util.spec_from_file_location("pair_runs", _PATH)
pair_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_runs)


def _summary(parent, change):
    pairs = [{"parent": {"wall_s": p}, "change": {"wall_s": c}} for p, c in zip(parent, change)]
    return pair_runs.summarize(pairs, ["wall_s"])


def _verdict(parent, change):
    return pair_runs.verdict(_summary(parent, change), "wall_s")


def test_parse_seeds():
    assert pair_runs.parse_seeds("0-3,7") == [0, 1, 2, 3, 7]
    assert pair_runs.parse_seeds("5") == [5]


def test_verdict_needs_ten_pairs():
    parent = [1.70 + 0.001 * i for i in range(10)]
    change = [1.40 + 0.001 * i for i in range(10)]
    short = _verdict(parent[:6], change[:6])
    assert short.startswith("claim NOT met (fewer than 10 pairs)")
    assert "6/6 pairs" in short
    full = _verdict(parent, change)
    assert full.startswith("claim met:") and "10/10 pairs" in full


@pytest.mark.parametrize("lower, met", [(9, True), (8, False)])
def test_verdict_needs_nine_in_ten(lower, met):
    parent = [1.70 + 0.001 * i for i in range(10)]
    change = [p - 0.3 if i < lower else p + 0.01 for i, p in enumerate(parent)]
    assert _verdict(parent, change).startswith("claim met:" if met else "claim NOT met:")


def test_verdict_needs_a_gap_above_the_parent_iqr():
    parent = [1.0 + 0.1 * i for i in range(10)]  # IQR 0.45
    change = [p - 0.2 for p in parent]  # lower in every pair, median gap 0.2
    assert _verdict(parent, change).startswith("claim NOT met:")


@pytest.mark.parametrize(
    "parent, change, want",
    [
        # a steady parent (IQR 0.0045 at median 1.0): a 20% rise is within a 0.25 bound
        ([1.0 + 0.001 * i for i in range(10)], [1.2 + 0.001 * i for i in range(10)],
         "within bound"),
        # ... a 30% rise is worse, in every pair as in the medians
        ([1.0 + 0.001 * i for i in range(10)], [1.3 + 0.001 * i for i in range(10)], "worse"),
        # a parent IQR of 0.45 at median 1.45 is wider than the bound: unresolved,
        # even with the change's median the lower one
        ([1.0 + 0.1 * i for i in range(10)], [0.95 + 0.1 * i for i in range(10)],
         "unresolved"),
        # ... unless every change run is below every parent run
        ([1.0 + 0.1 * i for i in range(10)], [0.9 - 0.01 * i for i in range(10)],
         "within bound"),
    ],
)
def test_no_regression_verdict(parent, change, want):
    assert pair_runs.regression(_summary(parent, change), "wall_s", 0.25) == want


def test_trace_seed_traces_every_workload(monkeypatch, tmp_path):
    calls = []

    def fake_run(side_dir, workload, seed, trace):
        calls.append((side_dir, workload, seed, trace))
        names = ["wall_s", "setup_s", "peak_rss_mb"] + (["trace.wall_s"] if trace else [])
        return {"metrics": {m: {"value": 1.0} for m in names}, "correct": True, "failed": 0,
                "attempted": 1}

    monkeypatch.setattr(pair_runs, "run_once", fake_run)
    monkeypatch.setattr(pair_runs, "make_sides",
                        lambda parent, scratch: {"parent": "P", "change": "C"})
    monkeypatch.setattr(pair_runs, "git", lambda *args: "abc1234\n")
    out = tmp_path / "bench.json"
    assert pair_runs.main(["--parent", "HEAD", "--workloads", "w1,w2:5", "--seeds", "0-1",
                           "--out", str(out), "--trace-seed", "3",
                           "--scratch", str(tmp_path)]) == 0
    traced = [c for c in calls if c[3] == 1]
    assert traced == [("P", "w1", 3, 1), ("C", "w1", 3, 1), ("P", "w2", 3, 1), ("C", "w2", 3, 1)]
    result = json.loads(out.read_text())
    keys = sorted(k for k in result if k.startswith("trace_seed"))
    assert keys == ["trace_seed3_w1", "trace_seed3_w2"]
    assert result["trace_seed3_w2"]["trace.wall_s"] == {"parent": 1.0, "change": 1.0}
    assert "of w2," in result["trace_seed3_w2"]["note"]
    assert [p["seed"] for p in result["workloads"]["w2"]["pairs"]] == [5]
