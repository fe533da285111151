"""Output checks of one pass; every failed check counts toward ``failed``.

Two kinds of check:

- Statistical checks hold for any seed: each estimate lies within
  5 standard errors of the exact ground energy (computed here by dense
  diagonalization, independently of the package); its sample variance
  agrees with the exact single-shot variance within
  5 * sqrt((kurtosis_bound - 1) / S); learned 4-LO duals beat canonical
  ones; the rmse ratio lies within 1 +- 5 / sqrt(2 R).
- Pinned checks compare outputs with ``references.json``: values that do
  not depend on the seed (canonical exact variances) on every seed, and
  dataset SHA-256, estimates, learned-dual exact variances and the rmse
  value on the reference seeds. ``tfim-10-sample`` has no pinned values:
  its sampler path may legitimately change its bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from functools import reduce

import numpy as np

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# Relative tolerances of pinned values. Each is far below the change a
# different dataset (~1/sqrt(S) relative) or dual frame would cause, and
# far above the last-digit drift of a reordered float summation.
TOLERANCES = {
    "mean": 1e-9,
    "std_error": 1e-6,
    "sample_variance": 1e-6,
    "exact": 1e-8,
    "rmse": 1e-9,
    "predicted_rmse": 1e-8,
}
SIGMAS = 5.0

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def read_terms(path: str) -> list[tuple[float, str]]:
    terms = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                coeff, word = line.split()
                terms.append((float(coeff), word.upper()))
    return terms


def ground_energy(terms) -> float:
    """Lowest eigenvalue of the dense Pauli-sum matrix."""
    mat = sum(c * reduce(np.kron, [_PAULI[ch] for ch in w]) for c, w in terms)
    return float(np.linalg.eigvalsh(mat)[0])


def hamiltonian_path(spec: str, root: str) -> str:
    if spec.startswith("bundled:"):
        return os.path.join(root, "src", "icshadows", "data", spec[len("bundled:"):])
    return spec


def collect_outputs(stage_stdout: dict) -> dict:
    """Flatten the files and printed values a pass produced into name -> value."""
    out = {}
    if os.path.exists("data.icsd"):
        with open("data.icsd", "rb") as fh:
            out["dataset.sha256"] = hashlib.sha256(fh.read()).hexdigest()
    for name in sorted(os.listdir(".")):
        if name.startswith("estimate-") and name.endswith(".csv"):
            row = _csv_row(name)
            label = name[len("estimate-"):-4]
            for key in ("mean", "sample_variance", "std_error"):
                out[f"estimate.{label}.{key}"] = float(row[key])
    if os.path.exists("rmse.csv"):
        row = _csv_row("rmse.csv")
        for key in ("rmse", "predicted_rmse", "ratio"):
            out[f"rmse.{key}"] = float(row[key])
    for label, text in stage_stdout.items():
        if label.startswith("exact."):
            lines = text.split()
            out[label] = float(lines[-1]) if lines else float("nan")
    return out


def _csv_row(path: str) -> dict:
    with open(path, newline="") as fh:
        return next(csv.DictReader(fh))


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def pinned(workload: str, seed: int, refs: dict) -> dict:
    """Reference values for this workload and seed (seed-independent ones first)."""
    mine = refs.get(workload, {})
    vals = dict(mine.get("any", {}))
    vals.update(mine.get(str(seed), {}))
    return vals


def _tolerance(key: str) -> float:
    if key.startswith("exact."):
        return TOLERANCES["exact"]
    return TOLERANCES[key.rsplit(".", 1)[-1]]


def run_checks(workload, sizes, outputs: dict, root: str, refs: dict | None) -> list:
    """Return ``[(name, ok, detail)]`` for every check that applies."""
    results = []

    def check(name, ok, detail):
        results.append((name, bool(ok), detail))

    energy = ground_energy(read_terms(hamiltonian_path(workload.hamiltonian, root)))
    for key in [k for k in outputs if k.startswith("estimate.") and k.endswith(".mean")]:
        label = key[len("estimate."):-len(".mean")]
        mean = outputs[key]
        se = outputs[f"estimate.{label}.std_error"]
        check(f"{label}: |mean - E0| <= {SIGMAS:g} se",
              abs(mean - energy) <= SIGMAS * se,
              f"mean {mean!r}, E0 {energy!r}, se {se!r}")
        exact = outputs.get(f"exact.{label}")
        if exact is not None:
            tol = SIGMAS * math.sqrt((workload.kurtosis_bound - 1.0) / sizes.shots)
            ratio = outputs[f"estimate.{label}.sample_variance"] / exact
            check(f"{label}: sample variance / exact variance within 1 +- {tol:.3g}",
                  abs(ratio - 1.0) <= tol, f"ratio {ratio!r}")
    if "exact.lad" in outputs and "exact.canonical" in outputs:
        check("4-LO lad exact variance below canonical",
              0.0 < outputs["exact.lad"] < outputs["exact.canonical"],
              f"lad {outputs['exact.lad']!r}, canonical {outputs['exact.canonical']!r}")
    if "rmse.ratio" in outputs:
        band = SIGMAS / math.sqrt(2.0 * sizes.repetitions)
        check(f"rmse / predicted within 1 +- {band:.3g}",
              abs(outputs["rmse.ratio"] - 1.0) <= band, f"ratio {outputs['rmse.ratio']!r}")

    for key, want in (refs or {}).items():
        got = outputs.get(key)
        if isinstance(want, str):
            ok = got == want
        else:
            ok = got is not None and abs(got - want) <= _tolerance(key) * abs(want)
        check(f"pinned {key}", ok, f"got {got!r}, reference {want!r}")
    return results
