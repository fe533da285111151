"""Workload definitions: the CLI stages each workload runs, and its sizes.

A workload is a list of ``Stage`` records. Each stage is one
``icshadows`` CLI invocation, run in-process through
``icshadows.cli.main(argv)``. Paths in the argument lists are relative to
the pass's own work directory.

Why these three workloads (the layer each one stresses):

- ``h2-8q-paper``: the paper's variance table on the 8-qubit H2 case:
  sample, learn 4-LO duals (``correlations``, ``tomography``,
  ``frames``), then estimate and exact variance for canonical and 4-LO
  duals. ``estimation`` dominates.
- ``h2-8q-rmse``: the same ``sampling`` and ``estimation`` layers, but
  through many small calls (S = 1000 per repetition), so per-call set-up
  cost shows where large-S throughput does not.
- ``tfim-10-sample``: a 10-qubit ground state, above the joint-tensor
  limit, so sampling takes the per-shot sequential collapse path.

A fourth, ``h2-4q-learn`` (the 4-qubit H2 case through the lad, psd and
bias backends), was left out: the lad fit on that state stops after 100
iterations on most datasets but runs 1700-2700 on about a third of them,
so its time depends on the seed far beyond any usable bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

H2_8Q = "bundled:h2_631g_8q.txt"
TFIM_FILE = "tfim10.txt"
TFIM_QUBITS = 10

# Stage kinds; the untraced pass reports one time per kind.
SAMPLE, LEARN, ESTIMATE, EXACT, RMSE = "sample", "learn", "estimate", "exact", "rmse"
KINDS = (SAMPLE, LEARN, ESTIMATE, EXACT, RMSE)


@dataclass(frozen=True)
class Stage:
    label: str
    kind: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Sizes:
    shots: int  # S of the sample stage, or S per repetition for rmse
    repetitions: int = 0  # R of the rmse stage
    probe_shots: int = 0  # S of the traced run's workers=1 vs workers=2 probe


@dataclass(frozen=True)
class Workload:
    name: str
    hamiltonian: str  # CLI spec, ``bundled:NAME`` or a generated file name
    sizes: dict  # "full" and "smoke" -> Sizes
    # Stated bound on the kurtosis of the single-shot estimator. It sets
    # the statistical band of the sample-variance vs exact-variance check:
    # |sv/ev - 1| <= 5 * sqrt((kurtosis - 1) / S).
    kurtosis_bound: float
    why: str
    build: Callable  # (workload, seed, Sizes) -> list[Stage]

    def stages(self, seed: int, size: str) -> list[Stage]:
        return self.build(self, seed, self.sizes[size])


def _canonical(h: str) -> list[Stage]:
    return [
        Stage("estimate.canonical", ESTIMATE, ("estimate", "data.icsd", "--hamiltonian", h,
                                               "--out", "estimate-canonical.csv")),
        Stage("exact.canonical", EXACT, ("exact-variance", f"ground-state-of:{h}",
                                         "--hamiltonian", h)),
    ]


def _sample(h: str, seed: int, shots: int) -> Stage:
    return Stage("sample", SAMPLE, ("sample", f"ground-state-of:{h}", "--shots", str(shots),
                                    "--seed", str(seed), "--out", "data.icsd"))


def _paper(w: Workload, seed: int, sz: Sizes) -> list[Stage]:
    h = w.hamiltonian
    return [
        _sample(h, seed, sz.shots),
        Stage("mi", LEARN, ("mi", "data.icsd", "--out", "mi.csv")),
        Stage("partition", LEARN, ("partition", "data.icsd", "--k", "4", "--out", "part.txt")),
        Stage("tomo.lad", LEARN, ("tomo", "data.icsd", "--partition", "part.txt",
                                  "--backend", "lad", "--out-prefix", "rdm-lad")),
        Stage("duals.lad", LEARN, ("duals", "--rdm-prefix", "rdm-lad", "--partition", "part.txt",
                                   "--out", "duals-lad.icdl")),
        Stage("estimate.lad", ESTIMATE, ("estimate", "data.icsd", "--hamiltonian", h,
                                         "--duals", "duals-lad.icdl", "--out", "estimate-lad.csv")),
        Stage("exact.lad", EXACT, ("exact-variance", f"ground-state-of:{h}", "--hamiltonian", h,
                                   "--duals", "duals-lad.icdl")),
    ] + _canonical(h)


def _rmse(w: Workload, seed: int, sz: Sizes) -> list[Stage]:
    h = w.hamiltonian
    return [
        Stage("rmse", RMSE, ("rmse", f"ground-state-of:{h}", "--hamiltonian", h,
                             "--repetitions", str(sz.repetitions), "--shots", str(sz.shots),
                             "--seed", str(seed), "--out", "rmse.csv")),
    ]


def _tfim(w: Workload, seed: int, sz: Sizes) -> list[Stage]:
    return [_sample(w.hamiltonian, seed, sz.shots)] + _canonical(w.hamiltonian)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "h2-8q-paper", H2_8Q,
            {"full": Sizes(10**6, probe_shots=2**18), "smoke": Sizes(4000, probe_shots=2**12)},
            kurtosis_bound=1000.0,
            why="the paper's 8-qubit H2 variance table at S=1e6: estimate and exact moments dominate",
            build=_paper,
        ),
        Workload(
            "h2-8q-rmse", H2_8Q,
            {"full": Sizes(1000, repetitions=100, probe_shots=2**18),
             "smoke": Sizes(200, repetitions=5, probe_shots=2**12)},
            kurtosis_bound=1000.0,
            why="8-qubit H2 RMSE, R=100 repetitions of S=1000: per-call sampler planning and estimate cost",
            build=_rmse,
        ),
        Workload(
            "tfim-10-sample", TFIM_FILE,
            {"full": Sizes(5000, probe_shots=800), "smoke": Sizes(100, probe_shots=80)},
            kurtosis_bound=10.0,
            why="10-qubit TFIM ring with seeded couplings: the per-shot sequential sampler above 8 qubits",
            build=_tfim,
        ),
    )
}


def tfim_terms(seed: int) -> list[tuple[float, str]]:
    """Transverse-field Ising ring -sum J_i Z_i Z_{i+1} - sum h_i X_i.

    Couplings and fields are drawn uniformly from [0.5, 1.5) with the
    workload seed, so the program sees only the generated file.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    n = TFIM_QUBITS
    terms = []
    for i in range(n):
        word = ["I"] * n
        word[i] = word[(i + 1) % n] = "Z"
        terms.append((-float(rng.uniform(0.5, 1.5)), "".join(word)))
    for i in range(n):
        word = ["I"] * n
        word[i] = "X"
        terms.append((-float(rng.uniform(0.5, 1.5)), "".join(word)))
    return terms


def write_inputs(workload: Workload, seed: int) -> None:
    """Write the workload's generated input files into the current directory."""
    if workload.hamiltonian == TFIM_FILE:
        with open(TFIM_FILE, "w") as fh:
            fh.write(f"# transverse-field Ising ring, {TFIM_QUBITS} qubits, seed {seed}\n")
            for coeff, word in tfim_terms(seed):
                fh.write(f"{coeff:+.17e} {word}\n")
