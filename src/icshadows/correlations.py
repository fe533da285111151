"""Mutual information between measured qubits and MI-driven partitioning.

All MI values use the plug-in estimator in nats with 0 log 0 = 0 and a
clamp at zero, on the empirical outcome frequencies of a
:class:`~icshadows.sampling.Dataset`: the partition comes from the same
shots the duals are learned from. An empty dataset has no frequencies,
so every function and partitioner here rejects it.

The histograms are built with few passes over the shot records.
:func:`mi_graph` splits the qubits into consecutive blocks of b qubits,
with d^(2b) <= 2^16 (b = 3 for Pauli-6), codes each block's outcomes
once, and takes one ``bincount`` per pair of blocks; each qubit pair's
d x d table is an integer sum of one such histogram over its other axes
(3 passes instead of 28 on 8 qubits). :func:`greedy_partition` codes the
growing group once per step, so each candidate qubit costs one add and
one ``bincount``. Counts are integers, so every table, and hence every MI
value, is the same as one :func:`~icshadows.sampling.marginal_counts`
call per pair or candidate would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import Partition
from .sampling import MARGINAL_GROUP_CAP, Dataset, flat_codes

__all__ = [
    "MIGraph",
    "Partition",
    "mi_graph",
    "greedy_partition",
    "naive_partition",
    "PARTITIONERS",
    "resolve_partitioner",
]

# bins of one block-pair histogram in :func:`mi_graph`
_PAIR_BINS = 1 << 16


@dataclass(frozen=True)
class MIGraph:
    """Symmetric non-negative pairwise MI weights with a zero diagonal."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError("weights must be n x n")
        w = np.clip(0.5 * (w + w.T), 0.0, None)
        np.fill_diagonal(w, 0.0)
        object.__setattr__(self, "weights", w)
        self.weights.setflags(write=False)


def _nonempty(ds: Dataset) -> Dataset:
    if ds.S == 0:
        raise ValueError("empty dataset")
    return ds


def _mutual_information(joint: np.ndarray) -> float:
    """MI of a 2-d joint frequency table, in nats."""
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    ratio = joint[mask] / (np.outer(pa, pb)[mask])
    return max(float(np.sum(joint[mask] * np.log(ratio))), 0.0)


def _pair_counts(ds: Dataset) -> dict[tuple[int, int], np.ndarray]:
    """The d x d outcome count table of every qubit pair i < j, rows indexed by i.

    One ``bincount`` per pair of consecutive qubit blocks (one over the
    single block when there is only one); a pair's table is that block
    pair's histogram summed over its other qubits.
    """
    n, d = ds.n, ds.d
    b = 1
    while b < n and d ** (2 * (b + 1)) <= _PAIR_BINS:
        b += 1
    blocks = [list(range(s, min(s + b, n))) for s in range(0, n, b)]
    codes = [flat_codes(ds, block, np.min_scalar_type(d ** len(block) - 1)) for block in blocks]
    if len(blocks) == 1:
        hists = [(blocks[0], np.bincount(codes[0], minlength=d**n))]
    else:
        hists = []
        for a in range(len(blocks)):
            for c in range(a + 1, len(blocks)):
                qubits = blocks[a] + blocks[c]
                # widened before the multiply, so no promotion rule can wrap it
                code = codes[a].astype(np.intp) * d ** len(blocks[c]) + codes[c]
                hists.append((qubits, np.bincount(code, minlength=d ** len(qubits))))
    tables: dict[tuple[int, int], np.ndarray] = {}
    for qubits, hist in hists:
        hist = hist.reshape((d,) * len(qubits))
        for x, i in enumerate(qubits):
            for y in range(x + 1, len(qubits)):
                if (i, qubits[y]) not in tables:
                    others = tuple(a for a in range(len(qubits)) if a not in (x, y))
                    tables[i, qubits[y]] = hist.sum(axis=others)
    return tables


def mi_graph(ds: Dataset) -> MIGraph:
    _nonempty(ds)
    w = np.zeros((ds.n, ds.n))
    for (i, j), counts in _pair_counts(ds).items():
        w[i, j] = w[j, i] = _mutual_information(counts / ds.S)
    return MIGraph(ds.n, w)


def _candidate_mi(ds: Dataset, group: list[int], candidates) -> list[float]:
    """MI between the sorted group's joint outcome and each candidate's outcome.

    The group's code is built once, in the row-major group-then-candidate
    layout, and each candidate adds its outcome.
    """
    if len(group) + 1 > MARGINAL_GROUP_CAP:
        raise ValueError(f"group larger than the cap {MARGINAL_GROUP_CAP}")
    d = ds.d
    bins = d ** (len(group) + 1)
    # in place in a dtype that holds the candidate's codes too
    base = flat_codes(ds, group, np.min_scalar_type(bins - 1))
    base *= d
    values = []
    for q in candidates:
        counts = np.bincount(base + ds.records[:, q], minlength=bins)
        values.append(_mutual_information((counts / ds.S).reshape(-1, d)))
    return values


def greedy_partition(ds: Dataset, k: int) -> Partition:
    """Grow groups from the strongest MI pair, one qubit at a time.

    Each group is seeded with the highest-MI unassigned pair, then extended
    with the unassigned qubit of largest joint-alphabet MI to the group
    until it holds k qubits. Ties always resolve to the lowest index.
    """
    n = _nonempty(ds).n
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        return Partition.singletons(n)
    pair_mi = mi_graph(ds).weights
    unassigned = set(range(n))
    groups: list[tuple[int, ...]] = []
    while len(unassigned) >= 2:
        best, seed = -1.0, None
        for i in sorted(unassigned):
            for j in sorted(unassigned):
                if j <= i:
                    continue
                if pair_mi[i, j] > best:
                    best, seed = pair_mi[i, j], (i, j)
        group = list(seed)
        unassigned.difference_update(group)
        while len(group) < k and unassigned:
            best, pick = -1.0, None
            candidates = sorted(unassigned)
            for q, val in zip(candidates, _candidate_mi(ds, sorted(group), candidates)):
                if val > best:
                    best, pick = val, q
            group.append(pick)
            unassigned.remove(pick)
        groups.append(tuple(sorted(group)))
    for q in sorted(unassigned):
        groups.append((q,))
    return Partition(tuple(groups))


def naive_partition(n: int, k: int) -> Partition:
    """Consecutive index blocks of size k, remainder last."""
    if k < 1:
        raise ValueError("k must be at least 1")
    groups = tuple(
        tuple(range(s, min(s + k, n))) for s in range(0, n, k)
    )
    return Partition(groups)


# partitioners by name, each ``(dataset, k) -> Partition``; the first is the
# default. Each entry looks its function up when called, so a replaced module
# function (as the benchmark's tracer installs) is the one that runs.
PARTITIONERS = {
    "greedy": lambda ds, k: greedy_partition(ds, k),
    "naive": lambda ds, k: naive_partition(_nonempty(ds).n, k),
}


def resolve_partitioner(name: str):
    """Map a partitioner name to a callable ``(dataset, k) -> Partition``."""
    if name not in PARTITIONERS:
        raise ValueError(f"unknown partitioner {name!r}")
    return PARTITIONERS[name]

