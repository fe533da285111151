"""Mutual information between measured qubits and MI-driven partitioning.

All MI values use the plug-in estimator in nats with 0 log 0 = 0 and a
clamp at zero. Sources of outcome statistics can be a :class:`Dataset`
(empirical frequencies) or a ``(state, povm)`` pair (exact Born
frequencies), so the same grouping code serves both finite-shot runs and
infinite-statistics oracles.

For a dataset the histograms are built with few passes over the shot
records. :func:`mi_graph` splits the qubits into consecutive blocks of b
qubits, with d^(2b) <= 2^16 (b = 3 for Pauli-6), codes each block's
outcomes once, and takes one ``bincount`` per pair of blocks; each qubit
pair's d x d table is an integer sum of one such histogram over its other
axes (3 passes instead of 28 on 8 qubits). :func:`greedy_partition` codes
the growing group once per step, so each candidate qubit costs one add and
one ``bincount``. Counts are integers, so every table, and hence every MI
value, is the same as one :func:`~icshadows.sampling.marginal_counts` call
per pair or candidate would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import Partition
from .sampling import (
    MARGINAL_GROUP_CAP,
    Dataset,
    flat_codes,
    joint_probabilities,
    marginal_counts,
)

__all__ = [
    "MIGraph",
    "Partition",
    "pair_mutual_information",
    "group_mutual_information",
    "mi_graph",
    "greedy_partition",
    "naive_partition",
    "node_order_partition",
    "edge_order_partition",
    "PARTITIONERS",
    "resolve_partitioner",
    "modularity",
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


def _source_info(source) -> tuple[int, int]:
    if isinstance(source, Dataset):
        if source.S == 0:
            raise ValueError("empty dataset")
        return source.n, source.d
    state, povm = source
    return povm.n, povm.dims[0]


def _frequencies(source, group) -> np.ndarray:
    """Joint outcome frequencies for ``group`` in the listed qubit order."""
    if isinstance(source, Dataset):
        return marginal_counts(source, group).frequencies
    state, povm = source
    return joint_probabilities(state, povm, group)


def _mutual_information(joint: np.ndarray) -> float:
    """MI of a 2-d joint frequency table, in nats."""
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    ratio = joint[mask] / (np.outer(pa, pb)[mask])
    return max(float(np.sum(joint[mask] * np.log(ratio))), 0.0)


def pair_mutual_information(source, i: int, j: int) -> float:
    if i == j:
        raise ValueError("need two distinct qubits")
    a, b = (i, j) if i < j else (j, i)
    _, d = _source_info(source)
    joint = _frequencies(source, (a, b)).reshape(d, d)
    return _mutual_information(joint)


def group_mutual_information(source, group, q: int) -> float:
    """MI between a group's joint outcome and one extra qubit's outcome."""
    group = list(group)
    if q in group:
        raise ValueError("qubit already in the group")
    _, d = _source_info(source)
    joint = _frequencies(source, group + [q]).reshape(d ** len(group), d)
    return _mutual_information(joint)


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


def mi_graph(source) -> MIGraph:
    n, _ = _source_info(source)
    w = np.zeros((n, n))
    if isinstance(source, Dataset):
        for (i, j), counts in _pair_counts(source).items():
            w[i, j] = w[j, i] = _mutual_information(counts / source.S)
    else:
        for i in range(n):
            for j in range(i + 1, n):
                w[i, j] = w[j, i] = pair_mutual_information(source, i, j)
    return MIGraph(n, w)


def _candidate_mi(source, group: list[int], candidates) -> list[float]:
    """:func:`group_mutual_information` of the sorted group with each candidate.

    For a dataset the group's code is built once, in the same row-major
    group-then-candidate layout, and each candidate adds its outcome.
    """
    if not isinstance(source, Dataset):
        return [group_mutual_information(source, group, q) for q in candidates]
    if len(group) + 1 > MARGINAL_GROUP_CAP:
        raise ValueError(f"group larger than the cap {MARGINAL_GROUP_CAP}")
    d = source.d
    bins = d ** (len(group) + 1)
    # in place in a dtype that holds the candidate's codes too
    base = flat_codes(source, group, np.min_scalar_type(bins - 1))
    base *= d
    values = []
    for q in candidates:
        counts = np.bincount(base + source.records[:, q], minlength=bins)
        values.append(_mutual_information((counts / source.S).reshape(-1, d)))
    return values


def greedy_partition(source, k: int) -> Partition:
    """Grow groups from the strongest MI pair, one qubit at a time.

    Each group is seeded with the highest-MI unassigned pair, then extended
    with the unassigned qubit of largest joint-alphabet MI to the group
    until it holds k qubits. Ties always resolve to the lowest index.
    """
    n, _ = _source_info(source)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        return Partition.singletons(n)
    pair_mi = mi_graph(source).weights
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
            for q, val in zip(candidates, _candidate_mi(source, sorted(group), candidates)):
                if val > best:
                    best, pick = val, q
            group.append(pick)
            unassigned.remove(pick)
        groups.append(tuple(sorted(group)))
    for q in sorted(unassigned):
        groups.append((q,))
    return Partition(tuple(groups), max_size=k)


def naive_partition(n: int, k: int) -> Partition:
    """Consecutive index blocks of size k, remainder last."""
    if k < 1:
        raise ValueError("k must be at least 1")
    groups = tuple(
        tuple(range(s, min(s + k, n))) for s in range(0, n, k)
    )
    return Partition(groups, max_size=k)


def node_order_partition(g: MIGraph, k: int) -> Partition:
    """Visit qubits by index; fill each opener's group with its best partners."""
    if k < 1:
        raise ValueError("k must be at least 1")
    unassigned = set(range(g.n))
    groups = []
    for q in range(g.n):
        if q not in unassigned:
            continue
        unassigned.remove(q)
        group = [q]
        while len(group) < k and unassigned:
            best, pick = -np.inf, None
            for u in sorted(unassigned):
                if g.weights[q, u] > best:
                    best, pick = g.weights[q, u], u
            group.append(pick)
            unassigned.remove(pick)
        groups.append(tuple(sorted(group)))
    return Partition(tuple(groups), max_size=k)


def edge_order_partition(g: MIGraph, k: int) -> Partition:
    """Merge endpoint groups along edges of descending weight.

    An edge whose merge would exceed k qubits is discarded. Zero-weight
    edges never merge, so untouched qubits end up as singletons.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    parent = list(range(g.n))
    size = [1] * g.n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = [
        (g.weights[i, j], i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if g.weights[i, j] > 0
    ]
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))
    for _, i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        if size[ri] + size[rj] > k:
            continue
        parent[rj] = ri
        size[ri] += size[rj]
    members: dict[int, list[int]] = {}
    for q in range(g.n):
        members.setdefault(find(q), []).append(q)
    groups = sorted(tuple(sorted(v)) for v in members.values())
    return Partition(tuple(groups), max_size=k)


# partitioners by name, each ``(source, k) -> Partition``; the first is the
# default. Each entry looks its function up when called, so a replaced module
# function (as the benchmark's tracer installs) is the one that runs.
PARTITIONERS = {
    "greedy": lambda source, k: greedy_partition(source, k),
    "naive": lambda source, k: naive_partition(_source_info(source)[0], k),
    "node": lambda source, k: node_order_partition(mi_graph(source), k),
    "edge": lambda source, k: edge_order_partition(mi_graph(source), k),
}


def resolve_partitioner(spec):
    """Map a partitioner name to a callable ``(source, k) -> Partition``."""
    if callable(spec):
        return spec
    name = str(spec)
    if name not in PARTITIONERS:
        raise ValueError(f"unknown partitioner {name!r}")
    return PARTITIONERS[name]


def modularity(g: MIGraph, p: Partition) -> float:
    """Newman weighted modularity of a partition of the MI graph."""
    w = g.weights
    total = w.sum()  # equals 2W
    if total <= 0:
        return 0.0
    deg = w.sum(axis=1)
    label = np.empty(g.n, dtype=int)
    for c, group in enumerate(p.groups):
        for q in group:
            label[q] = c
    same = label[:, None] == label[None, :]
    q_val = (w[same].sum() - (np.outer(deg, deg)[same].sum()) / total) / total
    return float(q_val)
