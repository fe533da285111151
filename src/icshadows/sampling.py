"""Seeded Born-rule sampling of product-POVM shots.

Reproducibility contract: shot ``s`` of a run is a pure function of
``(state, povm, seed, s)``. Each shot consumes one uniform double per
qubit, drawn from a counter-based generator advanced to that shot's own
block, so datasets are byte-identical whether generated serially, in
chunks, or by several workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .partition import Partition
from .povm import ProductPOVM
from .states import BlockProductState, DensityMatrix, PureState, reduced_density

__all__ = [
    "Dataset",
    "MarginalTable",
    "shot_uniforms",
    "SamplingPlan",
    "sample_shots",
    "joint_probabilities",
    "joint_probability_tensor",
    "marginal_counts",
]

JOINT_TENSOR_QUBIT_LIMIT = 8
MARGINAL_GROUP_CAP = 8
DEFAULT_CHUNK = 65536


@dataclass(frozen=True)
class Dataset:
    """S shot records of per-qubit outcome indices, plus provenance."""

    n: int
    d: int
    S: int
    records: np.ndarray  # (S, n) uint8
    seed: int
    povm_id: str = "pauli6"

    def __post_init__(self):
        rec = np.asarray(self.records, dtype=np.uint8)
        if rec.shape != (self.S, self.n):
            raise ValueError("records shape does not match (S, n)")
        if rec.size and rec.max() >= self.d:
            raise ValueError("outcome index out of range")
        object.__setattr__(self, "records", rec)
        self.records.setflags(write=False)


@dataclass(frozen=True)
class MarginalTable:
    group: tuple[int, ...]
    counts: np.ndarray  # flat, row-major over group order
    S: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.sum() != self.S:
            raise ValueError("counts do not sum to S")
        object.__setattr__(self, "group", tuple(int(q) for q in self.group))
        object.__setattr__(self, "counts", counts)
        self.counts.setflags(write=False)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.S


def shot_uniforms(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """Uniform doubles for shots [start, start+count), one column per qubit.

    Per-shot consumption is padded to a whole number of 4-word counter
    blocks so that advancing the generator lands exactly on a shot
    boundary for any start.
    """
    words = 4 * ((n + 3) // 4)
    bitgen = np.random.Philox(key=np.uint64(seed))
    bitgen.advance(start * (words // 4))
    u = np.random.Generator(bitgen).random((count, words))
    return u[:, :n]


def _density_matrix(state) -> np.ndarray:
    """Dense density matrix of a pure or mixed state, qubits ascending."""
    if isinstance(state, PureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    if isinstance(state, DensityMatrix):
        return state.matrix
    return reduced_density(state, range(state.n)).matrix


def joint_probability_tensor(state, povm: ProductPOVM) -> np.ndarray:
    """Born probabilities of the full joint outcome, one axis per qubit.

    Axes run in ascending qubit order; this is the tensor the sampler
    plans with, so it needs ``state.n <= JOINT_TENSOR_QUBIT_LIMIT``.
    """
    if state.n > JOINT_TENSOR_QUBIT_LIMIT:
        raise ValueError("state too large for the joint probability tensor")
    return _joint_probability_tensor(_density_matrix(state), povm, range(state.n))


def _joint_probability_tensor(rho: np.ndarray, povm: ProductPOVM, qubits) -> np.ndarray:
    """Outcome probability tensor with one axis per qubit of ``qubits``."""
    k = len(qubits)
    t = rho.reshape((2,) * (2 * k))
    for i, q in enumerate(qubits):
        eff = povm.locals[q].effects
        rem = k - i
        # contract this qubit's (row, col) pair; outcome axis lands at the end
        t = np.tensordot(t, eff, axes=([0, rem], [2, 1]))
    return np.clip(t.real, 0.0, None)


def joint_probabilities(state, povm: ProductPOVM, group) -> np.ndarray:
    """Exact Born probabilities of a group's joint outcome, flat row-major.

    The flat index runs over the group's listed order, matching the
    layout of :func:`marginal_counts` on a sampled dataset.
    """
    group = [int(q) for q in group]
    if len(set(group)) != len(group):
        raise ValueError("duplicate qubit in group")
    if len(group) > MARGINAL_GROUP_CAP:
        raise ValueError(f"group larger than the cap {MARGINAL_GROUP_CAP}")
    srt = sorted(group)
    sigma = reduced_density(state, srt)
    t = _joint_probability_tensor(sigma.matrix, povm, srt)
    perm = [srt.index(q) for q in group]
    return t.transpose(perm).reshape(-1)


def _walk_chunk(prefixes, dims, u: np.ndarray) -> np.ndarray:
    """Ascending conditional inverse-CDF walk for a chunk of shots."""
    cnt = u.shape[0]
    out = np.empty((cnt, len(dims)), dtype=np.uint8)
    code = np.zeros(cnt, dtype=np.int64)
    for i, d in enumerate(dims):
        rows = prefixes[i + 1].reshape(-1, d)[code]
        cdf = np.cumsum(rows, axis=1)
        thr = u[:, i] * prefixes[i].reshape(-1)[code]
        m = (cdf <= thr[:, None]).sum(axis=1)
        np.minimum(m, d - 1, out=m)
        out[:, i] = m
        code = code * d + m
    return out


def _prefix_tensors(joint: np.ndarray) -> list[np.ndarray]:
    prefixes = [joint]
    for _ in range(joint.ndim):
        prefixes.append(prefixes[-1].sum(axis=-1))
    prefixes.reverse()
    if prefixes[0] <= 0:
        raise ValueError("state has no outcome mass (numerically invalid)")
    return prefixes


def _sqrt_effect(eff: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(eff)
    return (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.conj().T


def _sample_pure_sequential(state: PureState, povm: ProductPOVM, u: np.ndarray) -> np.ndarray:
    """Per-shot collapse fallback for statevectors above the tensor limit."""
    n = state.n
    roots = [np.stack([_sqrt_effect(e) for e in povm.locals[q].effects]) for q in range(n)]
    cnt = u.shape[0]
    out = np.empty((cnt, n), dtype=np.uint8)
    for s in range(cnt):
        t = state.amplitudes.reshape((2,) * n)
        for q in range(n):
            branches = np.tensordot(roots[q], t, axes=([2], [q]))
            branches = np.moveaxis(branches, 1, q + 1)
            flat = branches.reshape(branches.shape[0], -1)
            probs = np.einsum("mi,mi->m", flat, flat.conj()).real
            cdf = np.cumsum(probs)
            m = int((cdf <= u[s, q] * cdf[-1]).sum())
            m = min(m, probs.size - 1)
            norm = np.sqrt(probs[m])
            if norm <= 0:
                raise ValueError("zero-norm collapse (numerically invalid state)")
            t = branches[m] / norm
            out[s, q] = m
    return out


class SamplingPlan:
    """Born-rule sampler of one (state, POVM) pair, planned once.

    Within the joint-tensor limit, planning builds the conditional prefix
    tensors (per block for a block-product state) and :meth:`draw` only
    walks them, so repeated draws from one state, as in an RMSE harness,
    pay the planning cost once. Larger pure states keep the per-shot
    collapse, which has nothing to plan.
    """

    def __init__(self, state, povm: ProductPOVM):
        n = povm.n
        if getattr(state, "n", None) != n:
            raise ValueError("state and POVM qubit counts differ")
        dims = povm.dims
        if any(dd != dims[0] for dd in dims):
            raise ValueError("datasets require a uniform outcome count per qubit")
        self.povm = povm
        self.n, self.d = n, dims[0]
        self._state = None  # set only for the per-shot collapse path
        self._blocks = []  # (columns, outcome counts, prefix tensors) per block
        if isinstance(state, BlockProductState):
            for g, b in zip(state.partition.groups, state.blocks):
                if b.n > JOINT_TENSOR_QUBIT_LIMIT:
                    raise ValueError("block too large for the joint-tensor sampler")
                joint = _joint_probability_tensor(b.matrix, povm, g)
                self._blocks.append((list(g), [dims[q] for q in g], _prefix_tensors(joint)))
        elif isinstance(state, (PureState, DensityMatrix)) and n <= JOINT_TENSOR_QUBIT_LIMIT:
            joint = _joint_probability_tensor(_density_matrix(state), povm, range(n))
            self._blocks = [(slice(None), list(dims), _prefix_tensors(joint))]
        elif isinstance(state, PureState):
            self._state = state
        else:
            raise ValueError("density matrices above the joint-tensor limit are not samplable")

    def _run_chunk(self, seed: int, start: int, cnt: int, out: np.ndarray) -> None:
        u = shot_uniforms(seed, start, cnt, self.n)
        if self._state is not None:
            out[start : start + cnt] = _sample_pure_sequential(self._state, self.povm, u)
            return
        for cols, dims, prefixes in self._blocks:
            out[start : start + cnt, cols] = _walk_chunk(prefixes, dims, u[:, cols])

    def draw(self, S: int, seed: int, workers: int = 1, chunk: int = DEFAULT_CHUNK) -> Dataset:
        """Draw S shots; the records depend on neither ``workers`` nor ``chunk``."""
        records = np.empty((S, self.n), dtype=np.uint8)
        spans = [(s, min(chunk, S - s)) for s in range(0, S, chunk)]
        if workers > 1 and len(spans) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(lambda sp: self._run_chunk(seed, sp[0], sp[1], records), spans))
        else:
            for start, cnt in spans:
                self._run_chunk(seed, start, cnt, records)
        return Dataset(
            n=self.n, d=self.d, S=S, records=records, seed=seed, povm_id=self.povm.identifier
        )


def sample_shots(
    state,
    povm: ProductPOVM,
    S: int,
    seed: int,
    workers: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> Dataset:
    """Draw S shots from the Born distribution of the product POVM.

    ``state`` may also be a :class:`SamplingPlan` built for ``povm``,
    which skips planning.
    """
    if isinstance(state, SamplingPlan):
        if state.povm != povm:
            raise ValueError("sampling plan was built for another POVM")
        plan = state
    else:
        plan = SamplingPlan(state, povm)
    return plan.draw(S, seed, workers=workers, chunk=chunk)


def flat_codes(ds: Dataset, group) -> np.ndarray:
    """Row-major flattened outcome codes of each shot restricted to ``group``."""
    group = list(group)
    codes = np.zeros(ds.S, dtype=np.int64)
    for q in group:
        codes = codes * ds.d + ds.records[:, q]
    return codes


def marginal_counts(ds: Dataset, group) -> MarginalTable:
    """Histogram of shot outcomes restricted to a qubit group."""
    group = list(group)
    if any(q < 0 or q >= ds.n for q in group):
        raise ValueError("group index out of range")
    if len(group) > MARGINAL_GROUP_CAP:
        raise ValueError(f"group larger than the cap {MARGINAL_GROUP_CAP}")
    counts = np.bincount(flat_codes(ds, group), minlength=ds.d ** len(group))
    return MarginalTable(group=tuple(group), counts=counts, S=ds.S)
