"""Seeded Born-rule sampling of product-POVM shots.

Reproducibility contract: shot ``s`` of a run is a pure function of
``(state, povm, seed, s)``. Each shot consumes one uniform double per
qubit, drawn from a counter-based generator advanced to that shot's own
block, so datasets are byte-identical whether generated serially, in
chunks, or by several workers.

Two samplers keep that contract. Per group of the state's ``partition``,
up to ``JOINT_TENSOR_QUBIT_LIMIT`` qubits, the joint Born tensor is
turned once into per-level CDF tables, and each shot walks them, one
outcome per level, by comparing its threshold with its row. One kernel
builds that tensor, one batched matrix product per qubit from the last
to the first: a pure state measured by rank-1 local effects (Pauli-6,
SIC-4) contracts its 2^n amplitudes with each qubit's Kraus rows and
squares the moduli, and anything else (another state, a subgroup, a
block of a block product) contracts the 4^k density tensor of its
qubits (:func:`~icshadows.states.density_tensor`) with the vectorized
effects. :func:`joint_probabilities` is the one public entry point to
that kernel, for a group's marginal and for the whole register's tensor
alike (the exact moments reshape its flat result). A state with
``amplitudes`` above the limit is collapsed qubit by qubit down a prefix
tree: at depth q the shots of a batch share one branch state per
distinct outcome prefix, so the work is about
``sum_q min(S, d^q) 2^(n-q)`` amplitudes instead of ``S n d 2^n``.
Chunks are collapsed in fixed sub-batches of ``_COLLAPSE_AMPLITUDES >> n``
shots, which bounds the live branch states by a few times
``_COLLAPSE_AMPLITUDES`` amplitudes however large S or the chunk is.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .povm import ProductPOVM
from .states import density_tensor

__all__ = [
    "Dataset",
    "MarginalTable",
    "shot_uniforms",
    "SamplingPlan",
    "sample_shots",
    "joint_probabilities",
    "marginal_counts",
]

JOINT_TENSOR_QUBIT_LIMIT = 8
MARGINAL_GROUP_CAP = 8
DEFAULT_CHUNK = 65536
# largest S x n record array a draw allocates (4 GiB of uint8)
RECORD_BYTES_CAP = 1 << 32

# Amplitude budget of one collapse sub-batch (4 MiB of complex128). A
# sub-batch has ``_COLLAPSE_AMPLITUDES >> n`` shots, and no branch array
# at any depth holds more than (shots x 2^n) amplitudes.
_COLLAPSE_AMPLITUDES = 1 << 18
# Pure states of fewer qubits collapse their chunks on one thread. Below
# it a collapse step is a run of small numpy calls that a second thread
# slows rather than overlaps: draw(workers=2) over two 65,536-shot chunks
# ran at 0.74-0.94x the speed of workers=1 at 10-12 qubits and at
# 0.99-1.12x at 13-14 (medians of 3-4 pairs, 2-CPU x86, one BLAS thread).
_COLLAPSE_THREAD_QUBITS = 13
# eigenvalues of a local effect at or below this count as zero rank
_KRAUS_RANK_TOL = 1e-12


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
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} is outside [0, 2^64)")
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
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    words = 4 * ((n + 3) // 4)
    bitgen = np.random.Philox(key=np.uint64(seed))
    bitgen.advance(start * (words // 4))
    u = np.random.Generator(bitgen).random((count, words))
    return u[:, :n]


def _check_record_bytes(S: int, n: int) -> None:
    """Refuse S shots of n qubits whose records would exceed ``RECORD_BYTES_CAP``."""
    if S * n > RECORD_BYTES_CAP:
        raise ValueError(
            f"{S} shots of {n} qubits need {S * n} bytes of records, above the cap of {RECORD_BYTES_CAP}"
        )


def _born_tensor(state, povm: ProductPOVM, qubits) -> np.ndarray:
    """Born tensor of the state's ``qubits``, axis i measured on ``qubits[i]``.

    A pure state measured whole, in qubit order, by local effects that all
    have rank 1 contracts its amplitudes with each qubit's Kraus row
    ``k_m`` (``E_m = k_m^H k_m``), and each probability is
    ``|amplitude|^2``. Anything else contracts the density tensor of
    ``qubits`` (:func:`~icshadows.states.density_tensor`), each qubit's row
    and column axis side by side, with the effects vectorized to match
    (``E_m[c, r]`` at index ``2r + c``), and keeps the real part clipped at 0.
    """
    qubits = list(qubits)
    if state.amplitudes is not None and qubits == list(range(state.n)):
        factors = [_kraus_factors(povm.locals[q].effects) for q in qubits]
        if all(f.shape[1] == 1 for f in factors):
            return _contract_levels(state.amplitudes, [f[:, 0] for f in factors], squared=True)
    rho = density_tensor(state, [(q, side) for q in qubits for side in (0, 1)])
    rows = [povm.locals[q].effects.transpose(0, 2, 1).reshape(-1, 4) for q in qubits]
    return _contract_levels(rho.reshape(-1), rows, squared=False)


def _contract_levels(vec: np.ndarray, rows, squared: bool) -> np.ndarray:
    """Real tensor ``T[m_0, .., m_last] = f(Σ_x Π_i rows[i][m_i, x_i] vec[x])``.

    ``vec`` is flat over one index of size ``c`` per row matrix (the
    first most significant), and ``rows[i]`` is ``(d_i, c)``. Indices are
    contracted from the last to the first, each with one batched product
    ``rows[i] @ t.reshape(c^i, c, tail)``, which puts the new outcome axis
    ahead of those already done, so nothing is transposed and the axes
    end in order. The first index's level is written one outcome at a
    time straight into the real output, so no full-size complex array is
    alive next to it. ``f`` is ``re^2 + im^2`` when ``squared``, else the
    real part clipped at 0.
    """
    c = rows[0].shape[1]
    t = vec
    for i in range(len(rows) - 1, 0, -1):
        t = np.matmul(rows[i], t.reshape(c**i, c, -1))
    t = t.reshape(c, -1)
    out = np.empty((len(rows[0]), t.shape[1]))
    level = np.empty(t.shape[1], dtype=complex)
    imag2 = np.empty(t.shape[1]) if squared else None
    for m, row in enumerate(rows[0]):
        np.matmul(row, t, out=level)
        if squared:
            np.multiply(level.real, level.real, out=out[m])
            np.multiply(level.imag, level.imag, out=imag2)
            out[m] += imag2
        else:
            np.maximum(level.real, 0.0, out=out[m])
    return out.reshape([len(r) for r in rows])


def joint_probabilities(state, povm: ProductPOVM, group) -> np.ndarray:
    """Exact Born probabilities of a group's joint outcome, flat row-major.

    The flat index runs over the group's listed order, matching the
    layout of :func:`marginal_counts` on a sampled dataset. A pure state
    measured whole by rank-1 effects takes the amplitude route; anything
    else is measured on the density tensor of the group's qubits, so no
    density matrix is built or validated on the way.
    """
    group = [int(q) for q in group]
    if len(set(group)) != len(group):
        raise ValueError("duplicate qubit in group")
    if len(group) > MARGINAL_GROUP_CAP:
        raise ValueError(f"group larger than the cap {MARGINAL_GROUP_CAP}")
    srt = sorted(group)
    t = _born_tensor(state, povm, srt)
    perm = [srt.index(q) for q in group]
    return t.transpose(perm).reshape(-1)


def _walk_chunk(tables, u: np.ndarray) -> np.ndarray:
    """Ascending conditional inverse-CDF walk for a chunk of shots.

    At level i a shot on prefix ``code`` draws the count of entries of its CDF
    row ``cdf[code * d : code * d + d - 1]`` at or below ``u`` times the row's
    last entry, the prefix's mass. A row never decreases (the tensor is clipped
    at zero), so the last entry is skipped and the count capped at ``d - 1``.
    """
    cnt = u.shape[0]
    out = np.empty((cnt, len(tables)), dtype=np.uint8)
    code = np.zeros(cnt, dtype=np.intp)
    thr = np.empty(cnt)
    entry = np.empty(cnt)
    passed = np.empty(cnt, dtype=bool)
    m = np.empty(cnt, dtype=np.uint8)
    for i, (cdf, d) in enumerate(tables):
        code *= d
        # "clip": every index is in range, and it skips take's checking copy
        np.take(cdf[d - 1 :], code, out=thr, mode="clip")
        thr *= u[:, i]
        m[:] = 0
        for j in range(d - 1):
            np.take(cdf[j:], code, out=entry, mode="clip")
            np.less_equal(entry, thr, out=passed)
            m += passed
        out[:, i] = m
        code += m
    return out


def _walk_tables(joint: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Per-level ``(cdf, d)`` tables of the walk over a joint tensor.

    Level i's ``cdf`` holds the running sums, along the last axis, of the
    masses of the outcome prefixes over the first i+1 axes, flat, so a row's
    last entry is its prefix's mass. The sums are taken in place from the
    last axis to the first: the joint tensor's CDF replaces it, and each
    level after starts from a copy of the level before's last column, which
    up to 7 outcomes per qubit holds the bits of ``sum(axis=-1)``.
    """
    tables, level = [], np.ascontiguousarray(joint)
    for _ in range(joint.ndim):
        d = level.shape[-1]
        # the additions np.cumsum makes, without its copy of an aliased input
        for j in range(1, d):
            level[..., j] += level[..., j - 1]
        tables.append((level.reshape(-1), d))
        level = np.ascontiguousarray(level[..., -1])
    if not level > 0:
        raise ValueError("state has no outcome mass (numerically invalid)")
    return tables[::-1]


def _kraus_factors(effects: np.ndarray) -> np.ndarray:
    """Factors ``K`` of shape ``(d, r, 2)`` with ``K[m]^H K[m] = effects[m]``.

    ``r`` is the largest effect rank; an effect of lower rank is padded
    with zero rows.
    """
    lam, vecs = np.linalg.eigh(effects)  # ascending eigenvalues per effect
    r = max(1, int((lam > _KRAUS_RANK_TOL).sum(axis=1).max()))
    lam, vecs = np.clip(lam[:, -r:], 0.0, None), vecs[:, :, -r:]
    return np.sqrt(lam)[:, :, None] * vecs.conj().transpose(0, 2, 1)


def _children(a0: np.ndarray, a1: np.ndarray, parent: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Collapsed children ``out[c, :, j] = k[c, j, 0] a0[parent[c]] + k[c, j, 1] a1[parent[c]]``.

    ``a0``/``a1`` hold the parents' amplitudes with qubit q at 0 and 1, and
    ``k`` (children, r, 2) the scaled Kraus rows. The parents are gathered
    through one reused buffer, so the step holds a single child-sized
    temporary besides its output.
    """
    out = np.empty((len(parent), a0.shape[1], k.shape[1]), dtype=complex)
    buf = np.empty(out.shape[:2], dtype=complex)
    for j in range(k.shape[1]):
        np.take(a0, parent, axis=0, out=buf, mode="clip")  # "clip": no index-check copy
        np.multiply(buf, k[:, j, 0, None], out=out[:, :, j])
        np.take(a1, parent, axis=0, out=buf, mode="clip")
        buf *= k[:, j, 1, None]
        out[:, :, j] += buf
    return out


def _collapse(amps: np.ndarray, effects, factors, u: np.ndarray) -> np.ndarray:
    """Prefix-tree collapse of a pure state for a batch of shots.

    At depth q every shot sits on the branch of its outcome prefix. A
    branch is a stack of ``R`` unnormalized vectors on qubits q..n-1 (the
    Kraus indices of earlier collapses, innermost), laid out with qubit q
    leading. Each branch's outcome probabilities come from its 2x2 reduced
    state on qubit q; each shot draws with its own uniform, and only the
    chosen children are collapsed and renormalized. Every step acts on one
    branch at a time, so a shot's outcome does not depend on which other
    shots share its batch.
    """
    cnt, n = u.shape
    out = np.empty((cnt, n), dtype=np.uint8)
    branches = amps.reshape(1, -1)
    branch = np.zeros(cnt, dtype=np.intp)  # each shot's branch
    for q in range(n):
        eff, d = effects[q], len(effects[q])
        half = branches.reshape(len(branches), 2, -1)
        a0, a1 = half[:, 0], half[:, 1]
        r00 = (a0.real**2 + a0.imag**2).sum(axis=1)
        r11 = (a1.real**2 + a1.imag**2).sum(axis=1)
        r01 = (a0 * a1.conj()).sum(axis=1)
        # Tr[E_m rho] for a Hermitian E_m and rho
        probs = (
            eff[:, 0, 0].real * r00[:, None]
            + eff[:, 1, 1].real * r11[:, None]
            + 2.0 * (eff[:, 1, 0] * r01[:, None]).real
        )
        cdf = np.cumsum(probs, axis=1)[branch]
        m = (cdf <= u[:, q, None] * cdf[:, -1:]).sum(axis=1)
        np.minimum(m, d - 1, out=m)
        out[:, q] = m
        keys, branch = np.unique(branch * d + m, return_inverse=True)
        parent, child = np.divmod(keys, d)
        norm2 = probs[parent, child]
        if not (norm2 > 0).all():
            raise ValueError("zero-norm collapse (numerically invalid state)")
        if q == n - 1:
            break
        k = factors[q][child] / np.sqrt(norm2)[:, None, None]
        branches = _children(a0, a1, parent, k).reshape(len(keys), -1)
    return out


class SamplingPlan:
    """Born-rule sampler of one (state, POVM) pair, planned once.

    The state's ``partition`` and ``amplitudes`` choose the plan. A single
    group within the joint-tensor limit is walked whole, and otherwise a
    pure state is collapsed; a group above the limit is refused, and any
    other partition is walked group by group. A walk's planning builds its
    per-level tables, the running sums of each level's rows, in one pass
    from the joint tensor's, taken in place. :meth:`draw` only walks them, so
    repeated draws from one state, as in an RMSE harness, pay the planning
    cost once. A collapse is planned as per-qubit Kraus factors ``K`` of
    shape ``(d, r, 2)``, one per local POVM, with ``E_m = K_m^H K_m`` and
    ``r`` the largest effect rank (1 for Pauli-6); :meth:`draw` collapses
    them down the outcome prefix tree in sub-batches of bounded memory.

    ``_born``, private to :func:`~icshadows.estimation.rmse_experiment`, is
    the register's Born tensor from :func:`joint_probabilities`, built for
    the exact moments. A one-group plan takes its tables from it, consuming
    it in place; a plan of several groups ignores it.
    """

    def __init__(self, state, povm: ProductPOVM, *, _born: np.ndarray | None = None):
        n = povm.n
        if getattr(state, "n", None) != n:
            raise ValueError("state and POVM qubit counts differ")
        dims = povm.dims
        if any(dd != dims[0] for dd in dims):
            raise ValueError("datasets require a uniform outcome count per qubit")
        self.povm_id = povm.identifier
        self.n, self.d = n, dims[0]
        self._pure = None  # (amplitudes, effects, Kraus factors) above the limit
        self._blocks = []  # (columns, walk tables) per group
        groups = state.partition.groups
        if len(groups) == 1 and n <= JOINT_TENSOR_QUBIT_LIMIT:
            joint = _born_tensor(state, povm, range(n)) if _born is None else _born.reshape((self.d,) * n)
            self._blocks = [(slice(None), _walk_tables(joint))]
        elif state.amplitudes is not None:
            effects = [p.effects for p in povm.locals]
            self._pure = (state.amplitudes, effects, [_kraus_factors(e) for e in effects])
        elif len(groups) == 1:
            raise ValueError("density matrices above the joint-tensor limit are not samplable")
        elif max(len(g) for g in groups) > JOINT_TENSOR_QUBIT_LIMIT:
            raise ValueError("block too large for the joint-tensor sampler")
        else:
            self._blocks = [(list(g), _walk_tables(_born_tensor(state, povm, g))) for g in groups]

    def _outcomes(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write into ``out`` the outcomes of the shots whose uniforms are the
        rows of ``u``, and return it: the walk, block by block, or the
        prefix-tree collapse in sub-batches. A shot's outcome depends on its
        own row alone, so any batching of shots gives the same records."""
        if self._pure is not None:
            step = max(1, _COLLAPSE_AMPLITUDES >> self.n)
            for lo in range(0, len(u), step):
                out[lo : lo + step] = _collapse(*self._pure, u[lo : lo + step])
            return out
        for cols, tables in self._blocks:
            out[:, cols] = _walk_chunk(tables, u[:, cols])
        return out

    def _run_chunk(self, seed: int, start: int, cnt: int, out: np.ndarray) -> None:
        self._outcomes(shot_uniforms(seed, start, cnt, self.n), out[start : start + cnt])

    def draw(self, S: int, seed: int, workers: int = 1, chunk: int = DEFAULT_CHUNK) -> Dataset:
        """Draw S shots; the records depend on neither ``workers`` nor ``chunk``.

        S x n record bytes above ``RECORD_BYTES_CAP`` raise ``ValueError``
        before anything is allocated. At most one thread runs per chunk
        and per CPU, however large ``workers`` is, and one thread in all
        for the prefix-tree collapse of a pure state of fewer than
        ``_COLLAPSE_THREAD_QUBITS`` qubits, which a second thread slows.
        """
        _check_record_bytes(S, self.n)
        records = np.empty((S, self.n), dtype=np.uint8)
        spans = [(s, min(chunk, S - s)) for s in range(0, S, chunk)]
        if self._pure is not None and self.n < _COLLAPSE_THREAD_QUBITS:
            workers = 1
        workers = min(workers, len(spans), os.cpu_count() or 1)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(lambda sp: self._run_chunk(seed, sp[0], sp[1], records), spans))
        else:
            for start, cnt in spans:
                self._run_chunk(seed, start, cnt, records)
        return Dataset(
            n=self.n, d=self.d, S=S, records=records, seed=seed, povm_id=self.povm_id
        )


def sample_shots(
    state,
    povm: ProductPOVM,
    S: int,
    seed: int,
    workers: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> Dataset:
    """Draw S shots from the Born distribution of the product POVM: one
    :class:`SamplingPlan` of ``state``, drawn once. A caller that draws
    many times from one state plans once and calls :meth:`SamplingPlan.draw`."""
    return SamplingPlan(state, povm).draw(S, seed, workers=workers, chunk=chunk)


def flat_codes(ds: Dataset, group, dtype=np.int64) -> np.ndarray:
    """Row-major flattened outcome codes of each shot restricted to ``group``.

    ``dtype`` must hold d^len(group) - 1; a caller that goes on to widen the
    codes in place can ask for a dtype that holds its larger code range.
    """
    group = list(group)
    if not group:
        return np.zeros(ds.S, dtype=dtype)
    codes = ds.records[:, group[0]].astype(dtype)
    for q in group[1:]:
        codes *= ds.d
        codes += ds.records[:, q]
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
