"""Unbiased observable estimation from shot data and its exact variance.

The single-shot estimate of an observable is a sum over terms of
products over partition groups of dual-operator traces; means over shots
are unbiased whenever the dual frames pass the duality check.

Up to ``sampling.JOINT_TENSOR_QUBIT_LIMIT`` qubits the estimator is
tabulated once over every joint outcome (one GEMM, see
:meth:`CoefficientCache.table`): shots are then table lookups, and the
exact moments are sums of the table against the joint Born tensor the
sampler plans with (:func:`~icshadows.sampling.joint_probabilities` over
the whole register). Above the limit the table would not fit, so shots
are scored term by term, and the exact moments split the groups into
the table's two halves A and B: every term pair becomes a product
operator M_A x M_B, the state is contracted once per distinct M_A and
each pair takes one inner product with its M_B, in chunks of bounded
memory, never enumerating the joint outcome space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .algebra import hermitian_coords, hermitian_stack
from .frames import DUALITY_TOL, GlobalDuals
from .observables import PauliObservable
from .povm import ProductPOVM
from .sampling import Dataset, SamplingPlan, flat_codes, joint_probabilities, sample_shots
from .states import BlockProductState, DensityMatrix, PureState

__all__ = [
    "EstimateReport",
    "CoefficientCache",
    "estimate",
    "exact_expectation",
    "exact_moments",
    "exact_variance",
    "rmse_experiment",
]

PAIR_CAP = 10**6

# Entries of one transient array of the split exact moments above the
# joint-tensor limit (256 KiB of complex128): term pairs and distinct half
# operators are processed in chunks that keep each array near this size,
# however many terms there are.
_SPLIT_ENTRIES = 1 << 14


@dataclass(frozen=True)
class EstimateReport:
    mean: float
    sample_variance: float
    std_error: float
    shots: int
    duals_provenance: str

    def __post_init__(self):
        if self.sample_variance < 0:
            raise ValueError("sample variance must be non-negative")


class CoefficientCache:
    """Per-(group, Pauli substring) trace vectors Tr[D_m P].

    Shot evaluation reduces to gathering one cached vector per group and
    multiplying, so the 10^6-shot loop never touches operators. Each
    vector is one real product ``X @ hermitian_coords(P)`` of the frame's
    dual coordinates X with the substring's. The whole-outcome tables of
    :meth:`table` are cached here too, one per observable.
    """

    def __init__(self, duals: GlobalDuals):
        self.duals = duals
        self._vectors: dict[tuple[int, str], np.ndarray] = {}
        self._tables: dict[PauliObservable, tuple[np.ndarray, list[int]]] = {}
        dims = []
        for frame, group in zip(duals.frames, duals.partition.groups):
            dims.append(int(round(frame.outcomes ** (1.0 / len(group)))))
        if len(set(dims)) > 1:
            raise ValueError("groups disagree on the per-qubit outcome count")
        self.d = dims[0]

    def vector(self, group_index: int, substring: str) -> np.ndarray:
        key = (group_index, substring)
        if key not in self._vectors:
            pauli = PauliObservable.single(substring).matrix()
            self._vectors[key] = self.duals.frames[group_index].duals @ hermitian_coords(pauli)
        return self._vectors[key]

    def _block_matrix(self, group_indices, obs: PauliObservable) -> np.ndarray:
        """V with column t the Kronecker product of the listed groups' vectors."""
        groups = self.duals.partition.groups
        V = np.ones((1, len(obs.terms)))
        for gi in group_indices:
            G = np.stack(
                [self.vector(gi, _substring(word, groups[gi])) for _, word in obs.terms], axis=1
            )
            V = (V[:, None, :] * G[None, :, :]).reshape(-1, V.shape[1])
        return V

    def table(self, obs: PauliObservable) -> tuple[np.ndarray, list[int]]:
        """Single-shot estimate of ``obs`` at every joint outcome.

        The groups are split, in order, into two blocks A and B whose
        outcome spaces are as close in size as possible, and the table
        is ``W = (V_A diag c) V_B^T``. Returns W, shape
        ``(d^|A|, d^|B|)``, and the qubit order of its row-major flat
        index (A's qubits, then B's, each group in listed order).
        """
        if obs not in self._tables:
            groups = self.duals.partition.groups
            split = _split_index(groups)
            coeffs = np.array([c for c, _ in obs.terms])
            va = self._block_matrix(range(split), obs) * coeffs
            vb = self._block_matrix(range(split, len(groups)), obs)
            order = [q for g in groups for q in g]
            self._tables[obs] = (va @ vb.T, order)
        return self._tables[obs]


def _split_index(groups) -> int:
    """Number of leading groups in half A: the cut nearest half the qubits."""
    sizes = np.cumsum([0] + [len(g) for g in groups])
    return int(np.argmin(np.abs(2 * sizes - sizes[-1])))


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of one row per distinct row of ``rows``, and each row's rank among them."""
    if rows.shape[1] == 0:
        return np.zeros(1, dtype=np.intp), np.zeros(len(rows), dtype=np.intp)
    _, rep, rank = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    # numpy 2.0 shaped the inverse like the input for some inputs; keep it flat
    return rep, rank.reshape(-1)


def _kron_rows(rows: np.ndarray, stacks) -> np.ndarray:
    """``stacks[0][r0] x stacks[1][r1] x ...`` for each row r of ``rows``.

    The products are built from the last factor to the first over the
    distinct suffixes of the rows, so rows that share a suffix share its
    product, and the product so far is the inner, contiguous factor.
    """
    ops = np.ones((1, 1, 1), dtype=complex)
    suffix = np.zeros(len(rows), dtype=np.intp)
    for g in range(len(stacks) - 1, -1, -1):
        keys, suffix = np.unique(rows[:, g] * len(ops) + suffix, return_inverse=True)
        code, tail = np.divmod(keys, len(ops))
        a, b = stacks[g][code], ops[tail]
        ops = a[:, :, None, :, None] * b[:, None, :, None, :]
        ops = ops.reshape(len(keys), a.shape[1] * b.shape[1], -1)
    return ops[suffix.reshape(-1)]


def _substring(word: str, group) -> str:
    return "".join(word[q] for q in group)


def _omega_all(ds: Dataset, duals: GlobalDuals, obs: PauliObservable, cache: CoefficientCache) -> np.ndarray:
    codes = [flat_codes(ds, group) for group in duals.partition.groups]
    acc = np.zeros(ds.S)
    for coeff, word in obs.terms:
        vals = None
        for gi, group in enumerate(duals.partition.groups):
            gathered = cache.vector(gi, _substring(word, group))[codes[gi]]
            vals = gathered.copy() if vals is None else vals * gathered
        acc += coeff * vals
    return acc


def estimate(
    ds: Dataset,
    duals: GlobalDuals,
    obs: PauliObservable,
    cache: CoefficientCache | None = None,
) -> EstimateReport:
    """Sample mean with population variance and Gaussian standard error."""
    if ds.S == 0:
        raise ValueError("empty dataset")
    if ds.n != duals.n or ds.n != obs.n:
        raise ValueError("qubit counts disagree")
    if cache is None:
        cache = CoefficientCache(duals)
    if ds.d != cache.d:
        raise ValueError(
            f"the dataset has {ds.d} outcomes per qubit but the duals were built for {cache.d}"
        )
    if ds.n <= sampling.JOINT_TENSOR_QUBIT_LIMIT:
        table, order = cache.table(obs)
        om = table.reshape(-1)[flat_codes(ds, order)]
    else:
        om = _omega_all(ds, duals, obs, cache)
    mean = float(om.mean())
    # two passes: E[x^2] - E[x]^2 cancels catastrophically under a large offset
    var = float(np.mean((om - mean) ** 2))
    return EstimateReport(
        mean=mean,
        sample_variance=var,
        std_error=float(np.sqrt(var / ds.S)),
        shots=ds.S,
        duals_provenance=duals.provenance,
    )


def exact_expectation(state, obs: PauliObservable) -> float:
    """Tr[rho O] without forming the dense observable."""
    if not isinstance(state, (PureState, BlockProductState, DensityMatrix)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if state.n != obs.n:
        raise ValueError(f"observable acts on {obs.n} qubits but the state has {state.n}")
    if isinstance(state, PureState):
        return float(np.vdot(state.amplitudes, obs.apply(state.amplitudes)).real)
    if isinstance(state, BlockProductState):
        total = 0.0
        for coeff, word in obs.terms:
            val = coeff
            for group, block in zip(state.partition.groups, state.blocks):
                sub = PauliObservable.single(_substring(word, group))
                val *= exact_expectation(block, sub)
            total += val
        return float(total)
    # Tr[rho P] = sum_j phase[j] rho[j, j XOR x], in the observable's mask form
    rows = np.arange(2**state.n)
    total = 0.0
    for coeff, x, _, phase in obs._mask_terms:
        total += coeff * np.dot(state.matrix[rows, rows ^ x], phase).real
    return float(total)


def exact_moments(
    state,
    povm: ProductPOVM,
    duals: GlobalDuals,
    obs: PauliObservable,
) -> tuple[float, float]:
    """Exact E[omega] and E[omega^2] of the single-shot estimator.

    Up to the joint-tensor limit both are sums over every joint outcome
    of the Born probability times the tabulated estimate (squared).
    Above it, both moments factorize over groups: per term pair, each
    group contributes the operator Σ_m effect_m · Tr[D_m P] · Tr[D_m Q],
    built from the effect coordinates as ``hermitian_stack(w @ A)``, and
    the moment is the state's expectation of their tensor product (the
    first moment is the case without Q). That product is M_A x M_B over
    the two halves of the groups; each distinct half operator is built
    once, the state is contracted once per distinct M_A, and each pair
    takes one inner product with its M_B (see :func:`_split_moments`).
    Either way unbiasedness is measured rather than assumed. Both routes
    require each frame's effects to be the POVM's on its group (largest
    coordinate difference within ``DUALITY_TOL``), so they compute the
    same thing.
    """
    if obs.n != state.n:
        raise ValueError(f"observable acts on {obs.n} qubits but the state has {state.n}")
    if povm.n != state.n or duals.n != state.n:
        raise ValueError(f"the state has {state.n} qubits, the POVM {povm.n} and the duals {duals.n}")
    n_pairs = len(obs.terms) * (len(obs.terms) + 1) // 2
    if n_pairs > PAIR_CAP:
        raise ValueError(f"{n_pairs} term pairs exceed the cap {PAIR_CAP}")
    for frame in duals.frames:
        have, want = frame.effects, povm.group_effects(frame.group)
        if have.shape != want.shape or np.abs(have - want).max() > DUALITY_TOL:
            raise ValueError(
                f"the duals of group {frame.group} were built for other effects than the POVM's"
            )

    cache = CoefficientCache(duals)
    if obs.n <= sampling.JOINT_TENSOR_QUBIT_LIMIT:
        # p first, so the table is not yet alive at p's larger build peak
        p = joint_probabilities(state, povm, range(obs.n)).reshape((cache.d,) * obs.n)
        table, order = cache.table(obs)
        w = table.reshape((cache.d,) * obs.n)
        p_axes = "".join(chr(ord("a") + q) for q in range(obs.n))
        w_axes = "".join(chr(ord("a") + q) for q in order)
        mean = np.einsum(f"{p_axes},{w_axes}->", p, w)
        second = np.einsum(f"{p_axes},{w_axes},{w_axes}->", p, w, w)
        return float(mean), float(second)

    return _split_moments(state, duals, obs, cache)


def _entry_blocks(n_terms: int, cap: int):
    """``(i, j)`` index arrays of the entries, in blocks of whole rows.

    Row -1 holds the first moment's entries ``(i, -1)``, and row i >= 0
    the pairs ``(i, j)`` for j >= i. A block takes rows while it has at
    most ``cap`` entries, and at least one row.
    """
    block, size = [], 0
    for r in range(-1, n_terms):
        if r < 0:
            row = (np.arange(n_terms), np.full(n_terms, -1))
        else:
            row = (np.full(n_terms - r, r), np.arange(r, n_terms))
        if block and size + len(row[0]) > cap:
            yield tuple(map(np.concatenate, zip(*block)))
            block, size = [], 0
        block.append(row)
        size += len(row[0])
    yield tuple(map(np.concatenate, zip(*block)))


def _split_moments(state, duals: GlobalDuals, obs: PauliObservable, cache: CoefficientCache):
    """E[omega] and E[omega^2] above the joint-tensor limit, half by half.

    Every first-moment term and every term pair (an "entry") is the
    expectation of a product operator M_A x M_B, keyed on each half by its
    per-group operator indices. With Ψ the amplitudes in group order as a
    ``2^|A| x 2^|B|`` matrix, the A-side contraction is ``Ψ^† M_A Ψ``; for
    a density matrix it is ρ contracted over A with M_A, one GEMM per
    chunk of keys. Either way the entry's value is the real part of its
    elementwise inner product with M_B. Entries come in blocks of whole
    rows of the pair triangle, and within a block the distinct A keys and
    the entries in chunks, so no array grows with the number of pairs:
    each holds about ``_SPLIT_ENTRIES`` entries or fewer.
    """
    groups = duals.partition.groups
    n, split = state.n, _split_index(groups)
    coeffs = np.array([c for c, _ in obs.terms])
    vecs, sids = [], []
    for gi, group in enumerate(groups):
        words = [_substring(word, group) for _, word in obs.terms]
        subs, sid = np.unique(words, return_inverse=True)
        vecs.append(np.stack([cache.vector(gi, sub) for sub in subs]))
        sids.append(sid.reshape(-1))

    order = [q for g in groups for q in g]
    n_a = sum(len(g) for g in groups[:split])
    da, db = 2**n_a, 2 ** (n - n_a)
    if isinstance(state, PureState):
        psi = state.amplitudes.reshape((2,) * n).transpose(order).reshape(da, db)
        bra = psi.conj().T
        contract = lambda ops: (bra @ ops @ psi).reshape(len(ops), -1)
    else:
        # rows (a'', a') and columns (b'', b') of rho[(a', b'), (a'', b'')]
        col_axes = [n + q for q in order]
        layout = col_axes[:n_a] + order[:n_a] + col_axes[n_a:] + order[n_a:]
        rho = state.density().matrix.reshape((2,) * (2 * n)).transpose(layout)
        rho = rho.reshape(da * da, db * db)
        contract = lambda ops: ops.reshape(len(ops), -1) @ rho

    step = max(1, _SPLIT_ENTRIES // max(da * da, db * db))
    mean = second = 0.0
    for i, j in _entry_blocks(len(coeffs), max(1, _SPLIT_ENTRIES // len(groups))):
        # group operators: Σ_m effect_m Tr[D_m P] for j = -1, else with Tr[D_m Q]
        stacks, codes = [], np.empty((len(i), len(groups)), dtype=np.int64)
        for gi, (vec, sid) in enumerate(zip(vecs, sids)):
            p, q = sid[i], np.where(j < 0, -1, sid[j])
            keys, codes[:, gi] = np.unique(
                (np.minimum(p, q) + 1) * len(vec) + np.maximum(p, q), return_inverse=True
            )
            low, high = np.divmod(keys, len(vec))
            w = vec[high] * np.where((low > 0)[:, None], vec[low - 1], 1.0)
            stacks.append(hermitian_stack(w @ duals.frames[gi].effects))
        a_rep, a_rank = _distinct_rows(codes[:, :split])
        b_rep, b_rank = _distinct_rows(codes[:, split:])
        entries = np.argsort(a_rank, kind="stable")
        starts = np.searchsorted(a_rank[entries], np.arange(0, len(a_rep) + step, step))
        values = np.empty(len(i))
        for k, lo in enumerate(range(0, len(a_rep), step)):
            rows = codes[a_rep[lo : lo + step], :split]
            # Re Σ x·y is the real dot of x's (re, im) pairs with conj(y)'s
            left = contract(_kron_rows(rows, stacks[:split])).view(np.float64)
            for e in range(starts[k], starts[k + 1], step):
                ent = entries[e : min(e + step, starts[k + 1])]
                keys, b_inv = np.unique(b_rank[ent], return_inverse=True)
                right = _kron_rows(codes[b_rep[keys], split:], stacks[split:])
                right = right.conj().reshape(len(keys), -1).view(np.float64)
                b_inv = b_inv.reshape(-1)
                values[ent] = np.einsum("ij,ij->i", left[a_rank[ent] - lo], right[b_inv])
        first = j < 0
        mean += values[first] @ coeffs[i[first]]
        i, j, values = i[~first], j[~first], values[~first]
        second += values @ (np.where(i == j, 1.0, 2.0) * coeffs[i] * coeffs[j])
    return float(mean), float(second)


def exact_variance(
    state,
    povm: ProductPOVM,
    duals: GlobalDuals,
    obs: PauliObservable,
) -> float:
    """Exact single-shot estimator variance E[omega^2] - E[omega]^2."""
    mean, second = exact_moments(state, povm, duals, obs)
    return second - mean * mean


def rmse_experiment(
    state,
    povm: ProductPOVM,
    duals: GlobalDuals,
    obs: PauliObservable,
    R: int,
    S: int,
    seed: int,
) -> float:
    """Root mean square error of R independent S-shot sample means.

    Repetition r draws its dataset from a child seed spawned off
    ``seed``, so the harness is reproducible and repetitions are
    statistically independent. The sampler is planned once, and the
    estimator table is built once in the shared cache.
    """
    if R < 1:
        raise ValueError(f"need at least one repetition, got R = {R}")
    truth = exact_expectation(state, obs)
    plan = SamplingPlan(state, povm)
    cache = CoefficientCache(duals)
    sq = 0.0
    for r in range(R):
        child = int(
            np.random.SeedSequence(entropy=seed, spawn_key=(r,)).generate_state(
                1, np.uint64
            )[0]
        )
        ds = sample_shots(plan, povm, S, child)
        rep = estimate(ds, duals, obs, cache=cache)
        sq += (rep.mean - truth) ** 2
    return float(np.sqrt(sq / R))
