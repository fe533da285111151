"""Unbiased observable estimation from shot data and its exact variance.

The single-shot estimate of an observable is a sum over terms of
products over partition groups of dual-operator traces Tr[D_m P]; means
over shots are unbiased whenever the dual frames pass the duality check.
Every path reads them from one layout (:meth:`CoefficientCache.layout`).
Up to ``sampling.JOINT_TENSOR_QUBIT_LIMIT`` qubits the estimator is
tabulated once over every joint outcome (:meth:`CoefficientCache.table`):
shots are table lookups, and the exact moments are sums of the table
against :func:`~icshadows.sampling.joint_probabilities` over the whole
register. Above the limit the table would not fit, so shots are scored
term by term and the exact moments split the groups
(:func:`_split_moments`). Below the limit the table is kept: on the
8-qubit H2 ground state with 4-qubit optimal duals the split's group
operators make it 0.32 s against the table's 0.06 s (canonical duals:
0.04 against 0.05 s; 2 CPUs, 1 BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .algebra import hermitian_coords, hermitian_stack
from .frames import DUALITY_TOL, GlobalDuals
from .observables import PAULI_MATRICES, PauliObservable
from .povm import ProductPOVM
from .sampling import Dataset, SamplingPlan, flat_codes, joint_probabilities, sample_shots
from .states import BlockProductState, DensityMatrix, PureState, density_tensor

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

# Bytes of each family of transient arrays of the split exact moments;
# its chunks are sized from the part dimensions to stay near this.
_SPLIT_BYTES = 1 << 18

_PAULIS = np.stack([PAULI_MATRICES[ch] for ch in "IXYZ"])


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
    """Per-observable layouts of the trace vectors Tr[D_m P], and outcome tables.

    The layout holds, per group, every term's substring id and the
    ``(U_g, M_g)`` Tr[D_m P] of the U_g distinct substrings: one real
    product of the frame's dual coordinates with their Pauli coordinates.
    Shots then gather one row per group and multiply, never touching
    operators. The tables of :meth:`table` are cached here too.
    """

    def __init__(self, duals: GlobalDuals):
        self.duals = duals
        self._layouts: dict[PauliObservable, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._tables: dict[PauliObservable, tuple[np.ndarray, list[int]]] = {}
        dims = []
        for frame, group in zip(duals.frames, duals.partition.groups):
            dims.append(int(round(frame.outcomes ** (1.0 / len(group)))))
        if len(set(dims)) > 1:
            raise ValueError("groups disagree on the per-qubit outcome count")
        self.d = dims[0]

    def layout(self, obs: PauliObservable) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per group, each term's substring id and the trace vectors of the distinct substrings."""
        if obs not in self._layouts:
            self._layouts[obs] = []
            for frame, group in zip(self.duals.frames, self.duals.partition.groups):
                subs, sid = np.unique([_substring(w, group) for _, w in obs.terms], return_inverse=True)
                letters = np.array([["IXYZ".index(ch) for ch in sub] for sub in subs])
                paulis = hermitian_coords(_kron_rows(letters, [_PAULIS] * len(group)))
                self._layouts[obs].append((sid.reshape(-1), paulis @ frame.duals.T))
        return self._layouts[obs]

    def _block_matrix(self, group_indices, obs: PauliObservable) -> np.ndarray:
        """V with column t the Kronecker product of the listed groups' vectors."""
        V = np.ones((1, len(obs.terms)))
        for gi in group_indices:
            sid, vec = self.layout(obs)[gi]
            V = (V[:, None, :] * vec[sid].T[None, :, :]).reshape(-1, V.shape[1])
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


def _kron_rows(rows: np.ndarray, stacks) -> np.ndarray:
    """``stacks[0][r0] x stacks[1][r1] x ...`` for each row r of ``rows``, as
    the product of the two halves' products (few short broadcast axes)."""
    if len(stacks) < 2:
        return stacks[0][rows[:, 0]] if stacks else np.ones((len(rows), 1, 1), dtype=complex)
    h = len(stacks) // 2
    a, b = _kron_rows(rows[:, :h], stacks[:h]), _kron_rows(rows[:, h:], stacks[h:])
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(rows), a.shape[1] * b.shape[1], -1)


def _substring(word: str, group) -> str:
    return "".join(word[q] for q in group)


def _omega_all(ds: Dataset, duals: GlobalDuals, obs: PauliObservable, cache: CoefficientCache) -> np.ndarray:
    layout = cache.layout(obs)
    codes = [flat_codes(ds, group) for group in duals.partition.groups]
    acc = np.zeros(ds.S)
    for t, (coeff, _) in enumerate(obs.terms):
        vals = None
        for (sid, vec), code in zip(layout, codes):
            gathered = vec[sid[t]][code]
            vals = gathered if vals is None else vals * gathered
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


class _Moments(tuple):
    """The pair (E[omega], E[omega^2]), carrying the variance as ``variance``."""


def exact_moments(
    state,
    povm: ProductPOVM,
    duals: GlobalDuals,
    obs: PauliObservable,
) -> tuple[float, float]:
    """Exact E[omega] and E[omega^2] of the single-shot estimator.

    Up to the joint-tensor limit both are sums over every joint outcome
    of the Born probability times the tabulated estimate (squared). Above
    it, per term pair each group contributes the operator Σ_m effect_m
    Tr[D_m P] Tr[D_m Q] (the first moment: without Q), and the moment is
    the state's expectation of their tensor product, taken for every term
    and pair in one pass of :func:`_split_moments`. A state other than a
    pure one is read through its density tensor
    (:func:`~icshadows.states.density_tensor`), which a block-product
    state builds from its blocks without a validated register-wide
    ``DensityMatrix``. Both read the trace
    vectors from one layout and require each frame's effects to be the
    POVM's on its group (within ``DUALITY_TOL``), so they compute the same
    thing, and unbiasedness is measured rather than assumed. The pair also
    carries ``.variance``: up to the limit the two-pass Σ p (omega -
    E[omega])^2, which no large identity offset cancels, and above it
    E[omega^2] - E[omega]^2."""
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
    if obs.n > sampling.JOINT_TENSOR_QUBIT_LIMIT:
        moments = _Moments(_split_moments(state, duals, obs, cache.layout(obs)))
        moments.variance = moments[1] - moments[0] * moments[0]
        return moments
    # p first, so the table is not yet alive at p's larger build peak
    p = joint_probabilities(state, povm, range(obs.n)).reshape((cache.d,) * obs.n)
    table, order = cache.table(obs)
    w = table.reshape((cache.d,) * obs.n)
    p_axes = "".join(chr(ord("a") + q) for q in range(obs.n))
    w_axes = "".join(chr(ord("a") + q) for q in order)
    mean = float(np.einsum(f"{p_axes},{w_axes}->", p, w))
    moments = _Moments((mean, float(np.einsum(f"{p_axes},{w_axes},{w_axes}->", p, w, w))))
    w -= mean  # the table is this call's own
    moments.variance = float(np.einsum(f"{p_axes},{w_axes},{w_axes}->", p, w, w))
    return moments


def _pair_keys(x, y, u: int):
    """Key of each pair of ids (x, y) below ``u``: u + the row-major index of
    (min, max) in the upper triangle. Key x < u stands for (x, none)."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    return u + lo * u - lo * (lo - 1) // 2 + hi - lo


def _part_keys(part, frames, n_terms: int):
    """Each term's tuple id on a part of the groups (its substring ids there,
    ``part`` being that slice of the layout), the number U of tuples, each
    group's operators Σ_m effect_m Tr[D_m P] Tr[D_m Q] under the
    :func:`_pair_keys` of its substrings, and the group operator keys of
    each of the U + U(U+1)/2 tuple keys (every pair of tuples meets)."""
    tuples = np.zeros(n_terms, dtype=np.intp)
    for sid, vec in part:
        tuples = np.unique(tuples * len(vec) + sid, return_inverse=True)[1].reshape(-1)
    rep = np.unique(tuples, return_index=True)[1]  # a term of each tuple
    u = len(rep)
    lo, hi = np.triu_indices(u)
    stacks, index = [], np.empty((u + len(lo), len(part)), dtype=np.int32)
    for g, ((sid, vec), frame) in enumerate(zip(part, frames)):
        sub = sid[rep]
        index[:u, g], index[u:, g] = sub, _pair_keys(sub[lo], sub[hi], len(vec))
        p, q = np.triu_indices(len(vec))
        stacks.append(hermitian_stack(np.concatenate([vec, vec[p] * vec[q]]) @ frame.effects))
    return tuples, u, stacks, index


def _entries(parts, coeffs):
    """Key on each part (term tuples, count) and weight of every entry, in
    order of the first part's key: the first moment's terms, then the term
    pairs i <= j row by row, weighted by their coefficient product, doubled
    off the diagonal. Filled row by row, so only the sort's temporaries are entry-sized."""
    n = len(coeffs)
    size = n + n * (n + 1) // 2
    keys, weight = [np.empty(size, np.int32) for _ in parts], np.empty(size)
    for key, (tuples, _) in zip(keys, parts):
        key[:n] = tuples
    weight[:n], pos = coeffs, n
    for i in range(n):
        end = pos + n - i
        for key, (tuples, u) in zip(keys, parts):
            key[pos:end] = _pair_keys(tuples[i], tuples[i:], u)
        weight[pos:end] = 2.0 * coeffs[i] * coeffs[i:]
        weight[pos] = coeffs[i] * coeffs[i]
        pos = end
    order = np.argsort(keys[0], kind="stable")
    for k in range(len(keys)):  # one sorted copy alive at a time
        keys[k] = keys[k][order]
    return keys, weight[order]


def _split_moments(state, duals: GlobalDuals, obs: PauliObservable, layout):
    """E[omega] and E[omega^2] above the joint-tensor limit, part by part.

    Every first-moment term and term pair (an "entry") is the expectation
    of a product M_A x M_B1 x M_B2 over the table's halves A and B, B cut
    again by the same rule; each part keys its operators by term tuples
    (:func:`_part_keys`), and :func:`_entries` lists the entries once, in
    order of A key. With Ψ the amplitudes in group order as a ``2^|A| x
    2^|B|`` matrix, an A key's contraction L is ``Ψ^† M_A Ψ`` (for any
    other state, its density tensor laid out as rows (a'', a') and columns
    (b'', b') contracted over A with M_A), and an entry's value the form
    M_B1^T L M_B2: one GEMM of L with the distinct M_B2, then a short dot
    per entry, never building M_B. A keys go in chunks, and a chunk's
    entries in runs of M_B2, each array family near ``_SPLIT_BYTES``. The
    variance from these moments cancels under a large identity offset;
    centring needs Tr[D_m] = 1 exactly, which the duals do not guarantee.
    """
    groups = duals.partition.groups
    n, split = state.n, _split_index(groups)
    cuts = [0, split, split + _split_index(groups[split:]), len(groups)]
    coeffs = np.array([c for c, _ in obs.terms])
    parts = [_part_keys(layout[lo:hi], duals.frames[lo:hi], len(coeffs)) for lo, hi in zip(cuts, cuts[1:])]
    (a_key, b1_key, b2_key), weight = _entries([part[:2] for part in parts], coeffs)
    (_, ua, a_stacks, a_index), (_, _, b1_stacks, b1_index), (_, _, b2_stacks, b2_index) = parts

    order = [q for g in groups for q in g]
    n_a, n_b1, n_b2 = (sum(len(g) for g in groups[lo:hi]) for lo, hi in zip(cuts, cuts[1:]))
    da, d1, d2, db = 2**n_a, 2**n_b1, 2**n_b2, 2 ** (n_b1 + n_b2)
    if isinstance(state, PureState):
        psi = state.amplitudes.reshape((2,) * n).transpose(order).reshape(da, db)
        bra = psi.conj().T
        contract = lambda ops: bra @ ops @ psi
    else:
        # rows (a'', a') and columns (b'', b') of rho[(a', b'), (a'', b'')]
        halves = (order[:n_a], order[n_a:])
        rho = density_tensor(state, [(q, side) for half in halves for side in (1, 0) for q in half]).reshape(da * da, -1)
        contract = lambda ops: ops.reshape(len(ops), -1) @ rho

    # bytes per A key of a chunk (M_A, Ψ^† M_A, L, L relaid), and per entry
    # of a run (its M_B1 and form, a new M_B2 and its forms with the chunk)
    a_step = max(1, _SPLIT_BYTES // (16 * (da * da + da * db + 2 * db * db)))
    e_step = max(1, _SPLIT_BYTES // (16 * (2 * d1 * d1 + d2 * d2 + a_step * d1 * d1)))
    values = np.zeros(len(a_index))
    bounds = np.searchsorted(a_key, np.arange(0, len(values) + a_step, a_step))
    for k, a0 in enumerate(range(0, len(values), a_step)):
        a1 = min(a0 + a_step, len(values))
        # L[(b1 b2), (b1' b2')] as rows (b1 b1') and columns (b2 b2')
        left = contract(_kron_rows(a_index[a0:a1], a_stacks)).reshape(a1 - a0, d1, d2, d1, d2)
        left = left.transpose(0, 1, 3, 2, 4).reshape(-1, d2 * d2)
        by_b2 = bounds[k] + np.argsort(b2_key[bounds[k] : bounds[k + 1]], kind="stable")
        for r0 in range(0, len(by_b2), e_step):
            ent = by_b2[r0 : r0 + e_step]
            need, col = np.unique(b2_key[ent], return_inverse=True)
            ops2 = _kron_rows(b2_index[need], b2_stacks).reshape(len(need), -1)
            forms = (left @ ops2.T).reshape(a1 - a0, d1 * d1, -1)
            ops1 = _kron_rows(b1_index[b1_key[ent]], b1_stacks).reshape(len(ent), -1)
            vals = np.einsum("ex,ex->e", ops1, forms[a_key[ent] - a0, :, col.reshape(-1)]).real
            values[a0:a1] += np.bincount(a_key[ent] - a0, weight[ent] * vals, minlength=a1 - a0)
    return float(values[:ua].sum()), float(values[ua:].sum())


def exact_variance(state, povm: ProductPOVM, duals: GlobalDuals, obs: PauliObservable) -> float:
    """Exact single-shot estimator variance, as carried by :func:`exact_moments`."""
    return exact_moments(state, povm, duals, obs).variance


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
