"""Unbiased observable estimation from shot data and its exact variance.

The single-shot estimate of an observable is a sum over terms of
products over partition groups of dual-operator traces Tr[D_m P]; means
over shots are unbiased whenever the dual frames pass the duality check.
Every path reads them from one layout (:meth:`CoefficientCache.layout`).
Up to ``sampling.JOINT_TENSOR_QUBIT_LIMIT`` qubits the estimator is
tabulated once over every joint outcome, through the terms' distinct
tuples on two halves (:meth:`CoefficientCache.table`): shots are table
lookups, and the exact moments are sums of the table
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
from .sampling import Dataset, SamplingPlan, flat_codes, joint_probabilities, shot_uniforms
from .states import density_tensor

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
REPETITIONS_CAP = 10**6

# Bytes of each family of transient arrays of the split exact moments of a
# pure state; its chunks are sized from the part dimensions to stay near this.
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
                subs, sid = np.unique(["".join(w[q] for q in group) for _, w in obs.terms], return_inverse=True)
                letters = np.array([["IXYZ".index(ch) for ch in sub] for sub in subs])
                paulis = hermitian_coords(_kron_rows(letters, [_PAULIS] * len(group)))
                self._layouts[obs].append((sid.reshape(-1), paulis @ frame.duals.T))
        return self._layouts[obs]

    def table(self, obs: PauliObservable) -> tuple[np.ndarray, list[int]]:
        """Single-shot estimate of ``obs`` at every joint outcome.

        The groups are split, in order, into two blocks A and B whose
        outcome spaces are as close in size as possible, and the table is
        ``W = (V_A C) V_B^T``: V_A has a column per distinct A tuple of the
        terms (:func:`_block_matrix`) and C[a, b] is the coefficient of the
        term of tuples a, b, else 0. Returns W, shape ``(d^|A|, d^|B|)``, and
        the qubit order of its row-major flat index (A's qubits, then B's).
        """
        if obs not in self._tables:
            groups, layout = self.duals.partition.groups, self.layout(obs)
            split = _split_index(groups)
            (ta, va), (tb, vb) = (_block_matrix(part, len(obs.terms)) for part in (layout[:split], layout[split:]))
            c = np.zeros((va.shape[1], vb.shape[1]))
            c[ta, tb] = [coeff for coeff, _ in obs.terms]  # words are distinct: one term per (a, b)
            order = [q for g in groups for q in g]
            self._tables[obs] = ((va @ c) @ vb.T, order)
        return self._tables[obs]


def _term_tuples(part, n_terms: int):
    """Each term's tuple id on a part of the layout (its substring ids there), and a term of each."""
    tuples = np.zeros(n_terms, dtype=np.intp)
    for sid, vec in part:
        tuples = np.unique(tuples * len(vec) + sid, return_inverse=True)[1].reshape(-1)
    return tuples, np.unique(tuples, return_index=True)[1]


def _block_matrix(part, n_terms: int):
    """The terms' :func:`_term_tuples` ids, and V with column u the Kronecker product of tuple u's vectors."""
    tuples, rep = _term_tuples(part, n_terms)
    V = np.ones((1, len(rep)))
    for sid, vec in part:
        V = (V[:, None, :] * vec[sid[rep]].T[None, :, :]).reshape(-1, len(rep))
    return tuples, V


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


def _omega(ds: Dataset, duals: GlobalDuals, obs: PauliObservable, cache: CoefficientCache) -> np.ndarray:
    """Single-shot estimate of every shot: a table gather up to the joint-tensor
    limit, and above it a loop over terms of products of per-group gathers."""
    if ds.n <= sampling.JOINT_TENSOR_QUBIT_LIMIT:
        table, order = cache.table(obs)
        return table.reshape(-1)[flat_codes(ds, order)]
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


def estimate(ds: Dataset, duals: GlobalDuals, obs: PauliObservable) -> EstimateReport:
    """Sample mean with population variance and Gaussian standard error."""
    if ds.S == 0:
        raise ValueError("empty dataset")
    if ds.n != duals.n or ds.n != obs.n:
        raise ValueError("qubit counts disagree")
    cache = CoefficientCache(duals)
    if ds.d != cache.d:
        raise ValueError(
            f"the dataset has {ds.d} outcomes per qubit but the duals were built for {cache.d}"
        )
    om = _omega(ds, duals, obs, cache)
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
    """Tr[rho O] without forming the dense observable, as the state computes it."""
    if not hasattr(state, "_expectation"):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if state.n != obs.n:
        raise ValueError(f"observable acts on {obs.n} qubits but the state has {state.n}")
    return state._expectation(obs)


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
    of the Born probability times the tabulated estimate (squared)
    (:func:`_table_moments`). Above
    it, per term pair each group contributes the operator Σ_m effect_m
    Tr[D_m P] Tr[D_m Q] (the first moment: without Q), and the moment is
    the state's expectation of their tensor product, taken for every term
    and pair in one pass of :func:`_split_moments`: on its ``amplitudes``
    when it has them, and otherwise on its density tensor
    (:func:`~icshadows.states.density_tensor`), which a block-product
    state builds from its blocks without a validated register-wide
    ``DensityMatrix``. Both read the trace
    vectors from one layout and require each frame's effects to be the
    POVM's on its group (within ``DUALITY_TOL``), so they compute the same
    thing, and unbiasedness is measured rather than assumed. The pair also
    carries ``.variance``: up to the limit the two-pass Σ p (omega -
    E[omega])^2, which no large identity offset cancels, and above it
    E[omega^2] - E[omega]^2. :func:`rmse_experiment` takes its moments
    from the same kernels, with the same Born tensor and table it samples
    and scores with."""
    return _moments_and_born(state, povm, duals, obs, CoefficientCache(duals))[0]


def _moments_and_born(
    state, povm: ProductPOVM, duals: GlobalDuals, obs: PauliObservable, cache: CoefficientCache
):
    """The checked :func:`exact_moments`, and the register's flat Born tensor
    they were summed against (None above the joint-tensor limit)."""
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

    if obs.n > sampling.JOINT_TENSOR_QUBIT_LIMIT:
        moments = _Moments(_split_moments(state, duals, obs, cache.layout(obs)))
        moments.variance = moments[1] - moments[0] * moments[0]
        return moments, None
    # p first, so the table is not yet alive at p's larger build peak
    p = joint_probabilities(state, povm, range(obs.n))
    return _table_moments(p, *cache.table(obs), cache.d), p


def _table_moments(p: np.ndarray, table: np.ndarray, order, d: int) -> _Moments:
    """Moments of the estimator table over the flat Born tensor ``p``.

    ``p`` is in qubit order and the table's axes are the qubits ``order``,
    ``d`` outcomes each; neither is changed, as both go on to sample and
    score shots. The two-pass variance centres the table one block of its
    leading axes at a time, so each temporary is at most ``_SPLIT_BYTES``.
    """
    n = len(order)
    # p with its axes in the table's order; each block below is a view of it
    p, w = p.reshape((d,) * n).transpose(order), table.reshape((d,) * n)
    axes = "".join(chr(ord("a") + q) for q in range(n))
    mean = float(np.einsum(f"{axes},{axes}->", p, w))
    moments = _Moments((mean, float(np.einsum(f"{axes},{axes},{axes}->", p, w, w))))
    lead = next(k for k in range(n + 1) if 8 * d ** (n - k) <= _SPLIT_BYTES)
    moments.variance = 0.0
    for idx in np.ndindex(*(d,) * lead):
        block = w[idx] - mean
        block *= block
        block *= p[idx]
        moments.variance += float(block.sum())
    return moments


def _pair_keys(x, y, u: int):
    """Key of each pair of ids (x, y) below ``u``: u + the row-major index of
    (min, max) in the upper triangle. Key x < u stands for (x, none)."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    return u + lo * u - lo * (lo - 1) // 2 + hi - lo


def _part_keys(part, frames, n_terms: int):
    """The :func:`_term_tuples` ids of a part's terms, the number U of tuples, each
    group's operators Σ_m effect_m Tr[D_m P] Tr[D_m Q] under the
    :func:`_pair_keys` of its substrings, and the group operator keys of
    each of the U + U(U+1)/2 tuple keys (every pair of tuples meets)."""
    tuples, rep = _term_tuples(part, n_terms)
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


def _split_budget(rho) -> int:
    """Bytes of each transient array family of a split chunk: ``_SPLIT_BYTES``
    for a pure state (``rho`` None), half the density tensor read otherwise."""
    return _SPLIT_BYTES if rho is None else rho.nbytes // 2


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
    entries in runs of M_B2, each array family near ``_SPLIT_BYTES`` for a
    pure state and near half the density tensor's size otherwise, so that a
    chunk reads the tensor once for many A keys. The
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
    if state.amplitudes is not None:
        psi = state.amplitudes.reshape((2,) * n).transpose(order).reshape(da, db)
        bra = psi.conj().T
        contract = lambda ops: bra @ ops @ psi
        budget = _split_budget(None)
    else:
        # rows (a'', a') and columns (b'', b') of rho[(a', b'), (a'', b'')]
        halves = (order[:n_a], order[n_a:])
        rho = density_tensor(state, [(q, side) for half in halves for side in (1, 0) for q in half]).reshape(da * da, -1)
        contract = lambda ops: ops.reshape(len(ops), -1) @ rho
        budget = _split_budget(rho)

    # bytes per A key of a chunk (M_A, Ψ^† M_A, L, L relaid), and per entry
    # of a run (its M_B1 and form, a new M_B2 and its forms with the chunk)
    a_step = max(1, budget // (16 * (da * da + da * db + 2 * db * db)))
    e_step = max(1, budget // (16 * (2 * d1 * d1 + d2 * d2 + a_step * d1 * d1)))
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


class _RMSE(float):
    """An RMSE, carrying the exact single-shot variance as ``variance``."""


def _child_seed(seed: int, r: int) -> int:
    """Seed of repetition r, spawned off the harness seed."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(r,)).generate_state(1, np.uint64)[0])


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

    Repetition r draws its shots from a child seed spawned off ``seed``,
    so the harness is reproducible and repetitions are statistically
    independent. Its records are those of ``SamplingPlan(state, povm).draw(S,
    child)`` and its mean that of :func:`estimate` on them, bit for bit.

    Each input is prepared once. Up to the joint-tensor limit one Born
    tensor and one estimator table give the exact moments
    (:func:`_table_moments`); the sampling plan then turns the tensor into
    its CDF in place, and the same table scores every shot. Above the
    limit the moments are split and shots are scored term by term.
    Repetitions are drawn in batches of whole repetitions of up to
    ``sampling.DEFAULT_CHUNK`` shots: one reused buffer of uniforms, one
    call of the plan's kernel and one gather per batch. A repetition of
    more shots is drawn in pieces, cut where :func:`numpy.add.reduce`
    halves an array (pairwise, at multiples of 8), so that its sum is the
    same. Memory grows with neither R nor S.

    The result is a float carrying the exact single-shot variance
    (:func:`exact_variance`) as ``.variance``. It is taken before the first
    shot, so a state whose moments cannot be taken fails before any
    sampling. R outside 1..``REPETITIONS_CAP``, S < 1, and S x n record
    bytes above ``sampling.RECORD_BYTES_CAP`` raise ``ValueError`` before
    any of that work.
    """
    if R < 1:
        raise ValueError(f"need at least one repetition, got R = {R}")
    if R > REPETITIONS_CAP:
        raise ValueError(f"{R} repetitions exceed the cap {REPETITIONS_CAP}")
    if S < 1:
        raise ValueError("empty dataset")
    sampling._check_record_bytes(S, povm.n)
    truth = exact_expectation(state, obs)
    cache = CoefficientCache(duals)
    moments, born = _moments_and_born(state, povm, duals, obs, cache)
    plan = SamplingPlan(state, povm, _born=born)
    n, chunk = plan.n, sampling.DEFAULT_CHUNK
    per = max(1, min(R, chunk // S))  # repetitions per batch
    u = np.empty((min(per * S, chunk), n))

    def scores(cnt: int, child: int) -> np.ndarray:
        records = plan._outcomes(u[:cnt], np.empty((cnt, n), dtype=np.uint8))
        ds = Dataset(n=n, d=plan.d, S=cnt, records=records, seed=child, povm_id=plan.povm_id)
        return _omega(ds, duals, obs, cache)

    def shot_sum(child: int, lo: int, hi: int):
        if hi - lo > chunk:
            mid = (hi - lo) // 2
            mid -= mid % 8
            return shot_sum(child, lo, lo + mid) + shot_sum(child, lo + mid, hi)
        u[: hi - lo] = shot_uniforms(child, lo, hi - lo, n)
        return np.add.reduce(scores(hi - lo, child))

    sq = 0.0
    for r0 in range(0, R, per):
        if S > chunk:
            sums = np.array([shot_sum(_child_seed(seed, r0), 0, S)])
        else:
            children = [_child_seed(seed, r) for r in range(r0, min(r0 + per, R))]
            for i, child in enumerate(children):
                u[i * S : (i + 1) * S] = shot_uniforms(child, 0, S, n)
            sums = np.add.reduce(scores(len(children) * S, children[0]).reshape(-1, S), axis=1)
        for mean in (sums / S).tolist():
            sq += (mean - truth) ** 2
    rmse = _RMSE(np.sqrt(sq / R))
    rmse.variance = moments.variance
    return rmse
