"""Reference implementations that the library's fast paths are checked against."""

import functools

import numpy as np
import scipy.linalg

from icshadows import (
    DensityMatrix,
    MIGraph,
    Partition,
    PauliObservable,
    SamplingPlan,
    estimate,
    estimation,
    exact_expectation,
    marginal_counts,
    pauli6_product,
    tomography,
)
from icshadows.algebra import hermitian_coords, hermitian_stack, project_to_density
from icshadows.correlations import _mutual_information
from icshadows.frames import (
    PRODUCT_QUBIT_CAP,
    PRODUCT_SWEEPS,
    PRODUCT_TOL,
    DualFrame,
    GlobalDuals,
    canonical_duals,
)
from icshadows.observables import PAULI_MATRICES, mask_term
from icshadows.states import BlockProductState, PureState
from icshadows.tomography import LAD_WINDOW, ReconstructionReport


def _substring(word: str, group) -> str:
    return "".join(word[q] for q in group)


def kron_all(ops) -> np.ndarray:
    """Tensor product of a sequence of operators, left to right."""
    out = np.array([[1.0 + 0.0j]])
    for op in ops:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(op: np.ndarray, keep, n: int | None = None) -> np.ndarray:
    """Trace out all qubits not listed in ``keep``.

    Parameters
    ----------
    op : (2^n, 2^n) array
    keep : iterable of qubit indices to retain, in any order; the result
        acts on them in ascending-index order.
    n : qubit count; inferred from the matrix dimension when omitted.
    """
    op = np.asarray(op, dtype=complex)
    if n is None:
        n = int(round(np.log2(op.shape[0])))
    if op.shape != (2**n, 2**n):
        raise ValueError("operator dimension is not 2^n")
    keep = sorted(set(int(q) for q in keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValueError("keep indices out of range")
    drop = [q for q in range(n) if q not in keep]
    t = op.reshape((2,) * (2 * n))
    for offset, q in enumerate(drop):
        # axes shift left as traced pairs disappear
        ax = q - offset
        t = np.trace(t, axis1=ax, axis2=ax + n - offset)
    d = 2 ** len(keep)
    return t.reshape(d, d)


def reorder_qubits(op: np.ndarray, current_order) -> np.ndarray:
    """Permute an operator whose qubit axes follow ``current_order`` into
    ascending label order."""
    order = list(current_order)
    n = len(order)
    # axis i holds qubit order[i]; send it to position order[i]
    perm = [0] * n
    for pos, q in enumerate(order):
        perm[q] = pos
    t = op.reshape((2,) * (2 * n))
    t = t.transpose([perm[i] for i in range(n)] + [n + perm[i] for i in range(n)])
    return t.reshape(2**n, 2**n)


def same_bits(a, b) -> bool:
    """True when two float or complex arrays hold the same bytes, so +0 and -0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def vectorize(op) -> np.ndarray:
    """Row-major flattening of a square matrix, so ``vdot`` is ``Tr[A^dag B]``."""
    return np.asarray(op).reshape(-1)


def devectorize(vec) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(vec)
    dim = int(round(np.sqrt(vec.size)))
    return vec.reshape(dim, dim)


def kron_stacks(stacks) -> np.ndarray:
    """Kronecker products of one operator from each stack, in row-major order
    (the first stack's index most significant), one einsum per factor."""
    stacks = list(stacks)
    out = stacks[0]
    for nxt in stacks[1:]:
        d0, d1 = out.shape[1], nxt.shape[1]
        out = np.einsum("mab,ncd->mnacbd", out, nxt).reshape(-1, d0 * d1, d0 * d1)
    return out


def group_effect(povm, group, idx) -> np.ndarray:
    """One group effect, the Kronecker product of the listed local effects."""
    return kron_all(povm.locals[q].effects[m] for q, m in zip(group, idx))


def outcome_probability(state, povm, outcome) -> float:
    """Born probability Tr[(Pi_m1 x ... x Pi_mn) rho] of one joint outcome, densely."""
    effect = group_effect(povm, range(povm.n), outcome)
    return float(np.trace(effect @ state.density().matrix).real)


def kron_matrix(obs) -> np.ndarray:
    """Dense matrix of a Pauli sum, one Kronecker chain per term."""
    dim = 2**obs.n
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, word in obs.terms:
        term = np.array([[1.0 + 0.0j]])
        for ch in word:
            term = np.kron(term, PAULI_MATRICES[ch])
        out += coeff * term
    return out


def per_term_apply(obs, vec) -> np.ndarray:
    """A Pauli sum applied to a statevector in mask form, two gathers per term,
    summed in term order."""
    vec = np.asarray(vec, dtype=complex)
    rows = np.arange(2**obs.n)
    out = np.zeros_like(vec)
    for coeff, word in obs.terms:
        _, x, _, phase = mask_term(coeff, word)
        src = rows ^ x
        out += coeff * (phase[src] * vec[src])
    return out


def tensordot_apply(obs, vec) -> np.ndarray:
    """A Pauli sum applied to a statevector, one letter at a time."""
    vec = np.asarray(vec, dtype=complex)
    out = np.zeros_like(vec)
    shape = (2,) * obs.n
    for coeff, word in obs.terms:
        t = vec.reshape(shape)
        for k, ch in enumerate(word):
            if ch == "I":
                continue
            t = np.tensordot(PAULI_MATRICES[ch], t, axes=([1], [k]))
            t = np.moveaxis(t, 0, k)
        out += coeff * t.reshape(-1)
    return out


def tfim_ring(n: int, seed: int):
    """Transverse-field Ising ring with couplings and fields drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    terms = []
    for q in range(n):
        word = ["I"] * n
        word[q] = word[(q + 1) % n] = "Z"
        terms.append((-rng.uniform(0.5, 1.5), "".join(word)))
    for q in range(n):
        word = ["I"] * n
        word[q] = "X"
        terms.append((-rng.uniform(0.5, 1.5), "".join(word)))
    return PauliObservable.from_terms(terms)


def einsum_traces(stack, op) -> np.ndarray:
    """Tr[A_m B] for every operator of a stack, by einsum."""
    return np.einsum("mab,ba->m", stack, op)


def einsum_sum(weights, stack) -> np.ndarray:
    """Σ_m w_m A_m over a stack, by einsum."""
    return np.einsum("m,mab->ab", weights, stack)


def stack_tr2(stack) -> np.ndarray:
    """Tr[A_m^2] for every operator of a stack, by einsum."""
    return np.einsum("mab,mba->m", stack, stack).real


def frame_operator(effects, weights) -> tuple[np.ndarray, float]:
    """Weighted frame operator Σ_m w_m |E_m⟩⟩⟨⟨E_m| and its condition number."""
    effects = np.asarray(effects, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (effects.shape[0],):
        raise ValueError("need one weight per effect")
    if np.any(weights <= 0):
        raise ValueError("frame weights must be strictly positive")
    vecs = effects.reshape(effects.shape[0], -1)
    mat = np.einsum("m,mi,mj->ij", weights, vecs, vecs.conj())
    lam = np.linalg.eigvalsh(mat)
    cond = float("inf") if lam[0] <= 0 else float(lam[-1] / lam[0])
    return mat, cond


def wide_svd_duals(effects, weights) -> np.ndarray:
    """Dual stack from the SVD of the wide (dim^2 x M) weighted effect matrix."""
    effects = np.asarray(effects, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    M, dim = effects.shape[0], effects.shape[1]
    B = (np.sqrt(weights)[:, None] * effects.reshape(M, -1)).T
    U, s, Vh = np.linalg.svd(B, full_matrices=False)
    Dmat = U @ ((1.0 / s)[:, None] * (Vh * np.sqrt(weights)[None, :]))
    duals = Dmat.T.reshape(M, dim, dim)
    return 0.5 * (duals + np.conj(np.transpose(duals, (0, 2, 1))))


def complex_svd_duals(effects, weights) -> tuple[np.ndarray, np.ndarray]:
    """Dual stack from the SVD of the tall complex (M x dim^2) weighted effect
    matrix, Hermitian-symmetrized, with that matrix's singular values."""
    effects = np.asarray(effects, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    M, dim = effects.shape[0], effects.shape[1]
    root = np.sqrt(weights)[:, None]
    U, s, Vh = np.linalg.svd(root * effects.reshape(M, -1), full_matrices=False)
    duals = (((root * U) / s) @ Vh).reshape(M, dim, dim)
    return 0.5 * (duals + np.conj(np.transpose(duals, (0, 2, 1)))), s


def max_entry_residual(duals, effects) -> float:
    """Max-entry deviation of the complex Σ_m |dual_m⟩⟩⟨⟨effect_m| from the identity."""
    M, dim = effects.shape[0], effects.shape[1]
    s = np.asarray(duals).reshape(M, -1).T @ np.asarray(effects).reshape(M, -1).conj()
    return float(np.abs(s - np.eye(dim * dim)).max())


def hermitian_basis_loop(dim) -> np.ndarray:
    """Orthonormal Hermitian basis, one matrix at a time: the diagonal units,
    then per upper-triangle entry its symmetric and antisymmetric pair."""
    basis = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2)
            basis.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = -1j / np.sqrt(2)
            e[j, i] = 1j / np.sqrt(2)
            basis.append(e)
    return np.stack(basis)


def _hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal Hermitian basis, so real coefficient vectors stay Hermitian:
    the stacks whose coordinates are the unit vectors."""
    return hermitian_stack(np.eye(dim * dim))


def _duality_null_directions(effects: np.ndarray) -> np.ndarray:
    """Hermitian stacks N with Σ_m |N_m⟩⟩⟨⟨Π_m| = 0 (duality-preserving moves)."""
    M, dim = effects.shape[0], effects.shape[1]
    herm = _hermitian_basis(dim)
    evecs = effects.reshape(M, -1).conj()
    hvecs = herm.reshape(dim * dim, -1)
    # column (m, a) of the constraint map is vec(E_a) ⊗ ⟨⟨Π_m|
    cols = np.einsum("ai,mj->ijma", hvecs, evecs).reshape(dim**4, M * dim * dim)
    null = scipy.linalg.null_space(np.vstack([cols.real, cols.imag]))
    coeffs = null.T.reshape(-1, M, dim * dim)
    return np.einsum("xma,aij->xmij", coeffs, herm)


def null_space_product_duals(
    probabilities,
    partition: Partition,
    rho,
) -> tuple[GlobalDuals, float, int]:
    """Best product-structured duals for state estimation, by coordinate descent.

    Each site's duals move only along duality-preserving directions, so
    every iterate is a valid frame. With the other sites frozen the MSE
    is a convex quadratic in one site's coordinates and is minimized in
    closed form; sweeps repeat until one improves the objective by less
    than ``PRODUCT_TOL``, at most ``PRODUCT_SWEEPS`` of them, on at most
    ``PRODUCT_QUBIT_CAP`` qubits. Returns the frames, the final MSE, and
    the sweep count.

    The null-space build for a k-qubit group is a 2·16^k x 24^k real
    matrix, so run this on groups of at most 2 qubits.
    """
    if partition.n > PRODUCT_QUBIT_CAP:
        raise ValueError(f"{partition.n} qubits exceeds the optimizer cap {PRODUCT_QUBIT_CAP}")
    probabilities = np.asarray(probabilities, dtype=float)
    rho_mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    purity = np.einsum("ab,ba->", rho_mat, rho_mat).real

    povm = pauli6_product(partition.n)
    groups = partition.groups
    coords = [povm.group_effects(g) for g in groups]
    effects = [hermitian_stack(a) for a in coords]
    sites = [hermitian_stack(canonical_duals(a, group=g).duals) for a, g in zip(coords, groups)]
    nulls = [_duality_null_directions(e) for e in effects]

    # joint probabilities arrive row-major over qubit index; fold to one
    # axis per group, in group order
    order = [q for g in groups for q in g]
    per_qubit = probabilities.reshape((6,) * partition.n)
    p_grouped = per_qubit.transpose(order).reshape([6 ** len(g) for g in groups])

    def site_weights(s: int) -> np.ndarray:
        q = p_grouped
        for t in reversed(range(len(sites))):
            if t == s:
                continue
            q = np.tensordot(q, stack_tr2(sites[t]), axes=([t], [0]))
        return q

    def objective() -> float:
        q = p_grouped
        for t in reversed(range(len(sites))):
            q = np.tensordot(q, stack_tr2(sites[t]), axes=([t], [0]))
        return float(q - purity)

    prev = objective()
    sweep = 0
    for sweep in range(1, PRODUCT_SWEEPS + 1):
        for s in range(len(sites)):
            q = site_weights(s)
            N = nulls[s]
            nn = np.einsum("xmab,ymba->xym", N, N).real
            H = 2.0 * np.einsum("xym,m->xy", nn, q)
            dn = np.einsum("mab,xmba->xm", sites[s], N).real
            c = 2.0 * np.einsum("xm,m->x", dn, q)
            x, *_ = np.linalg.lstsq(H, -c, rcond=None)
            sites[s] = sites[s] + np.einsum("x,xmab->mab", x, N)
        cur = objective()
        if cur > prev + 1e-12:
            raise AssertionError("objective increased; optimizer step is broken")
        if prev - cur < PRODUCT_TOL:
            prev = cur
            break
        prev = cur
    frames = tuple(
        DualFrame(group=g, effects=a, duals=hermitian_coords(d), provenance="optimized-product")
        for g, a, d in zip(groups, coords, sites)
    )
    return GlobalDuals(partition=partition, frames=frames), prev, sweep


def lad_loop(mt, effects):
    """Constrained LAD by einsum on the complex effect stack, recomputing
    every iterate's probabilities."""
    effects = np.asarray(effects, dtype=complex)
    f = mt.frequencies

    def residual(sigma):
        return float(np.abs(f - einsum_traces(effects, sigma).real).sum())

    init = einsum_sum(f, hermitian_stack(canonical_duals(hermitian_coords(effects), mt.group).duals))
    sigma = project_to_density(0.5 * (init + init.conj().T))
    best = sigma
    best_r = residual(sigma)
    window_r = best_r
    converged = False
    it = 0
    for it in range(1, tomography.LAD_MAX_ITERS + 1):
        r = f - einsum_traces(effects, sigma).real
        grad = -einsum_sum(np.sign(r), effects)
        sigma = project_to_density(sigma - (1.0 / np.sqrt(it)) * grad)
        rr = residual(sigma)
        if rr < best_r:
            best_r = rr
            best = sigma
        if it % LAD_WINDOW == 0:
            if window_r - best_r < tomography.LAD_TOLERANCE:
                converged = True
                break
            window_r = best_r
    n = int(round(np.log2(effects.shape[1])))
    report = ReconstructionReport(residual=best_r, iterations=it, converged=converged)
    return DensityMatrix(n, best).matrix, report


def tensordot_joint_probabilities(rho: np.ndarray, povm, qubits) -> np.ndarray:
    """Outcome probability tensor with one axis per qubit of ``qubits``."""
    k = len(qubits)
    t = rho.reshape((2,) * (2 * k))
    for i, q in enumerate(qubits):
        eff = povm.locals[q].effects
        rem = k - i
        # contract this qubit's (row, col) pair; outcome axis lands at the end
        t = np.tensordot(t, eff, axes=([0, rem], [2, 1]))
    return np.clip(t.real, 0.0, None)


def prefix_tensors(joint) -> list:
    """Marginal tensors of a joint outcome tensor over each prefix of its axes.

    Entry i sums out all but the first i axes, so entry 0 is the total mass
    and the last entry is the joint tensor itself.
    """
    prefixes = [joint]
    for _ in range(joint.ndim):
        prefixes.append(prefixes[-1].sum(axis=-1))
    prefixes.reverse()
    return prefixes


def two_pass_walk_tables(joint) -> list:
    """Per-level ``(totals, cdf, d)`` walk tables in two passes: every level's
    prefix masses by ``sum(axis=-1)``, then the running sums of each level's
    rows, in place on the joint tensor and on copies of the smaller levels."""
    prefixes = prefix_tensors(np.ascontiguousarray(joint))
    if prefixes[0] <= 0:
        raise ValueError("state has no outcome mass (numerically invalid)")
    tables = []
    for i in range(joint.ndim):
        cdf = prefixes[i + 1] if i == joint.ndim - 1 else prefixes[i + 1].copy()
        d = cdf.shape[-1]
        for j in range(1, d):
            cdf[..., j] += cdf[..., j - 1]
        tables.append((prefixes[i].reshape(-1), cdf.reshape(-1), d))
    return tables


def walk_chunk(prefixes, u) -> np.ndarray:
    """Ascending conditional inverse-CDF walk over gathered prefix rows.

    At each level every shot gathers its row of the next prefix tensor,
    takes its cumulative sum, and counts the entries at or below its
    uniform times the row's total, capped at the last outcome.
    """
    cnt = u.shape[0]
    out = np.empty((cnt, len(prefixes) - 1), dtype=np.uint8)
    code = np.zeros(cnt, dtype=np.int64)
    for i in range(len(prefixes) - 1):
        d = prefixes[i + 1].shape[-1]
        rows = prefixes[i + 1].reshape(-1, d)[code]
        cdf = np.cumsum(rows, axis=1)
        thr = u[:, i] * prefixes[i].reshape(-1)[code]
        m = (cdf <= thr[:, None]).sum(axis=1)
        np.minimum(m, d - 1, out=m)
        out[:, i] = m
        code = code * d + m
    return out


def per_term_table(cache, obs) -> np.ndarray:
    """The estimator table with one column per term: ``(V_A diag c) V_B^T``,
    with V_A and V_B the Kronecker products of each term's trace vectors on
    the two halves of the groups that the cache's table splits them into."""
    layout = cache.layout(obs)
    split = estimation._split_index(cache.duals.partition.groups)

    def block(part):
        V = np.ones((1, len(obs.terms)))
        for sid, vec in part:
            V = (V[:, None, :] * vec[sid].T[None, :, :]).reshape(-1, V.shape[1])
        return V

    coeffs = np.array([c for c, _ in obs.terms])
    return (block(layout[:split]) * coeffs) @ block(layout[split:]).T


def rmse_loop(state, povm, duals, obs, R: int, S: int, seed: int) -> float:
    """RMSE of R S-shot means, one dataset and one estimate per repetition.

    Repetition r samples from its own child seed through one plan and is
    scored by :func:`estimate` on its own dataset.
    """
    truth = exact_expectation(state, obs)
    plan = SamplingPlan(state, povm)
    sq = 0.0
    for r in range(R):
        child = int(np.random.SeedSequence(entropy=seed, spawn_key=(r,)).generate_state(1, np.uint64)[0])
        rep = estimate(plan.draw(S, child), duals, obs)
        sq += (rep.mean - truth) ** 2
    return float(np.sqrt(sq / R))


def branch_exact_expectation(state, obs) -> float:
    """Tr[rho O] by one branch per state class: a pure state's amplitudes,
    a block product's blocks term by term, a density matrix's entries."""
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
                val *= branch_exact_expectation(block, sub)
            total += val
        return float(total)
    rows = np.arange(2**state.n)
    total = 0.0
    for x, diag in obs._mask_diagonals:
        total += np.dot(diag, state.matrix[rows ^ x, rows]).real
    return float(total)


def pair_mutual_information(ds, i: int, j: int) -> float:
    """Plug-in MI of two qubits' outcomes in a dataset, from their joint histogram."""
    if i == j:
        raise ValueError("need two distinct qubits")
    a, b = (i, j) if i < j else (j, i)
    joint = marginal_counts(ds, (a, b)).frequencies.reshape(ds.d, ds.d)
    return _mutual_information(joint)


def group_mutual_information(ds, group, q: int) -> float:
    """Plug-in MI between a group's joint outcome and one extra qubit's outcome."""
    group = list(group)
    if q in group:
        raise ValueError("qubit already in the group")
    joint = marginal_counts(ds, group + [q]).frequencies.reshape(ds.d ** len(group), ds.d)
    return _mutual_information(joint)


def mi_graph_loop(ds):
    """MI graph of a dataset with one pair histogram per qubit pair."""
    w = np.zeros((ds.n, ds.n))
    for i in range(ds.n):
        for j in range(i + 1, ds.n):
            w[i, j] = w[j, i] = pair_mutual_information(ds, i, j)
    return MIGraph(ds.n, w)


def greedy_partition_loop(ds, k):
    """Greedy MI partition of a dataset with one group histogram per candidate qubit."""
    pair_mi = mi_graph_loop(ds).weights
    unassigned = set(range(ds.n))
    groups = []
    while len(unassigned) >= 2:
        best, seed = -1.0, None
        for i in sorted(unassigned):
            for j in sorted(unassigned):
                if j > i and pair_mi[i, j] > best:
                    best, seed = pair_mi[i, j], (i, j)
        group = list(seed)
        unassigned.difference_update(group)
        while len(group) < k and unassigned:
            best, pick = -1.0, None
            for q in sorted(unassigned):
                val = group_mutual_information(ds, sorted(group), q)
                if val > best:
                    best, pick = val, q
            group.append(pick)
            unassigned.remove(pick)
        groups.append(tuple(sorted(group)))
    for q in sorted(unassigned):
        groups.append((q,))
    return Partition(tuple(groups))


def dense_trace_vector(frame, sub) -> np.ndarray:
    """Tr[D_m P] of every dual of a frame with the Pauli word ``sub``, from dense matrices."""
    pauli = kron_all(PAULI_MATRICES[ch] for ch in sub)
    return einsum_traces(hermitian_stack(frame.duals), pauli).real


def omega(shot, duals, obs) -> float:
    """Single-shot estimate of one shot: sum over terms of products of dense group traces."""
    shot = np.asarray(shot)
    total = 0.0
    for coeff, word in obs.terms:
        val = coeff
        for frame, group in zip(duals.frames, duals.partition.groups):
            d = int(round(frame.outcomes ** (1.0 / len(group))))
            code = 0
            for q in group:
                code = code * d + int(shot[q])
            val *= dense_trace_vector(frame, _substring(word, group))[code]
        total += val
    return float(total)


def _grouped_trace_pure(amps: np.ndarray, n: int, groups, ops) -> float:
    """<psi| (op_1 x op_2 x ...) |psi> with each op on its group's qubits."""
    t = amps.reshape((2,) * n)
    for group, op in zip(groups, ops):
        k = len(group)
        opt = op.reshape((2,) * (2 * k))
        t = np.tensordot(opt, t, axes=(list(range(k, 2 * k)), list(group)))
        t = np.moveaxis(t, range(k), group)
    return float(np.vdot(amps, t.reshape(-1)).real)


def _grouped_trace_density(rho: np.ndarray, n: int, groups, ops) -> float:
    """Tr[rho (op_1 x op_2 x ...)] with each op on its group's qubits."""
    t = rho.reshape((2,) * (2 * n))
    labels = [("r", q) for q in range(n)] + [("c", q) for q in range(n)]
    for group, op in zip(groups, ops):
        k = len(group)
        opt = op.reshape((2,) * (2 * k))
        ax_t = [labels.index(("r", q)) for q in group] + [
            labels.index(("c", q)) for q in group
        ]
        ax_o = list(range(k, 2 * k)) + list(range(k))
        t = np.tensordot(t, opt, axes=(ax_t, ax_o))
        for pos in sorted(ax_t, reverse=True):
            del labels[pos]
    return float(t.real)


def pairwise_exact_moments(state, duals: GlobalDuals, obs: PauliObservable) -> tuple[float, float]:
    """E[omega] and E[omega^2] with one full-state grouped trace per term and per term pair."""
    groups = duals.partition.groups
    if isinstance(state, PureState):
        contract = lambda ops: _grouped_trace_pure(state.amplitudes, state.n, groups, ops)
    else:
        rho = state.density()
        contract = lambda ops: _grouped_trace_density(rho.matrix, rho.n, groups, ops)

    @functools.lru_cache(maxsize=None)
    def trace_vector(gi, sub):
        return dense_trace_vector(duals.frames[gi], sub)

    def moment(gi, sub_p, sub_q):
        tv = trace_vector(gi, sub_p)
        if sub_q is not None:
            tv = tv * trace_vector(gi, sub_q)
        return hermitian_stack(tv @ duals.frames[gi].effects)

    subs = [[_substring(word, g) for g in groups] for _, word in obs.terms]
    mean = sum(
        coeff * contract([moment(gi, p, None) for gi, p in enumerate(sp)])
        for (coeff, _), sp in zip(obs.terms, subs)
    )
    second = 0.0
    for i, (ci, _) in enumerate(obs.terms):
        for j in range(i, len(obs.terms)):
            cj = obs.terms[j][0]
            ops_ij = [moment(gi, p, q) for gi, (p, q) in enumerate(zip(subs[i], subs[j]))]
            second += (ci * cj if i == j else 2.0 * ci * cj) * contract(ops_ij)
    return float(mean), float(second)
