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
are scored term by term and the exact moments are computed by group
factorization, one state contraction per term pair, never enumerating
the joint outcome space.
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
            sizes = np.cumsum([0] + [len(g) for g in groups])
            split = int(np.argmin(np.abs(2 * sizes - sizes[-1])))
            coeffs = np.array([c for c, _ in obs.terms])
            va = self._block_matrix(range(split), obs) * coeffs
            vb = self._block_matrix(range(split, len(groups)), obs)
            order = [q for g in groups for q in g]
            self._tables[obs] = (va @ vb.T, order)
        return self._tables[obs]


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
    the moment is the state's expectation of their tensor product. The
    first moment is the case without Q, Σ_m effect_m · Tr[D_m P], and one
    cache holds the operators of both. Either way
    unbiasedness is measured rather than assumed. Both routes require each
    frame's effects to be the POVM's on its group (largest coordinate
    difference within ``DUALITY_TOL``), so they compute the same thing.
    """
    if obs.n != state.n:
        raise ValueError(f"observable acts on {obs.n} qubits but the state has {state.n}")
    if povm.n != state.n or duals.n != state.n:
        raise ValueError(f"the state has {state.n} qubits, the POVM {povm.n} and the duals {duals.n}")
    groups = duals.partition.groups
    terms = obs.terms
    n_pairs = len(terms) * (len(terms) + 1) // 2
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

    if isinstance(state, PureState):
        contract = lambda ops: _grouped_trace_pure(state.amplitudes, state.n, groups, ops)
    else:
        rho = state.density()
        contract = lambda ops: _grouped_trace_density(rho.matrix, rho.n, groups, ops)

    effects = [frame.effects for frame in duals.frames]
    ops: dict[tuple[int, str, str | None], np.ndarray] = {}

    def moment(gi: int, sub_p: str, sub_q: str | None) -> np.ndarray:
        """Group gi's operator for substring P, or for the pair (P, Q)."""
        if sub_q is not None and sub_q < sub_p:
            sub_p, sub_q = sub_q, sub_p
        key = (gi, sub_p, sub_q)
        if key not in ops:
            tv = cache.vector(gi, sub_p)
            if sub_q is not None:
                tv = tv * cache.vector(gi, sub_q)
            ops[key] = hermitian_stack(tv @ effects[gi])
        return ops[key]

    subs = [[_substring(word, g) for g in groups] for _, word in terms]
    mean = 0.0
    for (coeff, _), sp in zip(terms, subs):
        mean += coeff * contract([moment(gi, p, None) for gi, p in enumerate(sp)])

    second = 0.0
    for i, (ci, _) in enumerate(terms):
        for j in range(i, len(terms)):
            cj = terms[j][0]
            ops_ij = [moment(gi, p, q) for gi, (p, q) in enumerate(zip(subs[i], subs[j]))]
            weight = ci * cj if i == j else 2.0 * ci * cj
            second += weight * contract(ops_ij)
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
