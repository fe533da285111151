import itertools

import numpy as np
import pytest

from icshadows import (
    BlockProductState,
    CoefficientCache,
    DensityMatrix,
    EstimateReport,
    LocalPOVM,
    Partition,
    PauliObservable,
    ProductPOVM,
    bell_pair_chain,
    bell_state,
    bundled_hamiltonian,
    canonical_global,
    estimate,
    exact_expectation,
    exact_moments,
    exact_variance,
    ghz_state,
    ground_state,
    maximally_mixed,
    optimal_duals,
    pauli6,
    pauli6_product,
    reduced_density,
    rmse_experiment,
    sample_shots,
)
from icshadows import estimation, sampling
from icshadows.algebra import hermitian_stack
from icshadows.frames import GlobalDuals
from icshadows.povm import outcome_probabilities

from .conftest import grouped_product_state, random_density, random_pure, refuse_dense_builds, sic4
from .oracles import (
    branch_exact_expectation,
    dense_trace_vector,
    einsum_traces,
    kron_matrix,
    omega,
    pairwise_exact_moments,
    per_term_table,
    rmse_loop,
)


def estimator_paths(monkeypatch):
    """Run a loop body on the outcome-table path, then on the fallback.

    The fallback (per-term shot loop, half-split exact moments) is what
    runs above the joint-tensor limit; forcing the limit to 0 selects it
    at any size, so each path checks the other.
    """
    default = sampling.JOINT_TENSOR_QUBIT_LIMIT
    for name, limit in (("table", default), ("fallback", 0)):
        monkeypatch.setattr(sampling, "JOINT_TENSOR_QUBIT_LIMIT", limit)
        yield name
    monkeypatch.setattr(sampling, "JOINT_TENSOR_QUBIT_LIMIT", default)


def _random_observable(rng, n, n_terms):
    words = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(n_terms)]
    coeffs = rng.normal(size=n_terms)
    return PauliObservable.from_terms(list(zip(coeffs, words)))


def brute_force_moments(rho, duals, obs):
    """Enumerate the full joint outcome space; small groups only."""
    povm = pauli6_product(duals.n)
    order = [q for g in duals.partition.groups for q in g]
    effects = np.ones((1, 1, 1), dtype=complex)
    for frame in duals.frames:
        frame_effects = hermitian_stack(frame.effects)
        d0, d1 = effects.shape[1], frame_effects.shape[1]
        effects = np.einsum("mab,ncd->mnacbd", effects, frame_effects).reshape(
            -1, d0 * d1, d0 * d1
        )
    # effects live in group-listed qubit order; reorder rho to match
    t = rho.reshape((2,) * (2 * duals.n))
    perm = order + [q + duals.n for q in order]
    rho_l = t.transpose(perm).reshape(rho.shape)
    probs = einsum_traces(effects, rho_l).real

    omegas = np.zeros(effects.shape[0])
    for coeff, word in obs.terms:
        tr = np.ones(1)
        for frame, group in zip(duals.frames, duals.partition.groups):
            sub = "".join(word[q] for q in group)
            p = kron_matrix(PauliObservable.single(sub))
            tr = np.multiply.outer(
                tr, np.einsum("mab,ba->m", hermitian_stack(frame.duals), p).real
            ).reshape(-1)
        omegas = omegas + coeff * tr
    mean = float(probs @ omegas)
    second = float(probs @ (omegas * omegas))
    return mean, second


def test_omega_closed_forms(canonical2):
    ident = PauliObservable.single("II")
    z0 = PauliObservable.single("ZI")
    zz = PauliObservable.single("ZZ")
    assert omega((0, 0), canonical2, ident) == pytest.approx(1.0)
    assert omega((0, 5), canonical2, z0) == pytest.approx(3.0)
    assert omega((2, 0), canonical2, z0) == pytest.approx(0.0)
    assert omega((0, 1), canonical2, zz) == pytest.approx(-9.0)
    assert omega((1, 1), canonical2, zz) == pytest.approx(9.0)


def test_omega_cache_matches_uncached(canonical2):
    # the cached layout's outcome table against the dense per-shot oracle
    obs = PauliObservable.from_terms([(0.7, "XZ"), (-0.2, "YI")])
    table, order = CoefficientCache(canonical2).table(obs)
    assert order == [0, 1]
    for shot in [(0, 0), (3, 4), (5, 2)]:
        assert table[shot] == pytest.approx(omega(shot, canonical2, obs), rel=1e-12, abs=1e-12)


def test_estimate_is_population_statistics(canonical2, povm2, monkeypatch):
    ds = sample_shots(bell_state(), povm2, 400, seed=41)
    obs = PauliObservable.from_terms([(1.0, "ZZ"), (0.5, "XI")])
    oms = np.array([omega(tuple(r), canonical2, obs) for r in ds.records])
    for _ in estimator_paths(monkeypatch):
        rep = estimate(ds, canonical2, obs)
        assert rep.mean == pytest.approx(oms.mean())
        assert rep.sample_variance == pytest.approx(oms.var())
        assert rep.std_error == pytest.approx(np.sqrt(oms.var() / 400))
        assert rep.shots == 400
        assert rep.duals_provenance == "canonical"


def test_estimate_variance_survives_large_identity_offset(canonical2, povm2, monkeypatch):
    # canonical duals score the identity exactly, so the offset moves every
    # shot by the same amount and must leave the sample variance unchanged;
    # E[x^2] - E[x]^2 at x ~ 1e9 keeps no correct digit of a variance ~ 10
    ds = sample_shots(bell_state(), povm2, 400, seed=41)
    base = PauliObservable.from_terms([(1.0, "ZZ"), (0.5, "XI")])
    shifted = PauliObservable.from_terms(list(base.terms) + [(1e9, "II")])
    for _ in estimator_paths(monkeypatch):
        want = estimate(ds, canonical2, base).sample_variance
        got = estimate(ds, canonical2, shifted).sample_variance
        assert got == pytest.approx(want, rel=1e-6)


def _offset_case(label):
    if label == "bell-zz":
        return bell_state(), PauliObservable.single("ZZ")
    h2 = bundled_hamiltonian("h2_631g_8q.txt")
    return ground_state(h2)[1], h2


@pytest.mark.parametrize("offset, rel", [(1e5, 1e-10), (1e7, 1e-9)])
@pytest.mark.parametrize("label", ["bell-zz", "h2-8q"])
def test_exact_variance_survives_large_identity_offset(label, offset, rel):
    # canonical duals score the identity to within about 1e-15 of 1, so on
    # the table route the offset leaves the variance unchanged to those
    # digits; E[w^2] - E[w]^2 at w ~ 1e7 keeps only about 1e-2 relative
    state, obs = _offset_case(label)
    povm = pauli6_product(obs.n)
    duals = canonical_global(povm)
    want = exact_variance(state, povm, duals, obs)
    shifted = PauliObservable.from_terms(list(obs.terms) + [(offset, "I" * obs.n)])
    assert exact_variance(state, povm, duals, shifted) == pytest.approx(want, rel=rel)


def test_estimate_validates_inputs(canonical2, povm2):
    from icshadows.sampling import Dataset

    empty = Dataset(n=2, d=6, S=0, records=np.zeros((0, 2), dtype=np.uint8), seed=0)
    with pytest.raises(ValueError, match="empty"):
        estimate(empty, canonical2, PauliObservable.single("ZZ"))
    ds = sample_shots(bell_state(), povm2, 10, seed=0)
    with pytest.raises(ValueError, match="disagree"):
        estimate(ds, canonical2, PauliObservable.single("ZZZ"))


def test_estimate_report_rejects_negative_variance():
    with pytest.raises(ValueError):
        EstimateReport(0.0, -1e-3, 0.0, 10, "canonical")


def test_bell_zz_canonical_variance_is_eight(canonical2, povm2, monkeypatch):
    zz = PauliObservable.single("ZZ")
    for _ in estimator_paths(monkeypatch):
        mean, second = exact_moments(bell_state(), povm2, canonical2, zz)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert second == pytest.approx(9.0, abs=1e-10)
        assert exact_variance(bell_state(), povm2, canonical2, zz) == pytest.approx(
            8.0, abs=1e-10
        )


def test_exact_moments_match_brute_force_enumeration(povm2, monkeypatch):
    for _ in estimator_paths(monkeypatch):
        _check_exact_moments_against_brute_force(povm2)


def _check_exact_moments_against_brute_force(povm2):
    rng = np.random.default_rng(99)
    for _ in range(5):
        rho = random_density(rng, 4)
        obs = _random_observable(rng, 2, 3)
        state = DensityMatrix(2, rho)
        for part in (Partition.singletons(2), Partition.single_group(2)):
            duals = GlobalDuals(
                part,
                tuple(
                    optimal_duals(
                        outcome_probabilities(povm2.group_effects(g), reduced_density(state, g).matrix),
                        povm2.group_effects(g),
                        group=g,
                    )
                    for g in part.groups
                ),
            )
            mean, second = exact_moments(state, povm2, duals, obs)
            bmean, bsecond = brute_force_moments(rho, duals, obs)
            assert mean == pytest.approx(bmean, abs=1e-10)
            assert second == pytest.approx(bsecond, abs=1e-10)


def test_exact_mean_is_unbiased(povm2, canonical2, monkeypatch):
    for _ in estimator_paths(monkeypatch):
        rng = np.random.default_rng(7)
        for _ in range(5):
            state = DensityMatrix(2, random_density(rng, 4))
            obs = _random_observable(rng, 2, 4)
            mean, _ = exact_moments(state, povm2, canonical2, obs)
            assert mean == pytest.approx(exact_expectation(state, obs), abs=1e-10)


def test_identity_shift_moves_mean_only(povm2, canonical2, monkeypatch):
    state = bell_state()
    base = PauliObservable.from_terms([(1.0, "ZZ"), (0.3, "XX")])
    shifted = PauliObservable.from_terms(list(base.terms) + [(2.5, "II")])
    for _ in estimator_paths(monkeypatch):
        m0, s0 = exact_moments(state, povm2, canonical2, base)
        m1, _ = exact_moments(state, povm2, canonical2, shifted)
        assert m1 == pytest.approx(m0 + 2.5, abs=1e-10)
        v0 = exact_variance(state, povm2, canonical2, base)
        v1 = exact_variance(state, povm2, canonical2, shifted)
        # canonical duals have unit trace, so the shift is exact per shot
        assert v1 == pytest.approx(v0, abs=1e-9)


def test_exact_moments_pair_cap(povm2, canonical2, monkeypatch):
    obs = _random_observable(np.random.default_rng(0), 2, 40)
    monkeypatch.setattr(estimation, "PAIR_CAP", 100)
    for _ in estimator_paths(monkeypatch):
        with pytest.raises(ValueError, match="cap"):
            exact_moments(bell_state(), povm2, canonical2, obs)


def test_estimate_rejects_duals_of_another_measurement(canonical2):
    # Pauli-6 duals read tetrahedral shots of a Bell pair as <ZZ> = 0.77, not 1
    ds = sample_shots(bell_state(), ProductPOVM((sic4(),) * 2), 20_000, seed=0)
    with pytest.raises(ValueError, match="4 outcomes per qubit but the duals were built for 6"):
        estimate(ds, canonical2, PauliObservable.single("ZZ"))


def test_exact_moments_rejects_duals_of_other_effects(povm2, monkeypatch):
    u, _ = np.linalg.qr(np.array([[1.0, 2.0j], [0.5, -1.0]]))
    rotated = LocalPOVM(u @ pauli6().effects @ u.conj().T)
    zz = PauliObservable.single("ZZ")
    # the same shape as Pauli-6's effects, then another outcome count
    for local in (rotated, sic4()):
        duals = canonical_global(ProductPOVM((local,) * 2))
        for _ in estimator_paths(monkeypatch):
            with pytest.raises(ValueError, match=r"group \(0,\) were built for other effects"):
                exact_moments(bell_state(), povm2, duals, zz)


def test_exact_moments_rejects_a_register_mismatch(povm2, canonical2):
    zz = PauliObservable.single("ZZ")
    for povm, duals in ((povm2, canonical_global(pauli6_product(3))), (pauli6_product(3), canonical2)):
        with pytest.raises(ValueError, match="the state has 2 qubits, the POVM"):
            exact_moments(bell_state(), povm, duals, zz)


def test_exact_expectation_density_matches_trace():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 8)
    # XYI and YYY hold an odd number of Y letters, so their phases are imaginary
    obs = PauliObservable(3, ((0.3, "XYI"), (-1.2, "ZIZ"), (0.7, "YYY"), (0.4, "YXY")))
    want = np.trace(rho @ kron_matrix(obs)).real
    assert exact_expectation(DensityMatrix(3, rho), obs) == pytest.approx(want, abs=1e-12)


def test_exact_expectation_routes_agree():
    state = bell_pair_chain(2)
    obs = PauliObservable.from_terms(
        [(1.0, "ZZII"), (0.5, "IXXI"), (-0.25, "YIIY")]
    )
    via_blocks = exact_expectation(state, obs)
    dense = reduced_density(state, range(4))
    via_density = exact_expectation(dense, obs)
    assert via_blocks == pytest.approx(via_density, abs=1e-12)
    psi = ghz_state(3)
    obs3 = PauliObservable.from_terms([(1.0, "XXX"), (0.2, "ZZI")])
    via_pure = exact_expectation(psi, obs3)
    via_dense = exact_expectation(psi.density(), obs3)
    assert via_pure == pytest.approx(via_dense, abs=1e-12)
    with pytest.raises(TypeError):
        exact_expectation("bell", obs3)


@pytest.mark.parametrize("kind", ["pure", "density", "block"])
def test_exact_expectation_equals_the_per_class_branches(kind):
    # each state kind computes <O> itself, with the loops of the old per-class branches
    rng = np.random.default_rng(23)
    obs = _random_observable(rng, 5, 40)
    state = {
        "pure": lambda: random_pure(rng, 5),
        "density": lambda: DensityMatrix(5, random_density(rng, 32)),
        "block": lambda: BlockProductState(
            Partition(((0, 3), (1,), (2, 4))),
            tuple(DensityMatrix(k, random_density(rng, 2**k)) for k in (2, 1, 2)),
        ),
    }[kind]()
    assert exact_expectation(state, obs) == branch_exact_expectation(state, obs)


@pytest.mark.parametrize("kind", ["pure", "density", "block"])
@pytest.mark.parametrize("state_n, obs_n", [(3, 2), (2, 3)])
def test_exact_expectation_rejects_qubit_count_mismatch(kind, state_n, obs_n):
    make = {
        "pure": ghz_state,
        "density": maximally_mixed,
        "block": lambda n: grouped_product_state(ghz_state(n), Partition.singletons(n)),
    }[kind]
    obs = PauliObservable.single("Z" * obs_n)
    with pytest.raises(ValueError, match=f"acts on {obs_n} qubits but the state has {state_n}"):
        exact_expectation(make(state_n), obs)


def test_grouped_product_state_matches_density_route(povm4, monkeypatch):
    # estimator moments on a block product equal those on its dense matrix
    state = bell_pair_chain(2)
    duals = canonical_global(povm4, Partition(((0, 1), (2, 3))))
    obs = PauliObservable.from_terms([(1.0, "ZZZZ"), (0.4, "XIIX")])
    dense = reduced_density(state, range(4))
    for _ in estimator_paths(monkeypatch):
        m_block, s_block = exact_moments(state, povm4, duals, obs)
        m_dense, s_dense = exact_moments(dense, povm4, duals, obs)
        assert m_block == pytest.approx(m_dense, abs=1e-10)
        assert s_block == pytest.approx(s_dense, abs=1e-10)


def test_h2_ground_state_canonical_variance(h2_4q, h2_4q_ground, povm4, monkeypatch):
    energy, psi = h2_4q_ground
    duals = canonical_global(povm4)
    for _ in estimator_paths(monkeypatch):
        mean, second = exact_moments(psi, povm4, duals, h2_4q)
        assert mean == pytest.approx(energy, abs=1e-9)
        assert second - mean * mean == pytest.approx(1.959003, abs=2e-5)


def _random_state(kind, n, rng):
    if kind == "pure":
        return random_pure(rng, n)
    if kind == "density":
        return DensityMatrix(n, random_density(rng, 2**n))
    # blocks of at most two qubits, cut differently from the duals' groups
    part = Partition(tuple(tuple(range(q, min(q + 2, n))) for q in range(0, n, 2)))
    return BlockProductState(
        part, tuple(DensityMatrix(len(g), random_density(rng, 2 ** len(g))) for g in part.groups)
    )


def _optimal_global(state, partition):
    povm = pauli6_product(partition.n)
    frames = []
    for g in partition.groups:
        effects = povm.group_effects(g)
        probs = outcome_probabilities(effects, reduced_density(state, g).matrix)
        frames.append(optimal_duals(probs, effects, group=g))
    return GlobalDuals(partition, tuple(frames))


UNEVEN_PARTITIONS = {
    "3+1+4": Partition(((0, 2, 5), (7,), (1, 3, 4, 6))),
    "one-group": Partition(((0, 1, 2),)),
    "odd-n": Partition(((1, 4), (0,), (2, 3))),
}


@pytest.mark.parametrize("kind", ["pure", "density", "block"])
@pytest.mark.parametrize("label", sorted(UNEVEN_PARTITIONS))
def test_outcome_table_matches_fallback(label, kind, monkeypatch):
    # non-factorizing optimal duals on groups that interleave qubits, so the
    # table's block split and its outcome ordering are both exercised
    partition = UNEVEN_PARTITIONS[label]
    n = partition.n
    rng = np.random.default_rng(2024)
    state = _random_state(kind, n, rng)
    povm = pauli6_product(n)
    duals = _optimal_global(state, partition)
    obs = _random_observable(rng, n, 6)
    ds = sample_shots(state, povm, 2000, seed=3)
    got = {}
    for path in estimator_paths(monkeypatch):
        rep = estimate(ds, duals, obs)
        got[path] = (*exact_moments(state, povm, duals, obs), rep.mean, rep.sample_variance)
    assert got["table"] == pytest.approx(got["fallback"], rel=1e-10, abs=1e-12)
    assert got["table"][0] == pytest.approx(exact_expectation(state, obs), abs=1e-10)


SPLIT_CASES = {
    "pure-10": (Partition(((0, 3, 5, 7), (1, 2), (4,), (6, 8, 9))), "pure"),
    "density-9": (Partition(((0, 3, 5), (1, 2), (4, 7), (6, 8))), "density"),
}


@pytest.mark.parametrize("budget", [None, 1 << 11])
@pytest.mark.parametrize("label", sorted(SPLIT_CASES))
def test_split_moments_match_pairwise_grouped_traces(label, budget, monkeypatch):
    # above the limit: distinct half operators, one contraction per A key;
    # the small budget splits a pure state's pairs into several blocks
    if budget is not None:
        monkeypatch.setattr(estimation, "_SPLIT_BYTES", budget)
    partition, kind = SPLIT_CASES[label]
    rng = np.random.default_rng(15)
    state = _random_state(kind, partition.n, rng)
    povm = pauli6_product(partition.n)
    duals = _optimal_global(state, partition)
    obs = _random_observable(rng, partition.n, 30)
    got = exact_moments(state, povm, duals, obs)
    want = pairwise_exact_moments(state, duals, obs)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "kind, budget, keys_per_chunk",
    [
        ("pure", 1 << 15, 1),
        ("pure", 1 << 16, 2),
        ("density", 1 << 15, 1),
        ("density", 1 << 16, 2),
        ("density", None, 64),
    ],
)
def test_split_moments_across_chunk_boundaries(kind, budget, keys_per_chunk, monkeypatch):
    # terms that are the identity on half A share one A tuple, so their pair
    # key meets more M_B2 than one run of entries holds, and the small budget
    # spreads the A keys over many chunks. Unpatched, a density tensor sizes
    # its own chunks: half its 2^22 bytes over 2^15 bytes per key of a 5 + 4
    # qubit split
    if budget is not None:
        monkeypatch.setattr(estimation, "_split_budget", lambda rho: budget)
    partition = SPLIT_CASES["density-9"][0]
    rng = np.random.default_rng(19)
    state = _random_state(kind, 9, rng)
    povm = pauli6_product(9)
    duals = _optimal_global(state, partition)
    words = ["".join(rng.choice(list("IXYZ"), size=9)) for _ in range(36)]
    words = ["".join("I" if q in (0, 1, 2, 3, 5) and t % 2 else ch for q, ch in enumerate(w))
             for t, w in enumerate(words)]
    obs = PauliObservable.from_terms(list(zip(rng.normal(size=len(words)), words)))

    parts, chunks = [], []
    part_keys, kron_rows = estimation._part_keys, estimation._kron_rows

    def part_spy(*args):
        parts.append(part_keys(*args))
        return parts[-1]

    def kron_spy(rows, stacks):
        if parts and stacks is parts[0][2]:
            chunks.append([len(rows), 0])  # an A chunk of len(rows) keys
        elif len(parts) == 3 and stacks is parts[2][2]:
            chunks[-1][1] += 1  # one run of M_B2 in it
        return kron_rows(rows, stacks)

    monkeypatch.setattr(estimation, "_part_keys", part_spy)
    monkeypatch.setattr(estimation, "_kron_rows", kron_spy)
    got = exact_moments(state, povm, duals, obs)
    assert len(chunks) > 1
    assert any(keys == keys_per_chunk and runs > 1 for keys, runs in chunks), chunks
    assert got == pytest.approx(pairwise_exact_moments(state, duals, obs), rel=1e-10)


DEGENERATE_SPLITS = {
    "one-group": Partition(((0, 1, 2),)),  # half A is empty
    "two-groups": Partition(((1,), (0, 2))),
}
DEGENERATE_OBSERVABLES = {
    "single-term": [(0.7, "XYZ")],
    "identity-only": [(-1.3, "III")],
    "identity-and-word": [(0.4, "III"), (1.1, "ZIX")],
}


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("obs_label", sorted(DEGENERATE_OBSERVABLES))
@pytest.mark.parametrize("part_label", sorted(DEGENERATE_SPLITS))
def test_split_kernels_on_degenerate_splits(part_label, obs_label, kind, monkeypatch):
    partition = DEGENERATE_SPLITS[part_label]
    rng = np.random.default_rng(17)
    state = _random_state(kind, 3, rng)
    povm = pauli6_product(3)
    duals = _optimal_global(state, partition)
    obs = PauliObservable.from_terms(DEGENERATE_OBSERVABLES[obs_label])
    ds = sample_shots(state, povm, 500, seed=2)
    want_omega = np.array([omega(shot, duals, obs) for shot in ds.records])
    want = pairwise_exact_moments(state, duals, obs)
    for _ in estimator_paths(monkeypatch):
        assert exact_moments(state, povm, duals, obs) == pytest.approx(want, rel=1e-10, abs=1e-12)
        rep = estimate(ds, duals, obs)
        assert rep.mean == pytest.approx(want_omega.mean(), rel=1e-12, abs=1e-12)
        assert rep.sample_variance == pytest.approx(want_omega.var(), rel=1e-10, abs=1e-12)


def test_split_moments_memory_does_not_grow_with_term_pairs():
    # 16x the term pairs; the split kernel works in chunks of bounded size
    import tracemalloc

    rng = np.random.default_rng(18)
    state = random_pure(rng, 10)
    povm = pauli6_product(10)
    duals = canonical_global(povm)
    peaks = {}
    for n_terms in (40, 160):
        obs = _random_observable(rng, 10, n_terms)
        tracemalloc.start()
        exact_moments(state, povm, duals, obs)
        peaks[n_terms] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[160] < 4 * peaks[40], peaks


def test_rmse_experiment_reproducible(povm2, canonical2):
    zz = PauliObservable.single("ZZ")
    a = rmse_experiment(bell_state(), povm2, canonical2, zz, R=20, S=50, seed=5)
    b = rmse_experiment(bell_state(), povm2, canonical2, zz, R=20, S=50, seed=5)
    c = rmse_experiment(bell_state(), povm2, canonical2, zz, R=20, S=50, seed=6)
    assert a == b
    assert a != c
    assert a > 0


@pytest.mark.parametrize("R", [0, -1])
def test_rmse_experiment_rejects_fewer_than_one_repetition(povm2, canonical2, R):
    zz = PauliObservable.single("ZZ")
    with pytest.raises(ValueError, match="repetition"):
        rmse_experiment(bell_state(), povm2, canonical2, zz, R=R, S=50, seed=5)


def test_rmse_experiment_refuses_repetitions_above_its_cap_before_sampling(monkeypatch, povm2, canonical2):
    def no_plan(*args, **kwargs):
        raise AssertionError("the sampler was planned before the cap check")

    monkeypatch.setattr(estimation, "SamplingPlan", no_plan)
    zz = PauliObservable.single("ZZ")
    cap = estimation.REPETITIONS_CAP
    with pytest.raises(ValueError, match=f"{cap + 1} repetitions exceed the cap {cap}"):
        rmse_experiment(bell_state(), povm2, canonical2, zz, R=cap + 1, S=50, seed=5)


def test_rmse_tracks_predicted_scaling(povm2, canonical2):
    zz = PauliObservable.single("ZZ")
    rmse = rmse_experiment(bell_state(), povm2, canonical2, zz, R=100, S=400, seed=13)
    predicted = np.sqrt(8.0 / 400)
    assert 0.75 * predicted < rmse < 1.25 * predicted


def _rmse_case(name, h2_4q, h2_4q_ground):
    """(state, POVM, duals, observable, R, S) of one harness case."""
    bell_obs = PauliObservable.from_terms([(1.0, "ZZ"), (0.5, "XX"), (-0.3, "YI")])
    bell = (bell_state(), pauli6_product(2), canonical_global(pauli6_product(2)), bell_obs)
    if name == "bell":
        return (*bell, 20, 50)
    if name == "h2-4q-2lo":
        # the table's qubit order, 0 2 1 3, is not the register's
        psi, povm = h2_4q_ground[1], pauli6_product(4)
        part = Partition(((0, 2), (1, 3)))
        duals = GlobalDuals(part, tuple(
            optimal_duals(reduced_density(psi, g).matrix, povm.group_effects(g), group=g) for g in part.groups
        ))
        return psi, povm, duals, h2_4q, 20, 300
    if name == "block-product":
        # the plan walks each pair on its own, not the register-wide tensor
        povm = pauli6_product(4)
        obs = _random_observable(np.random.default_rng(8), 4, 10)
        return bell_pair_chain(2), povm, canonical_global(povm), obs, 10, 200
    if name == "one-group-block-product":
        # one group walks the whole register, from the moments' own Born tensor
        povm = pauli6_product(3)
        obs = _random_observable(np.random.default_rng(7), 3, 8)
        block = DensityMatrix(3, random_density(np.random.default_rng(7), 8))
        return BlockProductState(Partition.single_group(3), (block,)), povm, canonical_global(povm), obs, 10, 200
    if name == "pure-9q":
        # the prefix-tree collapse, in several sub-batches, and the term loop
        povm = pauli6_product(9)
        obs = _random_observable(np.random.default_rng(9), 9, 6)
        return random_pure(np.random.default_rng(9), 9), povm, canonical_global(povm), obs, 4, 300
    if name == "one-repetition":
        return (*bell, 1, 50)
    if name == "batch-not-a-multiple-of-S":
        return (*bell, 50, 3000)
    if name == "S-above-one-batch":
        return (*bell, 2, 2 * sampling.DEFAULT_CHUNK + 4099)
    raise KeyError(name)


@pytest.mark.parametrize("name", [
    "bell", "h2-4q-2lo", "block-product", "one-group-block-product", "pure-9q", "one-repetition",
    "batch-not-a-multiple-of-S", "S-above-one-batch",
])
def test_rmse_experiment_equals_the_per_repetition_loop(name, h2_4q, h2_4q_ground):
    state, povm, duals, obs, R, S = _rmse_case(name, h2_4q, h2_4q_ground)
    got = rmse_experiment(state, povm, duals, obs, R=R, S=S, seed=11)
    assert got == rmse_loop(state, povm, duals, obs, R=R, S=S, seed=11)
    assert got.variance == pytest.approx(exact_variance(state, povm, duals, obs), rel=1e-12)


def test_rmse_experiment_memory_grows_with_neither_repetitions_nor_shots(povm2, canonical2):
    import tracemalloc

    zz = PauliObservable.single("ZZ")

    def peak(R, S):
        tracemalloc.start()
        rmse_experiment(bell_state(), povm2, canonical2, zz, R=R, S=S, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    chunk = sampling.DEFAULT_CHUNK
    # 20 repetitions of 4,096 shots already fill a batch
    assert peak(400, 4096) <= peak(20, 4096) + 256 * 1024
    assert peak(1, 5 * chunk) <= peak(1, chunk + 8) + 256 * 1024


@pytest.mark.parametrize("S, message", [
    (0, "empty dataset"),
    (-1, "empty dataset"),
    (sampling.RECORD_BYTES_CAP // 2 + 1, "bytes of records, above the cap"),
])
def test_rmse_experiment_refuses_a_bad_shot_count_before_any_work(monkeypatch, povm2, canonical2, S, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the harness prepared before checking S")

    monkeypatch.setattr(estimation, "joint_probabilities", no_work)
    monkeypatch.setattr(estimation, "SamplingPlan", no_work)
    zz = PauliObservable.single("ZZ")
    with pytest.raises(ValueError, match=message):
        rmse_experiment(bell_state(), povm2, canonical2, zz, R=10, S=S, seed=5)


def test_exact_variance_above_density_cap_fails_before_dense_build(monkeypatch):
    # 50 qubits: a dense density matrix would need 16 EiB, so the cap must come first
    refuse_dense_builds(monkeypatch)
    state = bell_pair_chain(25)
    povm = pauli6_product(50)
    obs = PauliObservable.from_terms([(1.0, "ZZ" + "I" * 48), (0.5, "I" * 48 + "XX")])
    with pytest.raises(ValueError, match="density cap"):
        exact_variance(state, povm, canonical_global(povm), obs)


def test_block_product_moments_above_the_limit_build_no_register_density(monkeypatch):
    chain = bell_pair_chain(5)  # 10 qubits: the split's density branch
    povm = pauli6_product(10)
    duals = canonical_global(povm)
    obs = _random_observable(np.random.default_rng(41), 10, 12)
    want = exact_moments(chain.density(), povm, duals, obs)
    built = []
    check = DensityMatrix.__post_init__

    def spy(self):
        built.append(self.n)
        check(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", spy)
    got = exact_moments(chain, povm, duals, obs)
    assert built == []
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    assert got.variance == pytest.approx(want.variance, rel=1e-12)


def test_coefficient_cache_rejects_mixed_outcome_counts():
    duals = canonical_global(ProductPOVM((pauli6(), sic4())))
    with pytest.raises(ValueError, match="groups disagree on the per-qubit outcome count"):
        CoefficientCache(duals)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_coefficient_vectors_match_dense_traces(k):
    # the layout takes Tr[D_m P] from coordinates; the dense complex product is the reference
    group = tuple(range(k))
    rho = DensityMatrix(k, random_density(np.random.default_rng(k), 2**k))
    frame = optimal_duals(rho.matrix, pauli6_product(k).group_effects(group), group=group)
    words = ["".join(letters) for letters in itertools.product("IXYZ", repeat=k)]
    obs = PauliObservable.from_terms([(1.0, word) for word in words])
    [(sid, vec)] = CoefficientCache(GlobalDuals(Partition((group,)), (frame,))).layout(obs)
    assert len(vec) == len(words)
    for t, word in enumerate(words):
        want = dense_trace_vector(frame, word)
        assert np.abs(vec[sid[t]] - want).max() <= 1e-12 * np.abs(want).max()


def _tuple_table_case(label):
    """Duals and an observable: the 8-qubit H2 on canonical singletons and on
    4-qubit optimal duals, and a 6-qubit sum of every product of three A and
    four B substrings, where a word of them and a word of a fifth B substring
    merge to zero coefficients."""
    if label == "shared-cancelling":
        rng = np.random.default_rng(8)
        words = [a + b for a in ("XZ", "YY", "IZ") for b in ("ZIXX", "XXII", "IIII", "YZZX")]
        terms = list(zip(rng.normal(size=len(words)), words))
        terms += [(-terms[5][0], words[5]), (0.375, "YYIZZI"), (-0.375, "YYIZZI")]
        obs = PauliObservable.from_terms(terms)
        assert (0.0, words[5]) in obs.terms and (0.0, "YYIZZI") in obs.terms
        povm = pauli6_product(6)
        return canonical_global(povm, Partition(((0, 1), (2, 3), (4, 5)))), obs
    obs = bundled_hamiltonian("h2_631g_8q.txt")
    if label == "canonical-singletons":
        return canonical_global(pauli6_product(8)), obs
    state = random_pure(np.random.default_rng(4), 8)
    return _optimal_global(state, Partition(((0, 2, 4, 6), (1, 3, 5, 7)))), obs


@pytest.mark.parametrize("label", ["canonical-singletons", "4lo-groups-of-4", "shared-cancelling"])
def test_tuple_table_matches_the_per_term_table(label):
    duals, obs = _tuple_table_case(label)
    cache = CoefficientCache(duals)
    got, order = cache.table(obs)
    want = per_term_table(cache, obs)
    assert order == [q for g in duals.partition.groups for q in g]
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
