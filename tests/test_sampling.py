import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icshadows import (
    BlockProductState,
    Dataset,
    DensityMatrix,
    LocalPOVM,
    Partition,
    PureState,
    SamplingPlan,
    bell_pair_chain,
    bell_state,
    bundled_hamiltonian,
    ghz_state,
    ground_state,
    joint_probabilities,
    marginal_counts,
    maximally_mixed,
    pauli6_product,
    product_state,
    sample_shots,
    shot_uniforms,
)
from icshadows import sampling
from icshadows.algebra import hermitian_stack
from icshadows.povm import ProductPOVM, pauli6
from icshadows.sampling import flat_codes
from icshadows.states import PureState

from .conftest import random_density, random_pure, sic4
from .oracles import (
    prefix_tensors,
    same_bits,
    tensordot_joint_probabilities,
    two_pass_walk_tables,
    walk_chunk,
)


def test_shot_uniforms_chunk_splittable():
    whole = shot_uniforms(seed=5, start=0, count=100, n=3)
    parts = np.vstack(
        [
            shot_uniforms(seed=5, start=0, count=37, n=3),
            shot_uniforms(seed=5, start=37, count=41, n=3),
            shot_uniforms(seed=5, start=78, count=22, n=3),
        ]
    )
    assert np.array_equal(whole, parts)


def test_shot_uniforms_depend_on_seed():
    a = shot_uniforms(seed=1, start=0, count=10, n=2)
    b = shot_uniforms(seed=2, start=0, count=10, n=2)
    assert not np.array_equal(a, b)


def test_dataset_validation():
    with pytest.raises(ValueError, match="shape"):
        Dataset(n=2, d=6, S=3, records=np.zeros((2, 2), dtype=np.uint8), seed=0)
    bad = np.full((3, 2), 6, dtype=np.uint8)
    with pytest.raises(ValueError, match="out of range"):
        Dataset(n=2, d=6, S=3, records=bad, seed=0)


def test_sample_shots_deterministic_across_workers_and_chunks():
    psi = ghz_state(3)
    povm = pauli6_product(3)
    a = sample_shots(psi, povm, 3000, seed=9, workers=1, chunk=512)
    b = sample_shots(psi, povm, 3000, seed=9, workers=4, chunk=512)
    c = sample_shots(psi, povm, 3000, seed=9, workers=1, chunk=3000)
    assert np.array_equal(a.records, b.records)
    assert np.array_equal(a.records, c.records)


@pytest.mark.parametrize("kind", ["pure", "density", "block", "sequential"])
def test_sampling_plan_draw_matches_sample_shots(kind, monkeypatch):
    from icshadows import sampling

    rng = np.random.default_rng(21)
    povm = pauli6_product(4)
    state = {
        "pure": ghz_state(4),
        "density": DensityMatrix(4, random_density(rng, 16)),
        "block": bell_pair_chain(2),
        "sequential": ghz_state(4),
    }[kind]
    if kind == "sequential":
        monkeypatch.setattr(sampling, "JOINT_TENSOR_QUBIT_LIMIT", 0)
    plan = SamplingPlan(state, povm)
    # one plan serves every draw; a draw with a prebuilt plan equals a fresh one
    for workers, chunk in [(1, 256), (4, 256), (1, 1000), (2, 333)]:
        want = sample_shots(state, povm, 1000, seed=8, workers=workers, chunk=chunk)
        got = plan.draw(1000, seed=8, workers=workers, chunk=chunk)
        assert got.records.tobytes() == want.records.tobytes()


def test_sample_shots_pure_and_density_agree():
    # same joint distribution and same uniforms imply identical records
    psi = bell_state()
    povm = pauli6_product(2)
    a = sample_shots(psi, povm, 500, seed=4)
    b = sample_shots(psi.density(), povm, 500, seed=4)
    assert np.array_equal(a.records, b.records)


def test_sample_shots_sequential_fallback_agrees_with_tensor_path():
    # the collapse sampler must draw the same records as the joint walk
    from icshadows import sampling

    psi = product_state("0+r")
    povm = pauli6_product(3)
    fast = sample_shots(psi, povm, 200, seed=6)
    limit, sampling.JOINT_TENSOR_QUBIT_LIMIT = sampling.JOINT_TENSOR_QUBIT_LIMIT, 0
    try:
        slow = sample_shots(psi, povm, 200, seed=6)
    finally:
        sampling.JOINT_TENSOR_QUBIT_LIMIT = limit
    assert np.array_equal(fast.records, slow.records)


def test_sampled_frequencies_approach_born_probabilities():
    psi = bell_state()
    povm = pauli6_product(2)
    ds = sample_shots(psi, povm, 200_000, seed=2)
    freq = marginal_counts(ds, (0, 1)).frequencies
    probs = joint_probabilities(psi, povm, (0, 1))
    assert np.abs(freq - probs).max() < 4e-3


def test_block_product_sampling_is_independent_across_blocks():
    chain = bell_pair_chain(2)
    povm = pauli6_product(4)
    ds = sample_shots(chain, povm, 100_000, seed=3)
    # within-pair outcomes correlate; across pairs they are independent
    f01 = marginal_counts(ds, (0, 1)).frequencies
    want = joint_probabilities(chain, povm, (0, 1))
    assert np.abs(f01 - want).max() < 5e-3


def test_joint_probabilities_match_dense_enumeration():
    rng = np.random.default_rng(14)
    rho = DensityMatrix(2, random_density(rng, 4))
    povm = pauli6_product(2)
    probs = joint_probabilities(rho, povm, (0, 1))
    effects = povm.group_effects((0, 1))
    want = np.einsum("mab,ba->m", hermitian_stack(effects), rho.matrix).real
    assert np.allclose(probs, want, atol=1e-12)
    assert np.isclose(probs.sum(), 1.0)


def test_joint_probabilities_group_order_transposes():
    rng = np.random.default_rng(15)
    rho = DensityMatrix(2, random_density(rng, 4))
    povm = pauli6_product(2)
    fwd = joint_probabilities(rho, povm, (0, 1)).reshape(6, 6)
    rev = joint_probabilities(rho, povm, (1, 0)).reshape(6, 6)
    assert np.allclose(rev, fwd.T)


def test_joint_probabilities_of_the_whole_register_read_the_pure_state(monkeypatch):
    n = 3
    psi = random_pure(np.random.default_rng(16), n)
    povm = pauli6_product(n)
    want = sampling._born_tensor(psi, povm, range(n)).reshape(-1)

    def refuse(*args):
        raise AssertionError("the whole register must not build a density matrix")

    # neither the state's density() nor a density tensor is built
    monkeypatch.setattr(PureState, "density", refuse)
    monkeypatch.setattr(sampling, "density_tensor", refuse)
    assert same_bits(joint_probabilities(psi, povm, range(n)), want)
    # in any listed order
    rev = joint_probabilities(psi, povm, range(n - 1, -1, -1)).reshape((6,) * n)
    assert same_bits(rev.transpose(2, 1, 0).reshape(-1), want)


def test_joint_probabilities_rejects_duplicates_and_oversize():
    povm = pauli6_product(2)
    with pytest.raises(ValueError, match="duplicate"):
        joint_probabilities(bell_state(), povm, (0, 0))
    big = maximally_mixed(10)
    with pytest.raises(ValueError, match="cap"):
        joint_probabilities(big, pauli6_product(10), range(9))


def test_flat_codes_and_marginal_counts_consistent():
    povm = pauli6_product(3)
    ds = sample_shots(ghz_state(3), povm, 1000, seed=1)
    codes = flat_codes(ds, (2, 0))
    assert codes.shape == (1000,)
    want = ds.records[:, 2].astype(np.int64) * 6 + ds.records[:, 0]
    assert np.array_equal(codes, want)
    table = marginal_counts(ds, (2, 0))
    assert table.counts.sum() == 1000
    assert np.array_equal(table.counts, np.bincount(codes, minlength=36))


def test_marginal_counts_rejects_bad_group():
    ds = sample_shots(bell_state(), pauli6_product(2), 10, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        marginal_counts(ds, (0, 5))


def test_sample_shots_qubit_mismatch():
    with pytest.raises(ValueError, match="differ"):
        sample_shots(bell_state(), pauli6_product(3), 10, seed=0)


def depolarized_pauli6():
    """Pauli-6 mixed with white noise: every effect has full rank 2."""
    return LocalPOVM(0.8 * pauli6().effects + 0.2 * np.eye(2) / 6)


def assert_within_sampling_error(freq, probs, S):
    # each cell within 5 binomial standard deviations (plus one count)
    tol = 5.0 * np.sqrt(probs * (1.0 - probs) / S) + 1.0 / S
    assert np.all(np.abs(freq - probs) <= tol)


def test_shot_uniforms_reject_out_of_range_seed():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            shot_uniforms(seed=seed, start=0, count=1, n=2)
    assert shot_uniforms(seed=2**64 - 1, start=0, count=1, n=2).shape == (1, 2)


def test_prefix_tree_collapse_matches_joint_marginals(monkeypatch):
    from icshadows import sampling

    # a random 6-qubit state is entangled across every cut
    psi = random_pure(np.random.default_rng(31), 6)
    povm = pauli6_product(6)
    monkeypatch.setattr(sampling, "JOINT_TENSOR_QUBIT_LIMIT", 0)
    S = 60_000
    ds = sample_shots(psi, povm, S, seed=12)
    for group in [(4, 1), (0, 5, 2)]:
        freq = marginal_counts(ds, group).frequencies
        assert_within_sampling_error(freq, joint_probabilities(psi, povm, group), S)


def test_prefix_tree_collapse_rank_two_effects(monkeypatch):
    from icshadows import sampling

    noisy = depolarized_pauli6()
    factors = sampling._kraus_factors(noisy.effects)
    assert factors.shape == (6, 2, 2)
    assert np.allclose(np.einsum("mja,mjb->mab", factors.conj(), factors), noisy.effects)
    n = 4
    povm = ProductPOVM((noisy,) * n)
    psi = random_pure(np.random.default_rng(32), n)
    S = 40_000
    tensor = sample_shots(psi, povm, S, seed=13)
    monkeypatch.setattr(sampling, "JOINT_TENSOR_QUBIT_LIMIT", 0)
    collapse = sample_shots(psi, povm, S, seed=13)
    # same uniforms, same distribution: records may differ only where
    # rounding moves an inverse-CDF boundary
    assert (tensor.records == collapse.records).all(axis=1).mean() >= 0.999
    for group in [(0, 3), (1, 2, 3)]:
        freq = marginal_counts(collapse, group).frequencies
        assert_within_sampling_error(freq, joint_probabilities(psi, povm, group), S)


def per_shot_collapse(psi, povm, u):
    """Reference sampler: collapse one shot at a time through sqrt(E_m)."""

    def sqrt_psd(e):
        lam, vecs = np.linalg.eigh(e)
        return (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.conj().T

    n = psi.n
    roots = [np.stack([sqrt_psd(e) for e in povm.locals[q].effects]) for q in range(n)]
    out = np.empty(u.shape, dtype=np.uint8)
    for s in range(len(u)):
        t = psi.amplitudes.reshape((2,) * n)
        for q in range(n):
            branches = np.moveaxis(np.tensordot(roots[q], t, axes=([2], [q])), 1, q + 1)
            flat = branches.reshape(len(branches), -1)
            probs = np.einsum("mi,mi->m", flat, flat.conj()).real
            cdf = np.cumsum(probs)
            m = min(int((cdf <= u[s, q] * cdf[-1]).sum()), len(cdf) - 1)
            t = branches[m] / np.sqrt(probs[m])
            out[s, q] = m
    return out


def test_prefix_tree_collapse_matches_per_shot_reference():
    n, S = 10, 300
    psi = random_pure(np.random.default_rng(35), n)
    povm = pauli6_product(n)
    want = per_shot_collapse(psi, povm, shot_uniforms(seed=16, start=0, count=S, n=n))
    got = sample_shots(psi, povm, S, seed=16).records
    # the two sum probabilities in different orders, so a draw may flip
    # where its uniform lies within rounding of a CDF boundary
    assert (got == want).all(axis=1).mean() >= 0.99


def test_prefix_tree_collapse_layout_invariant_at_ten_qubits():
    from icshadows import sampling

    psi = random_pure(np.random.default_rng(33), 10)
    plan = SamplingPlan(psi, pauli6_product(10))
    step = sampling._COLLAPSE_AMPLITUDES >> 10
    layouts = [(1, 5000), (2, 777), (1, 333)]
    assert all(chunk % step for _, chunk in layouts)
    want = plan.draw(5000, seed=14, workers=1, chunk=5000).records.tobytes()
    for workers, chunk in layouts[1:]:
        got = plan.draw(5000, seed=14, workers=workers, chunk=chunk)
        assert got.records.tobytes() == want


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_prefix_tree_collapse_rejects_zero_norm(fill):
    # PureState validation would refuse this vector, so bypass it
    psi = object.__new__(PureState)
    object.__setattr__(psi, "n", 10)
    object.__setattr__(psi, "amplitudes", np.full(2**10, fill, dtype=complex))
    plan = SamplingPlan(psi, pauli6_product(10))
    with pytest.raises(ValueError, match="zero-norm"):
        plan.draw(10, seed=0)


def test_prefix_tree_collapse_memory_does_not_grow_with_shots():
    import tracemalloc

    n = 10
    plan = SamplingPlan(random_pure(np.random.default_rng(34), n), pauli6_product(n))
    # O(S n) that any sampler holds: uniforms padded to 4-word blocks, records
    per_shot = 8 * 4 * ((n + 3) // 4) + n
    work = []
    for S in (2000, 20_000):
        tracemalloc.start()
        try:
            plan.draw(S, seed=15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        work.append(peak - S * per_shot)
    # tolerance: sub-batches differ in their count of distinct prefixes
    assert work[1] <= work[0] + 256 * 1024


# the largest double below 1: the walk's threshold can round up to the row total
U_MAX = 1.0 - 2.0**-53


@st.composite
def walk_cases(draw):
    """A joint tensor with zero entries and zero rows, and uniforms on its CDF edges."""
    d = draw(st.sampled_from([4, 6]))
    k = draw(st.integers(1, 4))
    integral = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # small integers sum exactly in any order, so CDF ties are exact
    joint = rng.integers(0, 4, size=(d,) * k).astype(float) if integral else rng.random((d,) * k)
    joint[rng.random(joint.shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    rows = joint.reshape(-1, d)
    rows[rng.integers(0, len(rows), size=draw(st.integers(0, 3)))] = 0.0
    if k > 1 and draw(st.booleans()):
        joint[rng.integers(0, d)] = 0.0  # a whole zero subtree
    total = joint.sum()
    if integral:
        # a power-of-two total makes u = cdf / total exact at the first level
        joint.flat[-1] += 2.0 ** np.ceil(np.log2(max(total, 1.0))) - total
    elif total == 0.0:
        joint.flat[rng.integers(0, joint.size)] = 1.0
    prefixes = prefix_tensors(joint)
    S = draw(st.integers(1, 60))
    u = rng.random((S, k))
    kind = rng.integers(0, 4, size=(S, k))
    u[kind == 0] = 0.0
    u[kind == 1] = U_MAX
    for i in range(k):
        # u at which u * total meets an entry of some row's CDF (exactly, where sums are)
        cdf = np.cumsum(prefixes[i + 1], axis=-1).reshape(-1, d)
        tot = prefixes[i].reshape(-1)
        row = rng.integers(0, len(tot), size=S)
        edge = cdf[row, rng.integers(0, d, size=S)] / np.where(tot[row] > 0, tot[row], 1.0)
        u[:, i] = np.where(kind[:, i] == 2, np.minimum(edge, U_MAX), u[:, i])
    return joint, u


def assert_walk_tables_are_the_two_pass_ones(joint):
    """Each level's CDF has the bytes of the two-pass tables' CDF, and its
    rows' last entries the bytes of their prefix totals."""
    got, want = sampling._walk_tables(joint.copy()), two_pass_walk_tables(joint.copy())
    assert len(got) == len(want)
    for (cdf, d), (totals, want_cdf, want_d) in zip(got, want):
        assert d == want_d
        assert cdf.tobytes() == want_cdf.tobytes()
        assert cdf[d - 1 :: d].tobytes() == totals.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=walk_cases())
def test_cdf_table_walk_matches_prefix_row_walk(case):
    joint, u = case
    want = walk_chunk(prefix_tensors(joint), u)
    # the tables take the joint's running sums in place, so hand them a copy
    got = sampling._walk_chunk(sampling._walk_tables(joint.copy()), u)
    assert got.tobytes() == want.tobytes()
    assert_walk_tables_are_the_two_pass_ones(joint)


def test_eight_qubit_h2_walk_tables_are_the_two_pass_ones():
    psi = ground_state(bundled_hamiltonian("h2_631g_8q.txt"))[1]
    joint = joint_probabilities(psi, pauli6_product(8), range(8)).reshape((6,) * 8)
    assert_walk_tables_are_the_two_pass_ones(joint)


@pytest.mark.parametrize("where", ["entry", "all"])
def test_walk_tables_refuse_a_nan_mass(where):
    # NaN <= 0 is False: a NaN mass once passed and walked to all-zero records
    joint = np.full((6, 6, 6), 1 / 216)
    if where == "entry":
        joint[3, 1, 4] = np.nan
    else:
        joint[:] = np.nan
    with pytest.raises(ValueError, match="no outcome mass"):
        sampling._walk_tables(joint)


def oracle_draw(state, povm, S, seed):
    """Records of the prefix-row walk on the tensordot tensor, one block at a time."""
    u = shot_uniforms(seed, 0, S, povm.n)
    out = np.empty((S, povm.n), dtype=np.uint8)
    if isinstance(state, BlockProductState):
        for g, b in zip(state.partition.groups, state.blocks):
            joint = tensordot_joint_probabilities(b.matrix, povm, g)
            out[:, list(g)] = walk_chunk(prefix_tensors(joint), u[:, list(g)])
        return out
    joint = tensordot_joint_probabilities(state.density().matrix, povm, range(povm.n))
    return walk_chunk(prefix_tensors(joint), u)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["pure", "density", "block"]),
    d=st.sampled_from([4, 6]),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
    S=st.integers(1, 1500),
    chunk=st.integers(1, 700),
)
def test_plan_draw_matches_prefix_row_walk(kind, d, n, seed, S, chunk):
    rng = np.random.default_rng(seed % 2**32)
    povm = ProductPOVM(((sic4() if d == 4 else pauli6()),) * n)
    if kind == "pure":
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = PureState(n, v / np.linalg.norm(v))
    elif kind == "density":
        state = DensityMatrix(n, random_density(rng, 2**n))
    else:
        # up to three groups of shuffled qubits
        cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, 2), replace=False))
        groups = [tuple(sorted(int(q) for q in g)) for g in np.split(rng.permutation(n), cuts)]
        blocks = [DensityMatrix(len(g), random_density(rng, 2 ** len(g))) for g in groups]
        state = BlockProductState(Partition(tuple(groups)), tuple(blocks))
    plan = SamplingPlan(state, povm)
    want = oracle_draw(state, povm, S, seed).tobytes()
    assert plan.draw(S, seed).records.tobytes() == want
    assert plan.draw(S, seed, workers=2, chunk=chunk).records.tobytes() == want


def test_eight_qubit_plan_memory_stays_at_the_prefix_tensors():
    import tracemalloc

    n = 8
    psi = random_pure(np.random.default_rng(36), n)
    povm = pauli6_product(n)
    SamplingPlan(psi, povm)  # warm caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan = SamplingPlan(psi, povm)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
        del plan
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        prefixes = prefix_tensors(joint_probabilities(psi, povm, range(n)).reshape(povm.dims))
        old_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    old_held = sum(p.nbytes for p in prefixes)
    joint = prefixes[-1].nbytes
    slack = 64 * 1024  # array and tuple headers
    # the joint's CDF replaces it; only the smaller levels (a fifth of it) are held twice
    assert held <= old_held + joint // 5 + slack
    # the CDF is taken in place: planning makes no transient copy of the joint
    assert peak <= old_peak + joint // 5 + slack


@pytest.mark.parametrize("n", range(1, 9))
def test_born_kernel_matches_tensordot_oracle(n):
    rng = np.random.default_rng(100 + n)
    psi = random_pure(rng, n)
    noisy = depolarized_pauli6()
    assert sampling._kraus_factors(noisy.effects).shape[1] == 2  # takes the density route
    cases = [
        (psi, pauli6_product(n)),
        (psi, ProductPOVM((sic4(),) * n)),
        (psi, ProductPOVM((noisy,) * n)),
        (DensityMatrix(n, random_density(rng, 2**n)), pauli6_product(n)),
    ]
    for state, povm in cases:
        want = tensordot_joint_probabilities(state.density().matrix, povm, range(n))
        got = joint_probabilities(state, povm, range(n)).reshape(povm.dims)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15
    # blocks of a block-product state, each on its own (shuffled) qubits
    povm = ProductPOVM(tuple(rng.permutation([pauli6(), sic4(), pauli6()] * 3)[:n]))
    groups = [tuple(sorted(int(q) for q in g)) for g in np.array_split(rng.permutation(n), 2)]
    groups = [g for g in groups if g]
    blocks = [DensityMatrix(len(g), random_density(rng, 2 ** len(g))) for g in groups]
    chain = BlockProductState(Partition(tuple(groups)), tuple(blocks))
    for g, b in zip(groups, blocks):
        want = tensordot_joint_probabilities(b.matrix, povm, g)
        assert np.abs(sampling._born_tensor(chain, povm, g) - want).max() <= 1e-15
    want = tensordot_joint_probabilities(chain.density().matrix, povm, range(n))
    got = joint_probabilities(chain, povm, range(n)).reshape(povm.dims)
    assert np.abs(got - want).max() <= 1e-15
    # a group in shuffled order: the flat index runs over the listed order
    group = [int(q) for q in rng.permutation(n)]
    srt = sorted(group)
    want = tensordot_joint_probabilities(psi.density().matrix, pauli6_product(n), srt)
    want = want.transpose([srt.index(q) for q in group]).reshape(-1)
    assert np.abs(joint_probabilities(psi, pauli6_product(n), group) - want).max() <= 1e-15


def test_pure_born_tensor_peak_memory_is_below_the_oracle():
    import tracemalloc

    n = 8
    psi = random_pure(np.random.default_rng(37), n)
    povm = pauli6_product(n)
    joint_probabilities(psi, povm, range(n))  # warm caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        joint_probabilities(psi, povm, range(n))
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        tensordot_joint_probabilities(rho, povm, range(n))
        oracle_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < oracle_peak


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eight_qubit_h2_records_match_the_oracle_walk(seed):
    psi = ground_state(bundled_hamiltonian("h2_631g_8q.txt"))[1]
    povm = pauli6_product(8)
    got = SamplingPlan(psi, povm).draw(10**5, seed).records
    assert got.tobytes() == oracle_draw(psi, povm, 10**5, seed).tobytes()


def test_draw_rejects_records_above_the_cap_before_allocating(monkeypatch):
    class NoAllocation:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, *args, **kwargs):
            raise AssertionError("allocated before the size check")

    povm = pauli6_product(2)
    plan = SamplingPlan(bell_state(), povm)
    monkeypatch.setattr(sampling, "np", NoAllocation())
    for S in (10**12, sampling.RECORD_BYTES_CAP // 2 + 1):
        with pytest.raises(ValueError, match="cap"):
            plan.draw(S, seed=0)
    with pytest.raises(ValueError, match="cap"):
        plan.draw(10**15, seed=0, workers=10**15)


@pytest.mark.parametrize(
    "workers, cpus, S, chunk, pool",
    [
        (10**6, 64, 10, 4, 3),  # clamped to the chunk count
        (10**6, 2, 10, 4, 2),  # clamped to the CPU count
        (10**6, None, 10, 4, None),  # unknown CPU count: serial
        (8, 64, 10, 100, None),  # one chunk: serial
    ],
)
def test_draw_clamps_workers_to_chunks_and_cpus(monkeypatch, workers, cpus, S, chunk, pool):
    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(sampling.os, "cpu_count", lambda: cpus)
    plan = SamplingPlan(ghz_state(3), pauli6_product(3))
    got = plan.draw(S, seed=5, workers=workers, chunk=chunk)
    assert made == ([] if pool is None else [pool])
    assert got.records.tobytes() == plan.draw(S, seed=5).records.tobytes()


@pytest.mark.parametrize("n", [10, sampling._COLLAPSE_THREAD_QUBITS])
def test_collapse_threads_only_from_the_qubit_threshold(n, monkeypatch):
    # above the limit a pure state is collapsed down the prefix tree, where a
    # second thread costs time below the threshold; records never depend on it
    pools = []
    pool_class = sampling.ThreadPoolExecutor

    def counted_pool(*args, **kwargs):
        pools.append(kwargs.get("max_workers"))
        return pool_class(*args, **kwargs)

    plan = SamplingPlan(random_pure(np.random.default_rng(8), n), pauli6_product(n))
    want = plan.draw(40, seed=9, chunk=10).records.tobytes()
    monkeypatch.setattr(sampling, "ThreadPoolExecutor", counted_pool)
    monkeypatch.setattr(sampling.os, "cpu_count", lambda: 4)
    assert plan.draw(40, seed=9, workers=2, chunk=10).records.tobytes() == want
    assert pools == ([] if n < sampling._COLLAPSE_THREAD_QUBITS else [2])


def test_plan_looks_up_the_povm_identifier_once(monkeypatch):
    calls = []
    identifier = ProductPOVM.identifier

    def counted(self):
        calls.append(1)
        return identifier.fget(self)

    monkeypatch.setattr(ProductPOVM, "identifier", property(counted))
    plan = SamplingPlan(bell_state(), pauli6_product(2))
    for seed in range(3):
        assert plan.draw(10, seed).povm_id == "pauli6"
    assert len(calls) == 1


def test_sampling_plan_rejects_what_it_cannot_sample():
    with pytest.raises(ValueError, match="uniform outcome count per qubit"):
        SamplingPlan(bell_state(), ProductPOVM((pauli6(), sic4())))
    nine = maximally_mixed(9)
    chain = BlockProductState(Partition((tuple(range(9)), (9,))), (nine, maximally_mixed(1)))
    with pytest.raises(ValueError, match="block too large for the joint-tensor sampler"):
        SamplingPlan(chain, pauli6_product(10))
    # one group is refused as its block is
    for state in (nine, BlockProductState(Partition.single_group(9), (nine,))):
        with pytest.raises(ValueError, match="density matrices above the joint-tensor limit"):
            SamplingPlan(state, pauli6_product(9))


def test_one_group_block_product_draws_the_records_of_its_block():
    # one group is one plan, whatever the state kind: the whole-register walk
    block = DensityMatrix(3, random_density(np.random.default_rng(29), 8))
    one = BlockProductState(Partition.single_group(3), (block,))
    povm = pauli6_product(3)
    for workers, chunk in ((1, 65536), (2, 700)):
        want = sample_shots(block, povm, 3000, seed=12, workers=workers, chunk=chunk)
        got = sample_shots(one, povm, 3000, seed=12, workers=workers, chunk=chunk)
        assert got.records.tobytes() == want.records.tobytes()
