import numpy as np
import pytest

from icshadows import (
    Dataset,
    DensityMatrix,
    PureState,
    SamplingPlan,
    bell_pair_chain,
    bell_state,
    ghz_state,
    joint_probabilities,
    marginal_counts,
    maximally_mixed,
    pauli6_product,
    product_state,
    sample_shots,
    shot_uniforms,
)
from icshadows.sampling import flat_codes

from .conftest import random_density


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
        again = sample_shots(plan, povm, 1000, seed=8, workers=workers, chunk=chunk)
        assert again.records.tobytes() == want.records.tobytes()
    with pytest.raises(ValueError, match="another POVM"):
        sample_shots(plan, pauli6_product(5), 10, seed=8)


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
    want = np.einsum("mab,ba->m", effects, rho.matrix).real
    assert np.allclose(probs, want, atol=1e-12)
    assert np.isclose(probs.sum(), 1.0)


def test_joint_probabilities_group_order_transposes():
    rng = np.random.default_rng(15)
    rho = DensityMatrix(2, random_density(rng, 4))
    povm = pauli6_product(2)
    fwd = joint_probabilities(rho, povm, (0, 1)).reshape(6, 6)
    rev = joint_probabilities(rho, povm, (1, 0)).reshape(6, 6)
    assert np.allclose(rev, fwd.T)


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
