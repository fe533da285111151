import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icshadows import (
    Dataset,
    MIGraph,
    bell_pair_chain,
    bell_state,
    ghz_state,
    greedy_partition,
    joint_probabilities,
    mi_graph,
    naive_partition,
    pauli6_product,
    product_state,
    resolve_partitioner,
    sample_shots,
)
from icshadows.correlations import PARTITIONERS, _mutual_information

from .oracles import (
    greedy_partition_loop,
    group_mutual_information,
    mi_graph_loop,
    pair_mutual_information,
)


def correlated_records(n, S, d, seed):
    """Random records in which each qubit copies another's outcome on a random share of shots."""
    rng = np.random.default_rng(seed)
    rec = rng.integers(0, d, size=(S, n))
    copy = rng.random((S, n)) < rng.random(n)
    return np.where(copy, rec[:, rng.integers(0, n, size=n)], rec).astype(np.uint8)


# n = 3, 4, 6, 7 sit on either side of Pauli-6's 3-qubit block edges; S = 1 is one shot
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    S=st.integers(1, 400),
    d=st.sampled_from([6, 2]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, S=1, d=6, seed=0)
@example(n=4, S=50, d=6, seed=1)
@example(n=6, S=300, d=6, seed=2)
@example(n=7, S=300, d=6, seed=3)
def test_mi_graph_equals_per_pair_loop(n, S, d, seed):
    ds = Dataset(n=n, d=d, S=S, records=correlated_records(n, S, d, seed), seed=0)
    assert mi_graph(ds).weights.tobytes() == mi_graph_loop(ds).weights.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    S=st.integers(1, 400),
    k=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=7, S=1, k=5, seed=0)
@example(n=10, S=400, k=4, seed=1)
def test_greedy_partition_equals_per_candidate_loop(n, S, k, seed):
    ds = Dataset(n=n, d=6, S=S, records=correlated_records(n, S, 6, seed), seed=0)
    assert greedy_partition(ds, k).groups == greedy_partition_loop(ds, k).groups


def test_greedy_partition_recovers_sampled_bell_pairs_at_50_qubits():
    ds = sample_shots(bell_pair_chain(25), pauli6_product(50), 10**4, seed=8)
    part = greedy_partition(ds, k=2)
    assert part.as_sets() == {frozenset({2 * i, 2 * i + 1}) for i in range(25)}


def test_migraph_symmetrizes_and_clips():
    w = np.array([[0.5, 1.0], [3.0, -2.0]])
    g = MIGraph(2, w)
    assert np.allclose(g.weights, [[0.0, 2.0], [2.0, 0.0]])


def test_plugin_mi_oracles():
    # independent joint: MI = 0
    pa = np.array([0.3, 0.7])
    pb = np.array([0.6, 0.4])
    assert _mutual_information(np.outer(pa, pb)) == pytest.approx(0.0, abs=1e-14)
    # perfectly correlated uniform bits: MI = ln 2
    joint = np.diag([0.5, 0.5])
    assert _mutual_information(joint) == pytest.approx(np.log(2), abs=1e-14)


def bell_pairs_dataset():
    """Shots of two independent Bell pairs, on qubits (0, 1) and (2, 3)."""
    return sample_shots(bell_pair_chain(2), pauli6_product(4), 20_000, seed=3)


def test_pair_mi_symmetric_and_zero_on_products():
    # plug-in MI is positively biased by ~(cells-1)/(2S), 9e-4 here
    ds = sample_shots(product_state("0+"), pauli6_product(2), 20_000, seed=4)
    assert pair_mutual_information(ds, 0, 1) < 2e-3
    ds = sample_shots(bell_state(), pauli6_product(2), 20_000, seed=4)
    assert pair_mutual_information(ds, 0, 1) == pair_mutual_information(ds, 1, 0)
    assert pair_mutual_information(ds, 0, 1) > 0.1


def test_pair_mi_rejects_equal_indices():
    with pytest.raises(ValueError):
        pair_mutual_information(bell_pairs_dataset(), 1, 1)


def test_group_mi_extends_pair_mi():
    ds = sample_shots(ghz_state(3), pauli6_product(3), 5_000, seed=6)
    pair = pair_mutual_information(ds, 0, 2)
    grp = group_mutual_information(ds, [0], 2)
    assert grp == pytest.approx(pair, abs=1e-12)
    with pytest.raises(ValueError, match="already"):
        group_mutual_information(ds, [0, 2], 2)


def test_mi_estimate_converges_to_exact():
    state = bell_state()
    povm = pauli6_product(2)
    exact = _mutual_information(joint_probabilities(state, povm, (0, 1)).reshape(6, 6))
    ds = sample_shots(state, povm, 200_000, seed=12)
    estimated = pair_mutual_information(ds, 0, 1)
    assert abs(estimated - exact) < 5e-3


def test_mi_near_zero_for_sampled_product_state():
    ds = sample_shots(product_state("0+"), pauli6_product(2), 10**6, seed=5)
    # plug-in MI is positively biased by ~(cells-1)/(2S)
    assert pair_mutual_information(ds, 0, 1) < 5e-5


def test_greedy_partition_k1_and_leftovers():
    ds = bell_pairs_dataset()
    assert greedy_partition(ds, k=1).groups == ((0,), (1,), (2,), (3,))
    part3 = greedy_partition(ds, k=3)
    sizes = sorted(len(g) for g in part3.groups)
    assert sizes == [1, 3]


def test_naive_partition_blocks():
    assert naive_partition(5, 2).groups == ((0, 1), (2, 3), (4,))
    assert naive_partition(4, 4).groups == ((0, 1, 2, 3),)
    with pytest.raises(ValueError):
        naive_partition(4, 0)


def test_resolve_partitioner_names_and_callable():
    ds = bell_pairs_dataset()
    pairs = {frozenset({0, 1}), frozenset({2, 3})}
    assert resolve_partitioner("greedy")(ds, 2).as_sets() == pairs
    # naive ignores the MI: consecutive blocks
    assert resolve_partitioner("naive")(ds, 3).groups == ((0, 1, 2), (3,))
    # a name only: a callable is not looked up, nor called
    for spec in ("leiden", "node", "edge", lambda s, k: naive_partition(4, k)):
        with pytest.raises(ValueError, match="unknown partitioner"):
            resolve_partitioner(spec)
    empty = Dataset(n=4, d=6, S=0, records=np.zeros((0, 4), dtype=np.uint8), seed=0)
    for name in PARTITIONERS:
        with pytest.raises(ValueError, match="empty dataset"):
            resolve_partitioner(name)(empty, 2)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 9),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_partitioner_keeps_groups_within_k(n, k, seed):
    ds = Dataset(n=n, d=6, S=200, records=correlated_records(n, 200, 6, seed), seed=0)
    for name in PARTITIONERS:
        part = resolve_partitioner(name)(ds, k)
        assert part.n == n
        assert max(len(g) for g in part.groups) <= k, (name, part.groups)
