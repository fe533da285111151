import numpy as np
import pytest

from icshadows import (
    BlockProductState,
    DensityMatrix,
    Partition,
    PauliObservable,
    PureState,
    bell_pair_chain,
    bell_state,
    bundled_hamiltonian,
    ghz_state,
    ground_state,
    maximally_mixed,
    product_state,
    reduced_density,
    toy_mixed,
    toy_pure,
)
from icshadows.algebra import partial_trace
from icshadows.io import QUBIT_FIELD_MAX
from icshadows.states import BELL_PAIRS_CAP, reorder_qubits

from .conftest import grouped_product_state, random_density
from .oracles import kron_matrix, outcome_probability, same_bits, tfim_ring


def test_pure_state_validation():
    with pytest.raises(ValueError, match="not normalized"):
        PureState(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="not 2\\^n"):
        PureState(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="not normalized"):
        PureState(1, np.array([np.nan, 0.0]))
    # the squared norm, the density's trace, is what must be 1 within NORM_TOL
    with pytest.raises(ValueError, match="not normalized"):
        PureState(1, np.array([1 + 0.9e-10, 0.0]))
    near = PureState(1, np.array([1 + 0.4e-10, 0.0]))
    assert near.density().matrix[0, 0].real == pytest.approx(1.0, abs=1e-10)


def test_density_validation():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(1, 2.0 * np.eye(2))
    with pytest.raises(ValueError, match="PSD"):
        DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))


def test_density_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(1, np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(1, np.diag([np.inf, 0.0]))


def test_bell_and_ghz_amplitudes():
    b = bell_state()
    assert np.allclose(b.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))
    g = ghz_state(3)
    want = np.zeros(8)
    want[0] = want[7] = 1 / np.sqrt(2)
    assert np.allclose(g.amplitudes, want)


def test_product_state_characters():
    s = product_state("0+r")
    z0 = np.array([1, 0])
    plus = np.array([1, 1]) / np.sqrt(2)
    right = np.array([1, 1j]) / np.sqrt(2)
    want = np.kron(np.kron(z0, plus), right)
    assert np.allclose(s.amplitudes, want)
    with pytest.raises(ValueError):
        product_state("0q")


def test_reduced_density_matches_partial_trace():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 8)
    state = DensityMatrix(3, rho)
    for keep in ([0], [2], [0, 2], [1, 2]):
        assert np.allclose(
            reduced_density(state, keep).matrix, partial_trace(rho, keep)
        )


def test_reduced_density_of_pure_state():
    rho = reduced_density(bell_state(), [0])
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_block_product_density_respects_qubit_labels():
    # blocks on groups (1,) and (0, 2): the kron order must be undone
    rng = np.random.default_rng(11)
    b1 = DensityMatrix(1, random_density(rng, 2))
    b02 = DensityMatrix(2, random_density(rng, 4))
    state = BlockProductState(Partition(((1,), (0, 2))), (b1, b02))
    full = state.density().matrix
    assert np.allclose(partial_trace(full, [1]), b1.matrix, atol=1e-12)
    assert np.allclose(partial_trace(full, [0, 2]), b02.matrix, atol=1e-12)


def test_reorder_qubits_identity_when_sorted():
    rng = np.random.default_rng(12)
    op = rng.normal(size=(8, 8))
    assert np.allclose(reorder_qubits(op, [0, 1, 2]), op)


def test_grouped_product_state_marginals():
    psi = ghz_state(4)
    gp = grouped_product_state(psi, Partition(((0, 1), (2, 3))))
    for group, block in zip(gp.partition.groups, gp.blocks):
        assert np.allclose(block.matrix, reduced_density(psi, group).matrix)


def test_ground_state_of_z():
    energy, psi = ground_state(PauliObservable.single("Z"))
    assert energy == pytest.approx(-1.0)
    assert abs(psi.amplitudes[1]) == pytest.approx(1.0)


def test_ground_state_matches_dense_diagonalization(h2_4q, h2_4q_ground):
    energy, psi = h2_4q_ground
    evals = np.linalg.eigvalsh(h2_4q.matrix())
    assert energy == pytest.approx(evals[0], abs=1e-10)
    resid = h2_4q.apply(psi.amplitudes) - energy * psi.amplitudes
    assert np.abs(resid).max() < 1e-8


def test_outcome_probability_normalizes(povm2):
    psi = bell_state()
    total = sum(
        outcome_probability(psi, povm2, (a, b)) for a in range(6) for b in range(6)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_toy_families():
    assert np.allclose(toy_mixed(0.25).matrix, np.diag([0.75, 0, 0, 0.25]))
    amps = toy_pure(0.6).amplitudes
    assert amps[0] == pytest.approx(0.8)
    assert amps[3] == pytest.approx(0.6)
    with pytest.raises(ValueError):
        toy_mixed(1.5)
    with pytest.raises(ValueError):
        toy_pure(-0.1)


def test_maximally_mixed():
    assert np.allclose(maximally_mixed(2).matrix, np.eye(4) / 4)


def test_bell_pair_chain_structure():
    chain = bell_pair_chain(2)
    assert chain.partition.groups == ((0, 1), (2, 3))
    bell = bell_state().density().matrix
    for block in chain.blocks:
        assert np.allclose(block.matrix, bell)


@pytest.mark.parametrize("pairs", [0, -1, BELL_PAIRS_CAP + 1, 33_000, 10**15])
def test_bell_pair_chain_checks_its_size_first(monkeypatch, pairs):
    from icshadows import states

    def no_build(*args, **kwargs):
        raise AssertionError("a partition was built before the size check")

    monkeypatch.setattr(states, "Partition", no_build)
    with pytest.raises(ValueError, match="Bell-pair chain cap"):
        bell_pair_chain(pairs)


def test_bell_pair_chain_cap_fits_the_file_qubit_field():
    assert 2 * BELL_PAIRS_CAP <= QUBIT_FIELD_MAX < 2 * (BELL_PAIRS_CAP + 1)


def test_statevector_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        PureState(15, np.zeros(2**15))


def test_ground_state_of_bundled_8q_equals_oracle_eigh():
    obs = bundled_hamiltonian("h2_631g_8q.txt")
    evals, evecs = np.linalg.eigh(kron_matrix(obs))
    energy, psi = ground_state(obs)
    assert energy == float(evals[0])
    assert same_bits(psi.amplitudes, evecs[:, 0])


def test_ground_state_above_dense_limit_matches_oracle_eigh():
    obs = tfim_ring(10, seed=3)
    evals, evecs = np.linalg.eigh(kron_matrix(obs))
    energy, psi = ground_state(obs)
    assert energy == pytest.approx(evals[0], abs=1e-10)
    assert abs(np.vdot(evecs[:, 0], psi.amplitudes)) >= 1 - 1e-10


def test_ground_state_above_dense_limit_is_reproducible():
    obs = tfim_ring(9, seed=3)
    first, second = ground_state(obs), ground_state(obs)
    assert first[0] == second[0]
    assert same_bits(first[1].amplitudes, second[1].amplitudes)


def test_density_cap_checked_before_any_dense_work(monkeypatch):
    from icshadows import states

    def dense_build(*args):
        raise AssertionError("dense work reached above the density cap")

    chain = bell_pair_chain(7)  # 14 qubits
    monkeypatch.setattr(states, "kron_all", dense_build)
    monkeypatch.setattr(states, "hermitianize", dense_build)
    with pytest.raises(ValueError, match="density cap"):
        chain.density()
    with pytest.raises(ValueError, match="density cap"):
        reduced_density(chain, range(14))
    with pytest.raises(ValueError, match="density cap"):
        DensityMatrix(13, np.zeros((1, 1)))

