import os
import subprocess
import sys

import numpy as np
import pytest

import icshadows
from icshadows import (
    BlockProductState,
    DensityMatrix,
    Partition,
    PauliObservable,
    PureState,
    SamplingPlan,
    bell_pair_chain,
    bell_state,
    bundled_hamiltonian,
    ghz_state,
    ground_state,
    maximally_mixed,
    pauli6_product,
    product_state,
    reduced_density,
    toy_mixed,
    toy_pure,
)
from icshadows.io import QUBIT_FIELD_MAX
from icshadows.states import BELL_PAIRS_CAP, density_tensor

from .conftest import grouped_product_state, random_density, random_pure, refuse_dense_builds
from .oracles import (
    kron_all,
    kron_matrix,
    outcome_probability,
    partial_trace,
    reorder_qubits,
    same_bits,
    tfim_ring,
)


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


def _state_kinds(rng):
    """A pure, a dense and a block-product state of five qubits, each with
    its full density matrix built by the oracles."""
    psi = random_pure(rng, 5)
    rho = DensityMatrix(5, random_density(rng, 32))
    groups = ((0, 3), (1,), (2, 4))
    blocks = tuple(DensityMatrix(len(g), random_density(rng, 2 ** len(g))) for g in groups)
    chain = BlockProductState(Partition(groups), blocks)
    chain_full = reorder_qubits(kron_all(b.matrix for b in blocks), [0, 3, 1, 2, 4])
    return [
        (psi, np.outer(psi.amplitudes, psi.amplitudes.conj())),
        (rho, rho.matrix),
        (chain, chain_full),
    ]


def test_reduced_density_matches_partial_trace():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 8)
    state = DensityMatrix(3, rho)
    for keep in ([0], [2], [0, 2], [1, 2]):
        assert np.allclose(
            reduced_density(state, keep).matrix, partial_trace(rho, keep)
        )
    # every state kind, groups given out of order
    for state, full in _state_kinds(np.random.default_rng(14)):
        for keep in ([0], [4, 0], [3, 1, 2], [2, 4, 0, 3], [4, 3, 2, 1, 0]):
            got = reduced_density(state, keep).matrix
            assert np.abs(got - partial_trace(full, keep)).max() <= 1e-12


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


def test_density_tensor_axes_follow_the_listed_order():
    for state, full in _state_kinds(np.random.default_rng(15)):
        keep = [1, 3, 4]
        axes = [(3, 1), (1, 0), (4, 0), (3, 0), (4, 1), (1, 1)]
        # the oracle's reduced matrix has rows (1, 3, 4) then columns (1, 3, 4)
        want = partial_trace(full, keep).reshape((2,) * 6)
        want = want.transpose([3 * side + keep.index(q) for q, side in axes])
        assert np.abs(density_tensor(state, axes) - want).max() <= 1e-12
        assert density_tensor(state, []) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(TypeError, match="unsupported state type"):
        density_tensor(np.eye(2), [])


def test_density_tensor_is_contiguous_so_the_split_reshape_is_a_view():
    # the split moments' layout: columns then rows of one half, then of the
    # other, which interleaves the state's own row and column axes
    halves = ([0, 2, 4], [1, 3])
    axes = [(q, side) for half in halves for side in (1, 0) for q in half]
    for state, _ in _state_kinds(np.random.default_rng(16)):
        t = density_tensor(state, axes)
        assert t.flags.c_contiguous
        assert np.shares_memory(t, t.reshape(8 * 8, -1))


@pytest.mark.parametrize(
    "axes, message",
    [
        ([(0, 0)], "one row axis and one column axis"),
        ([(0, 0), (0, 0), (0, 1)], "one row axis and one column axis"),
        ([(0, 0), (0, 2)], "one row axis and one column axis"),
        ([(5, 0), (5, 1)], "out of range"),
        ([(q, side) for q in range(13) for side in (0, 1)], "13 qubits exceeds the density cap"),
    ],
)
def test_density_tensor_rejects_bad_axes(axes, message):
    with pytest.raises(ValueError, match=message):
        density_tensor(bell_pair_chain(7) if len(axes) > 24 else ghz_state(5), axes)


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
    evals = np.linalg.eigvalsh(kron_matrix(h2_4q))
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
    assert energy == pytest.approx(evals[0], abs=1e-10)
    assert abs(np.vdot(evecs[:, 0], psi.amplitudes)) >= 1 - 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ground_state_of_bundled_8q_draws_the_oracle_eigh_records(seed):
    # the two eigenvectors differ by a global phase and round-off, which must
    # not move a shot: datasets drawn from the ground state stay byte-identical
    obs = bundled_hamiltonian("h2_631g_8q.txt")
    _, evecs = np.linalg.eigh(kron_matrix(obs))
    povm = pauli6_product(8)
    psi = ground_state(obs)[1]
    draws = [SamplingPlan(s, povm).draw(10**5, seed).records for s in (psi, PureState(8, evecs[:, 0]))]
    assert np.array_equal(*draws)


def test_ground_state_above_dense_limit_matches_oracle_eigh():
    obs = tfim_ring(10, seed=3)
    evals, evecs = np.linalg.eigh(kron_matrix(obs))
    energy, psi = ground_state(obs)
    assert energy == pytest.approx(evals[0], abs=1e-10)
    assert abs(np.vdot(evecs[:, 0], psi.amplitudes)) >= 1 - 1e-10


def test_ground_state_refuses_registers_above_its_cap():
    with pytest.raises(ValueError, match="13 qubits exceeds the ground-state cap 12"):
        ground_state(PauliObservable.single("Z" * 13))


@pytest.mark.parametrize(
    "obs",
    [
        pytest.param(bundled_hamiltonian("h2_sto3g_4q.txt"), id="h2-4q"),
        pytest.param(bundled_hamiltonian("h2_631g_8q.txt"), id="h2-8q"),
        pytest.param(tfim_ring(9, seed=3), id="tfim-9"),
    ],
)
def test_ground_state_is_reproducible(obs):
    first, second = ground_state(obs), ground_state(obs)
    assert first[0] == second[0]
    assert same_bits(first[1].amplitudes, second[1].amplitudes)


def _ring(n: int, coupling: float, field: float) -> PauliObservable:
    """Uniform TFIM ring -J sum Z_q Z_q+1 - h sum X_q."""
    bonds = [(-coupling, "".join("Z" if k in (q, (q + 1) % n) else "I" for k in range(n))) for q in range(n)]
    fields = [(-field, "".join("X" if k == q else "I" for k in range(n))) for q in range(n)]
    return PauliObservable(n, tuple(bonds + fields))


def _complex_sum(n: int, terms: int, seed: int) -> PauliObservable:
    """Random Pauli sum with a Y in every word; a word with an odd count of Y
    has imaginary entries."""
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(terms):
        word = rng.choice(list("IXYZ"), n)
        word[rng.integers(n)] = "Y"
        words.append((rng.standard_normal(), "".join(word)))
    return PauliObservable(n, tuple(words))


def _residual(obs, energy, psi) -> float:
    return float(np.linalg.norm(obs.apply(psi.amplitudes) - energy * psi.amplitudes))


def test_ground_state_resolves_a_near_degenerate_ferromagnet():
    # the two lowest levels of the J = 1, h = 0.1 ring are 3.7e-11 apart; the
    # start vector's mixture of them has a residual near 1.6e-11, above the
    # 1e-11 bound, so the solve must separate them
    obs = _ring(10, 1.0, 0.1)
    evals = np.linalg.eigvalsh(kron_matrix(obs))
    assert evals[1] - evals[0] < 1e-10
    energy, psi = ground_state(obs)
    assert energy == pytest.approx(evals[0], abs=1e-10)
    assert _residual(obs, energy, psi) <= 1e-12 * max(1.0, abs(energy))


@pytest.mark.parametrize("n, terms", [(9, 40), (10, 60)])
def test_ground_state_of_random_complex_sums_matches_oracle_eigh(n, terms):
    obs = _complex_sum(n, terms, seed=n)
    matrix = kron_matrix(obs)
    assert np.abs(matrix.imag).max() > 0
    evals, evecs = np.linalg.eigh(matrix)
    energy, psi = ground_state(obs)
    assert energy == pytest.approx(evals[0], abs=1e-10)
    assert abs(np.vdot(evecs[:, 0], psi.amplitudes)) >= 1 - 1e-10
    assert _residual(obs, energy, psi) <= 1e-12 * max(1.0, abs(energy))


def test_ground_state_of_a_12_qubit_complex_sum_matches_oracle_eigh():
    # two uncoupled 6-qubit halves, so the dense oracle is two 64 x 64 eighs:
    # the energy is the sum of theirs and the state the product of theirs
    halves = [_complex_sum(6, 30, seed) for seed in (12, 13)]
    obs = PauliObservable(
        12,
        tuple((c, w + "I" * 6) for c, w in halves[0].terms)
        + tuple((c, "I" * 6 + w) for c, w in halves[1].terms),
    )
    (ea, va), (eb, vb) = (np.linalg.eigh(kron_matrix(h)) for h in halves)
    assert min(ea[1] - ea[0], eb[1] - eb[0]) > 1e-3
    energy, psi = ground_state(obs)
    assert energy == pytest.approx(ea[0] + eb[0], abs=1e-10)
    assert abs(np.vdot(np.kron(va[:, 0], vb[:, 0]), psi.amplitudes)) >= 1 - 1e-10
    assert _residual(obs, energy, psi) <= 1e-12 * max(1.0, abs(energy))


def test_lanczos_stops_at_the_zero_maps_invariant_subspace():
    from icshadows.states import _lanczos

    calls = []

    def zero(vec):
        calls.append(1)
        return np.zeros_like(vec)

    v0 = np.arange(1.0, 513.0) + 1j
    energy, x = _lanczos(zero, v0)
    # one basis step finds nothing new; one more application checks the pair
    assert len(calls) == 2
    assert energy == 0.0
    assert np.allclose(x, v0 / np.linalg.norm(v0), rtol=0, atol=1e-15)
    energy, psi = ground_state(PauliObservable(9, ((0.0, "I" * 9),)))
    assert energy == 0.0
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_ground_state_raises_when_it_does_not_converge(monkeypatch):
    from icshadows import states

    monkeypatch.setattr(states, "_RESTARTS", 1)
    with pytest.raises(ValueError, match="did not converge: residual .* after 1 restarts"):
        ground_state(tfim_ring(10, seed=3))


def test_cli_and_ground_state_import_no_scipy():
    src = os.path.dirname(os.path.dirname(icshadows.__file__))
    # a fresh interpreter: this one has scipy loaded by the oracles
    code = (
        "import sys, icshadows.cli\n"
        "from icshadows import PauliObservable, ground_state\n"
        f"ground_state(PauliObservable(9, {tuple(tfim_ring(9, seed=3).terms)!r}))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_density_cap_checked_before_any_dense_work(monkeypatch):
    from icshadows import states

    def dense_build(*args):
        raise AssertionError("dense work reached above the density cap")

    chain = bell_pair_chain(7)  # 14 qubits
    refuse_dense_builds(monkeypatch)
    monkeypatch.setattr(states, "hermitianize", dense_build)
    with pytest.raises(ValueError, match="density cap"):
        chain.density()
    with pytest.raises(ValueError, match="density cap"):
        reduced_density(chain, range(14))
    with pytest.raises(ValueError, match="density cap"):
        DensityMatrix(13, np.zeros((1, 1)))

