import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icshadows import (
    DensityMatrix,
    DualFrame,
    GlobalDuals,
    LocalPOVM,
    Partition,
    ProductPOVM,
    bell_state,
    canonical_duals,
    canonical_global,
    duality_residual,
    duals_from_weights,
    joint_probabilities,
    klo_duals,
    maximally_mixed,
    optimal_duals,
    optimize_product_duals,
    pauli6,
    pauli6_product,
    read_duals,
    reduced_density,
    sample_shots,
    state_mse,
    toy_mixed,
    toy_pure,
    write_duals,
)
from icshadows import frames, io
from icshadows.algebra import hermitian_coords, hermitian_stack
from icshadows.frames import DUALITY_TOL, canonical_weights
from icshadows.tomography import ConstrainedLAD, FrequencyBias

from .conftest import anti_hermitian_duals, random_density, random_pure
from .oracles import (
    complex_svd_duals,
    frame_operator,
    hermitian_basis_loop,
    max_entry_residual,
    null_space_product_duals,
    wide_svd_duals,
)

EPS = np.finfo(float).eps


def kets():
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    right = np.array([1, 1j]) / np.sqrt(2)
    left = np.array([1, -1j]) / np.sqrt(2)
    return [np.array([1, 0]), np.array([0, 1]), plus, minus, right, left]


def test_canonical_single_qubit_closed_form():
    duals = hermitian_stack(canonical_duals(pauli6_product(1).group_effects((0,)), (0,)).duals)
    assert np.allclose(duals[0], np.diag([2.0, -1.0]))
    for dual, ket in zip(duals, kets()):
        assert np.allclose(dual, 3 * np.outer(ket, ket.conj()) - np.eye(2), atol=1e-12)


def test_canonical_dual_trace_square_is_five():
    duals = hermitian_stack(canonical_duals(pauli6_product(1).group_effects((0,)), (0,)).duals)
    tr2 = np.einsum("mab,mba->m", duals, duals).real
    assert np.allclose(tr2, 5.0)


def test_canonical_frame_operator_spectrum():
    coords = pauli6_product(1).group_effects((0,))
    weights = canonical_weights(coords)
    effects = hermitian_stack(coords)
    matrix, condition = frame_operator(effects, weights)
    assert condition == pytest.approx(3.0)
    ident = np.eye(2, dtype=complex).reshape(-1)
    sz = np.diag([1.0, -1.0]).astype(complex).reshape(-1)
    assert np.allclose(matrix @ ident, ident)
    assert np.allclose(matrix @ sz, sz / 3)
    # canonical duals are the weighted effects mapped through the inverse frame operator
    want = weights[:, None] * (np.linalg.inv(matrix) @ effects.reshape(6, -1).T).T
    duals = hermitian_stack(canonical_duals(coords, (0,)).duals)
    assert np.allclose(duals.reshape(6, -1), want, atol=1e-12)


def test_frame_operator_rejects_bad_weights():
    coords = pauli6_product(1).group_effects((0,))

    def solve(effects, weights):
        return duals_from_weights(effects, weights, (0,))

    for build, effects in ((frame_operator, hermitian_stack(coords)), (solve, coords)):
        with pytest.raises(ValueError, match="positive"):
            build(effects, np.array([1.0, -1, 1, 1, 1, 1]))
        with pytest.raises(ValueError, match="one weight"):
            build(effects, np.ones(5))
    # a NaN or infinite weight is refused before the SVD, which would not converge
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            solve(coords, np.array([1.0, bad, 1, 1, 1, 1]))


@pytest.mark.parametrize("k", [1, 2, 4])
def test_tall_svd_duals_match_wide_form(k):
    effects = pauli6_product(k).group_effects(tuple(range(k)))
    rng = np.random.default_rng(40 + k)
    for weights in (canonical_weights(effects), rng.uniform(0.1, 10.0, effects.shape[0])):
        got = hermitian_stack(duals_from_weights(effects, weights, tuple(range(k))).duals)
        assert np.abs(got - wide_svd_duals(hermitian_stack(effects), weights)).max() < 1e-10


def test_duals_reject_ill_conditioned_weights():
    # X and Y eigenprojectors weighted near 1e-13 leave the frame operator
    # with a condition number near 1e13, above the 1e12 bound
    effects = pauli6_product(1).group_effects((0,))
    weights = np.array([1.0, 1.0, 1e-13, 1e-13, 1e-13, 1e-13])
    assert frame_operator(hermitian_stack(effects), weights)[1] > 1e12
    with pytest.raises(ValueError, match="ill-conditioned"):
        duals_from_weights(effects, weights, (0,))
    duals_from_weights(effects, np.array([1.0, 1.0, 1e-9, 1e-9, 1e-9, 1e-9]), (0,))


def test_optimal_equals_canonical_for_maximally_mixed():
    effects = pauli6_product(1).group_effects((0,))
    can = canonical_duals(effects, (0,))
    opt = optimal_duals(maximally_mixed(1), effects, (0,))
    assert np.allclose(can.duals, opt.duals, atol=1e-10)
    assert opt.provenance == "optimal"


def test_optimal_duals_input_routes_agree():
    effects = pauli6_product(2).group_effects((0, 1))
    rho = toy_mixed(0.3)
    by_state = optimal_duals(rho, effects, group=(0, 1))
    by_matrix = optimal_duals(rho.matrix, effects, group=(0, 1))
    probs = np.einsum("mab,ba->m", hermitian_stack(effects), rho.matrix).real
    by_probs = optimal_duals(probs, effects, group=(0, 1))
    assert np.allclose(by_state.duals, by_matrix.duals)
    assert np.allclose(by_state.duals, by_probs.duals)
    with pytest.raises(ValueError, match="length"):
        optimal_duals(np.ones(5) / 5, effects, group=(0, 1))


def test_optimal_duals_floor_handles_zero_probabilities():
    # |0> never triggers outcome 1, so that weight hits the floor
    effects = pauli6_product(1).group_effects((0,))
    probs = np.array([1 / 3, 0.0, 1 / 6, 1 / 6, 1 / 6, 1 / 6])
    frame = optimal_duals(probs, effects, (0,), floor=1e-6)
    assert duality_residual(frame.duals, frame.effects) <= DUALITY_TOL


def test_optimal_duals_validates_sigma():
    effects = pauli6_product(2).group_effects((0, 1))
    rho = toy_mixed(0.3).matrix
    asymmetric = rho.copy()
    asymmetric[0, 3] += 1e-3
    probs = np.einsum("mab,ba->m", hermitian_stack(effects), rho).real
    for sigma, message in (
        (np.where(np.eye(4, dtype=bool), np.nan, rho), "non-finite"),
        (np.append(probs[:-1], np.inf), "non-finite"),
        (rho[:2, :2], r"shape \(2, 2\) does not match the 4 x 4 effects"),
        (asymmetric, "not Hermitian"),
    ):
        with pytest.raises(ValueError, match=message):
            optimal_duals(sigma, effects, (0, 1))
    # a linear-inversion estimate may predict negative probabilities; the floor takes them
    indefinite = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    assert np.einsum("mab,ba->m", hermitian_stack(effects), indefinite).real.min() < 0
    frame = optimal_duals(indefinite, effects, (0, 1))
    assert duality_residual(frame.duals, frame.effects) <= DUALITY_TOL


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), 0.0, -1.0])
def test_optimal_duals_rejects_bad_floor(floor):
    effects = pauli6_product(1).group_effects((0,))
    probs = np.array([1 / 3, 0.0, 1 / 6, 1 / 6, 1 / 6, 1 / 6])
    with pytest.raises(ValueError, match="floor"):
        optimal_duals(probs, effects, (0,), floor=floor)


def test_duals_from_weights_rejects_non_ic_sets():
    projective = hermitian_coords(np.stack([np.diag([1.0, 0j]), np.diag([0j, 1.0])]))
    with pytest.raises(ValueError, match="informationally complete"):
        duals_from_weights(projective, np.ones(2), (0,))


def test_dual_frame_rejects_broken_duality():
    frame = canonical_duals(pauli6_product(1).group_effects((0,)), (0,))
    broken = hermitian_stack(frame.duals)
    broken[0] = broken[0] + 1e-3 * np.eye(2)
    with pytest.raises(ValueError, match="duality residual"):
        DualFrame(group=(0,), effects=frame.effects, duals=hermitian_coords(broken))


def test_dual_frame_rejects_non_finite_entries():
    # a NaN residual compares False against any tolerance, so it must be
    # rejected on its own rather than slip through the duality check
    # (a complex stack is checked finite where it enters, by read_duals)
    frame = canonical_duals(pauli6_product(1).group_effects((0,)), (0,))
    for name in ("duals", "effects"):
        poisoned = {"duals": np.copy(frame.duals), "effects": np.copy(frame.effects)}
        poisoned[name][2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DualFrame(group=(0,), **poisoned)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=36, max_size=36))
def test_weighted_duals_always_satisfy_duality(ws):
    effects = pauli6_product(2).group_effects((0, 1))
    frame = duals_from_weights(effects, np.array(ws), group=(0, 1))
    assert duality_residual(frame.duals, effects) <= DUALITY_TOL
    # each dual is Hermitian by construction
    duals = hermitian_stack(frame.duals)
    assert np.array_equal(duals, np.conj(np.transpose(duals, (0, 2, 1))))


def test_state_mse_canonical_on_maximally_mixed():
    frame = canonical_global(pauli6_product(1))
    probs = np.full(6, 1 / 6)
    assert state_mse(frame, probs, maximally_mixed(1)) == pytest.approx(4.5)


def test_state_mse_global_duals_reordered_partition():
    rho = maximally_mixed(2)
    povm = pauli6_product(2)
    probs = np.full(36, 1 / 36)
    straight = canonical_global(povm, Partition(((0,), (1,))))
    swapped = canonical_global(povm, Partition(((1,), (0,))))
    a = state_mse(straight, probs, rho)
    b = state_mse(swapped, probs, rho)
    assert a == pytest.approx(b)
    assert a == pytest.approx(5.0**2 / 6**2 * 36 - 0.25)
    with pytest.raises(ValueError, match="outcome space"):
        state_mse(straight, np.full(35, 1 / 35), rho)


def test_global_duals_validates_frame_groups():
    povm = pauli6_product(2)
    f0 = canonical_duals(povm.group_effects((0,)), group=(0,))
    f1 = canonical_duals(povm.group_effects((1,)), group=(1,))
    part = Partition(((0,), (1,)))
    gd = GlobalDuals(partition=part, frames=(f0, f1))
    assert gd.n == 2
    assert gd.provenance == "canonical"
    with pytest.raises(ValueError, match="does not match"):
        GlobalDuals(partition=part, frames=(f1, f0))
    with pytest.raises(ValueError, match="one frame per group"):
        GlobalDuals(partition=part, frames=(f0,))


def test_global_duals_mixed_provenance_label():
    povm = pauli6_product(2)
    f0 = canonical_duals(povm.group_effects((0,)), group=(0,))
    f1 = optimal_duals(maximally_mixed(1), povm.group_effects((1,)), group=(1,))
    gd = GlobalDuals(Partition(((0,), (1,))), (f0, f1))
    assert gd.provenance == "mixed"


def test_canonical_global_covers_partition():
    povm = pauli6_product(3)
    gd = canonical_global(povm, Partition(((0, 1), (2,))))
    assert [f.group for f in gd.frames] == [(0, 1), (2,)]
    assert gd.frames[0].outcomes == 36
    default = canonical_global(povm)
    assert default.partition.groups == ((0,), (1,), (2,))


def test_klo_duals_provenance_and_partition():
    ds = sample_shots(bell_state(), pauli6_product(2), 3000, seed=21)
    gd = klo_duals(ds, k=2)
    assert gd.partition.groups == ((0, 1),)
    assert gd.provenance == "klo-ConstrainedLAD"
    for frame in gd.frames:
        assert duality_residual(frame.duals, frame.effects) <= DUALITY_TOL
    singles = klo_duals(ds, k=1, backend=FrequencyBias(36.0))
    assert singles.provenance == "klo-FrequencyBias"
    assert singles.partition.groups == ((0,), (1,))


def test_klo_duals_accepts_explicit_partition():
    ds = sample_shots(bell_state(), pauli6_product(2), 2000, seed=22)
    gd = klo_duals(ds, k=2, partitioner=Partition(((0,), (1,))))
    assert gd.partition.groups == ((0,), (1,))


def test_klo_duals_requires_known_povm():
    from icshadows.sampling import Dataset

    ds = Dataset(n=1, d=6, S=3, records=np.zeros((3, 1), dtype=np.uint8), seed=0,
                 povm_id="mystery")
    with pytest.raises(ValueError, match="POVM"):
        klo_duals(ds, k=1)


def test_optimize_product_duals_beats_canonical():
    rho = toy_mixed(0.3)
    povm = pauli6_product(2)
    probs = np.einsum("mab,ba->m", hermitian_stack(povm.group_effects((0, 1))), rho.matrix).real
    part = Partition.singletons(2)
    gd, mse, sweeps = optimize_product_duals(probs, part, rho)
    base = state_mse(canonical_global(povm, part), probs, rho)
    assert sweeps >= 1
    assert mse <= base + 1e-12
    assert mse == pytest.approx(state_mse(gd, probs, rho), abs=1e-9)
    assert gd.provenance == "optimized-product"


def test_optimize_product_duals_respects_cap():
    with pytest.raises(ValueError, match="cap"):
        optimize_product_duals(np.zeros(6**5), Partition.singletons(5), maximally_mixed(5))


def test_duality_residual_detects_non_duals():
    effects = pauli6_product(1).group_effects((0,))
    frame = canonical_duals(effects, (0,))
    assert duality_residual(frame.duals, effects) <= DUALITY_TOL
    # the effects are not their own duals for an overcomplete frame
    assert duality_residual(effects, effects) > 0.1


def rotated_povm(rng, n: int) -> ProductPOVM:
    """Pauli-6 turned by an independent random unitary on each qubit."""
    locals_ = []
    for _ in range(n):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        locals_.append(LocalPOVM(np.einsum("ab,mbc,dc->mad", u, pauli6().effects, u.conj())))
    return ProductPOVM(tuple(locals_))


def random_hermitian_stack(rng, M: int, dim: int) -> np.ndarray:
    a = rng.normal(size=(M, dim, dim)) + 1j * rng.normal(size=(M, dim, dim))
    return a + np.conj(np.transpose(a, (0, 2, 1)))


@pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
def test_hermitian_basis_is_the_hand_built_one(dim):
    basis = hermitian_stack(np.eye(dim * dim))
    assert np.array_equal(basis, hermitian_basis_loop(dim))
    # the basis' own coordinates are the unit vectors
    assert np.array_equal(hermitian_coords(basis), np.eye(dim * dim))


def _assert_matches_null_space_oracle(state, groups):
    """The weighted-solve descent against the null-space descent it replaced:
    same MSE to 1e-12 relative, same sweep count, duals within 1e-9."""
    n = state.n
    probs = joint_probabilities(state, pauli6_product(n), range(n))
    rho = reduced_density(state, range(n))
    part = Partition(groups)
    got, mse, sweeps = optimize_product_duals(probs, part, rho)
    want, want_mse, want_sweeps = null_space_product_duals(probs, part, rho)
    assert sweeps == want_sweeps
    assert abs(mse - want_mse) <= 1e-12 * abs(want_mse)
    for a, b in zip(got.frames, want.frames, strict=True):
        assert a.group == b.group and a.provenance == b.provenance == "optimized-product"
        assert np.abs(a.duals - b.duals).max() <= 1e-9


TOY_QS = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0]


@pytest.mark.parametrize("make", [toy_mixed, toy_pure], ids=["mixed", "pure"])
def test_product_dual_optimizer_matches_the_null_space_oracle_on_the_toy_sweep(make):
    for q in TOY_QS:
        _assert_matches_null_space_oracle(make(q), ((0,), (1,)))


# the oracle's null-space build for a k-qubit group is a 2*16^k x 24^k real
# matrix, so it only ever sees groups of at most 2 qubits
@pytest.mark.parametrize(
    "seed, n, groups",
    [
        (0, 2, ((0,), (1,))),
        (1, 2, ((0, 1),)),
        (2, 3, ((0,), (1, 2))),
        (3, 3, ((0, 2), (1,))),
        (4, 3, ((0,), (1,), (2,))),
        (5, 4, ((0, 1), (2, 3))),
        (6, 4, ((0, 3), (1,), (2,))),
        (7, 4, ((0,), (1,), (2,), (3,))),
    ],
)
@pytest.mark.parametrize("pure", [True, False])
def test_product_dual_optimizer_matches_the_null_space_oracle(seed, n, groups, pure):
    rng = np.random.default_rng(seed)
    state = random_pure(rng, n) if pure else DensityMatrix(n, random_density(rng, 2**n))
    _assert_matches_null_space_oracle(state, groups)


@pytest.mark.parametrize("groups", [((0,), (1, 2, 3)), ((0, 1, 2, 3),)])
def test_product_dual_optimizer_finishes_groups_of_three_and_four_qubits(groups):
    state = random_pure(np.random.default_rng(11), 4)
    povm = pauli6_product(4)
    probs = joint_probabilities(state, povm, range(4))
    rho = reduced_density(state, range(4))
    start = time.perf_counter()
    gd, mse, sweeps = optimize_product_duals(probs, Partition(groups), rho)
    assert time.perf_counter() - start < 5.0
    assert sweeps >= 1 and gd.partition.groups == groups
    assert mse == pytest.approx(state_mse(gd, probs, rho), rel=1e-12)
    assert mse <= state_mse(canonical_global(povm, Partition(groups)), probs, rho)
    if len(groups) == 1:
        # one group: the product optimum is the optimal dual
        best_frame = optimal_duals(probs, povm.group_effects(groups[0]), groups[0])
        best = state_mse(GlobalDuals(Partition(groups), (best_frame,)), probs, rho)
        assert mse == pytest.approx(best, rel=1e-10)


def test_product_dual_optimizer_rejects_a_step_that_raises_the_mse(monkeypatch):
    solve = frames.duals_from_weights

    def inverted(effects, weights, **kwargs):  # weights p where 1/p is optimal
        return solve(effects, 1.0 / weights, **kwargs)

    monkeypatch.setattr(frames, "duals_from_weights", inverted)
    rho = toy_mixed(0.3)
    probs = joint_probabilities(rho, pauli6_product(2), range(2))
    with pytest.raises(AssertionError, match="objective increased"):
        optimize_product_duals(probs, Partition.singletons(2), rho)


@pytest.mark.parametrize("dim", [1, 2, 4, 16])
def test_hermitian_coordinates_round_trip(dim):
    rng = np.random.default_rng(dim)
    stack = random_hermitian_stack(rng, 7, dim)
    coords = hermitian_coords(stack)
    assert coords.shape == (7, dim * dim) and coords.dtype == np.float64
    back = hermitian_stack(coords)
    # each off-diagonal part is scaled by sqrt(2) and back by 1/sqrt(2), whose
    # product is not exactly 1 in floating point: at most one rounding each way
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(back) - part(stack)) <= 2 * EPS * np.abs(part(stack)))
    assert np.array_equal(np.diagonal(back, axis1=1, axis2=2), np.diagonal(stack, axis1=1, axis2=2))
    assert np.array_equal(back, np.conj(np.transpose(back, (0, 2, 1))))
    again = hermitian_coords(back)
    assert np.all(np.abs(again - coords) <= 2 * EPS * np.abs(coords))
    # orthonormal basis: Frobenius inner products carry over
    gram = np.einsum("mab,nab->mn", stack.conj(), stack).real
    assert np.abs(coords @ coords.T - gram).max() <= 1e-13 * np.abs(gram).max()


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=4),
    rotated=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spread=st.floats(min_value=0.0, max_value=10.0),
)
def test_real_solve_matches_complex_oracle(k, rotated, seed, spread):
    rng = np.random.default_rng(seed)
    povm = rotated_povm(rng, k) if rotated else pauli6_product(k)
    effects = povm.group_effects(tuple(range(k)))
    weights = 10.0 ** rng.uniform(0.0, spread, effects.shape[0])
    want, s = complex_svd_duals(hermitian_stack(effects), weights)
    kappa = s[0] / s[-1]
    group = tuple(range(k))
    if kappa**2 > frames.CONDITION_BOUND:
        with pytest.raises(ValueError, match="ill-conditioned"):
            duals_from_weights(effects, weights, group)
        return
    got = hermitian_stack(duals_from_weights(effects, weights, group).duals)
    # both solves are backward stable, so they may differ by about
    # dim^2 * eps * kappa (kappa: the weighted effect matrix's singular-value
    # ratio); on well-conditioned frames that is below 1e-12
    rel = np.abs(got - want).max() / np.abs(want).max()
    assert rel <= max(1e-12, 4 * 4**k * EPS * kappa)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_real_solve_matches_complex_oracle_on_learned_weights(k):
    # weights as optimal_duals forms them for a full-rank group state:
    # inverse Born probabilities, here up to about 3e3
    rng = np.random.default_rng(70 + k)
    coords = rotated_povm(rng, k).group_effects(tuple(range(k)))
    effects = hermitian_stack(coords)
    probs = np.einsum("mab,ba->m", effects, random_density(rng, 2**k)).real
    weights = 1.0 / np.maximum(probs, frames.PROBABILITY_FLOOR)
    want, _ = complex_svd_duals(effects, weights)
    got = hermitian_stack(duals_from_weights(coords, weights, tuple(range(k))).duals)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=1e-14, max_value=1.0),
)
def test_frobenius_residual_bounds_max_entry_oracle(k, seed, scale):
    rng = np.random.default_rng(seed)
    coords = pauli6_product(k).group_effects(tuple(range(k)))
    effects = hermitian_stack(coords)
    duals = hermitian_stack(canonical_duals(coords, tuple(range(k))).duals)
    perturbed = duals + scale * random_hermitian_stack(rng, *duals.shape[:2])
    for d in (duals, perturbed):
        # the real-coordinate Frobenius norm equals the complex one, which is
        # at least the largest entry; the slack covers rounding only
        got = duality_residual(hermitian_coords(d), coords)
        assert got >= max_entry_residual(d, effects) * (1 - 1e-12)


def test_dual_frame_rejects_non_hermitian_stacks():
    effects = pauli6_product(1).group_effects((0,))
    frame = canonical_duals(effects, (0,))
    duals = hermitian_stack(frame.duals)
    skewed = anti_hermitian_duals(duals)
    # duality holds for the complex stack; only Hermiticity fails
    assert max_entry_residual(skewed, hermitian_stack(effects)) < 1e-15
    # the public check itself refuses, rather than under-reporting
    with pytest.raises(ValueError, match="duals must be real"):
        duality_residual(skewed, effects)
    with pytest.raises(ValueError, match="duals must be real"):
        DualFrame(group=(0,), effects=effects, duals=skewed)
    with pytest.raises(ValueError, match="effects must be real"):
        DualFrame(group=(0,), effects=np.conj(anti_hermitian_duals(duals)), duals=frame.duals)


def test_frame_functions_take_real_coordinates_only():
    # a complex stack, even a Hermitian one, is refused: it is converted
    # where it enters the program (read_duals), not by the frame functions
    effects = pauli6_product(1).group_effects((0,))
    frame = canonical_duals(effects, (0,))
    stack = hermitian_stack(effects)
    calls = {
        "DualFrame duals": lambda: DualFrame((0,), effects, hermitian_stack(frame.duals)),
        "DualFrame effects": lambda: DualFrame((0,), stack, frame.duals),
        "duality_residual": lambda: duality_residual(hermitian_stack(frame.duals), effects),
        "duals_from_weights": lambda: duals_from_weights(stack, np.ones(6), (0,)),
        "optimal_duals": lambda: optimal_duals(np.full(6, 1 / 6), stack, (0,)),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=r"must be real \(M, dim\^2\) coordinates"):
            call()


def test_canonical_duals_name_coordinates_for_a_complex_stack():
    # refused before any cast, so no ComplexWarning drops the imaginary parts
    # and no trace is read off a 3-d array
    stack = hermitian_stack(pauli6_product(1).group_effects((0,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: canonical_weights(stack), lambda: canonical_duals(stack, (0,))):
            with pytest.raises(ValueError, match=r"effects must be real \(M, dim\^2\) coordinates"):
                call()


def test_dual_frame_copies_a_writeable_input_and_keeps_a_read_only_one():
    frame = canonical_duals(pauli6_product(1).group_effects((0,)), (0,))
    x = np.array(frame.duals)
    copy = DualFrame(group=(0,), effects=frame.effects, duals=x)
    # the caller's array stays writeable, and writing to it leaves the frame alone
    assert x.flags.writeable
    x[0, 0] += 1.0
    assert np.array_equal(copy.duals, frame.duals)
    assert not copy.duals.flags.writeable
    # a read-only array, such as a solve's own output, is kept as it is
    assert not frame.duals.flags.writeable
    assert DualFrame(group=(0,), effects=frame.effects, duals=frame.duals).duals is frame.duals


def test_cached_effect_stack_is_not_checked_again(monkeypatch, tmp_path):
    # a solved frame is checked once, by one duality residual; neither its
    # effects nor its duals are checked for Hermiticity or converted
    effects = pauli6_product(2).group_effects((0, 1))
    seen = []

    def spy(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: seen.append(name) or fn(*a))

    spy(frames, "duality_residual")
    frame = canonical_duals(effects, group=(0, 1))
    assert seen == ["duality_residual"]
    assert frame.effects is effects
    # a complex stack from a file is checked and converted where it enters, once
    path = tmp_path / "frames.icdl"
    write_duals(path, GlobalDuals(Partition.single_group(2), (frame,)))
    spy(io, "stack_asymmetry")
    spy(io, "hermitian_coords")
    seen.clear()
    (again,) = read_duals(path).frames
    assert seen == ["stack_asymmetry", "hermitian_coords", "duality_residual"]
    assert np.array_equal(hermitian_stack(again.duals), hermitian_stack(frame.duals))
    bad = frame.duals.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DualFrame(group=(0, 1), effects=effects, duals=bad)
