import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icshadows import algebra
from icshadows.algebra import (
    hermitian_coords,
    hermitian_stack,
    hermitianize,
    kron_coords,
    project_to_density,
    simplex_project,
)

from .conftest import random_density
from .oracles import (
    devectorize,
    einsum_sum,
    einsum_traces,
    kron_all,
    kron_stacks,
    partial_trace,
    same_bits,
    vectorize,
)


def test_hermitianize_symmetrizes_small_drift():
    a = np.array([[1.0, 0.5 + 1e-12j], [0.5, 2.0]], dtype=complex)
    h = hermitianize(a)
    assert np.allclose(h, h.conj().T)


def test_hermitianize_is_the_mean_with_the_adjoint_bit_for_bit():
    rng = np.random.default_rng(5)
    for dim in (1, 3, 16):
        drift = 1e-12 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        for a in (random_density(rng, dim) + drift, np.asfortranarray(random_density(rng, dim) + drift)):
            before = a.copy()
            got = hermitianize(a)
            assert got.view(np.uint8).tobytes() == (0.5 * (a + a.conj().T)).view(np.uint8).tobytes()
            assert np.array_equal(a, before)


def test_hermitianize_holds_no_more_than_its_block_budget_beyond_the_result():
    import tracemalloc

    rng = np.random.default_rng(12)
    a = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
    a += a.conj().T
    hermitianize(np.eye(2))  # warm caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = hermitianize(a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the matrix takes several blocks, and the result keeps the bits of the mean
    assert a.nbytes > algebra._ASYMMETRY_BYTES
    assert peak - got.nbytes <= algebra._ASYMMETRY_BYTES + 64 * 1024  # array headers
    assert got.tobytes() == (0.5 * (a + a.conj().T)).tobytes()
    a[-1, 0] += 1e-6  # an asymmetry in the last block
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitianize(a)


def test_hermitianize_rejects_genuinely_asymmetric():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitianize(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermitianize_rejects_non_finite(bad):
    # a symmetric non-finite matrix used to pass: NaN > tol is False
    with pytest.raises(ValueError, match="non-finite"):
        hermitianize(np.full((2, 2), bad, dtype=complex))


def test_kron_all_matches_chained_kron():
    rng = np.random.default_rng(0)
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    expected = np.kron(np.kron(ops[0], ops[1]), ops[2])
    assert np.allclose(kron_all(ops), expected)


def test_kron_all_empty_is_scalar_one():
    assert np.array_equal(kron_all([]), np.array([[1.0 + 0.0j]]))


def test_vectorize_roundtrip_and_inner_product():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(devectorize(vectorize(a)), a)
    # <<A|B>> = Tr[A^dag B] under row-major flattening
    assert np.isclose(np.vdot(vectorize(a), vectorize(b)), np.trace(a.conj().T @ b))


def test_partial_trace_of_product_factorizes():
    rng = np.random.default_rng(2)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 4)
    full = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(full, [0]), rho_a)
    assert np.allclose(partial_trace(full, [1, 2]), rho_b)


def test_partial_trace_keep_everything_is_identity_map():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 8)
    assert np.allclose(partial_trace(rho, [0, 1, 2]), rho)


def test_partial_trace_trace_preserved():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 8)
    for keep in ([0], [1], [2], [0, 2]):
        assert np.isclose(np.trace(partial_trace(rho, keep)).real, 1.0)


def test_partial_trace_rejects_bad_indices():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2])


@settings(max_examples=50)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=12))
def test_simplex_project_feasible_and_idempotent(vals):
    p = simplex_project(np.array(vals))
    assert p.min() >= 0.0
    assert np.isclose(p.sum(), 1.0)
    assert np.allclose(simplex_project(p), p, atol=1e-12)


def test_simplex_project_is_euclidean_projection():
    rng = np.random.default_rng(5)
    v = rng.normal(size=6) * 3
    p = simplex_project(v)
    # no random feasible point may be closer
    for _ in range(200):
        x = rng.dirichlet(np.ones(6))
        assert np.linalg.norm(v - p) <= np.linalg.norm(v - x) + 1e-12


def test_project_to_density_properties():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(4, 4))
    h = h + h.T
    rho = project_to_density(h)
    lam = np.linalg.eigvalsh(rho)
    assert lam.min() >= -1e-12
    assert np.isclose(np.trace(rho).real, 1.0)


def test_project_to_density_fixes_densities():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 4)
    assert np.allclose(project_to_density(rho), rho, atol=1e-10)


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_stack_kernels_match_einsum(dim):
    # traces against a Hermitian stack and weighted sums over it are real
    # products on its coordinates
    rng = np.random.default_rng(dim)
    M = 3 * dim * dim
    a = rng.normal(size=(M + 1, dim, dim)) + 1j * rng.normal(size=(M + 1, dim, dim))
    hermitian = a + np.conj(np.transpose(a, (0, 2, 1)))
    stack, op = hermitian[:M], hermitian[M]
    coords = hermitian_coords(stack)
    assert np.abs(coords @ hermitian_coords(op) - einsum_traces(stack, op)).max() < 1e-12
    weights = rng.normal(size=M)
    assert np.abs(hermitian_stack(weights @ coords) - einsum_sum(weights, stack)).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kron_coords_are_the_coordinates_of_the_full_products(k):
    # random Hermitian factors of unequal size, so a slip in digit order shows
    rng = np.random.default_rng(k)
    stacks = []
    for dim in (2, 4, 2, 2)[:k]:
        a = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
        stacks.append(a + np.conj(np.transpose(a, (0, 2, 1))))
    assert same_bits(kron_coords(stacks), hermitian_coords(kron_stacks(stacks)))
