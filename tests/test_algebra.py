import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icshadows.algebra import (
    hermitian_coords,
    hermitian_stack,
    hermitianize,
    kron_all,
    kron_coords,
    partial_trace,
    project_to_density,
    simplex_project,
)

from .conftest import random_density
from .oracles import devectorize, einsum_sum, einsum_traces, kron_stacks, same_bits, vectorize


def test_hermitianize_symmetrizes_small_drift():
    a = np.array([[1.0, 0.5 + 1e-12j], [0.5, 2.0]], dtype=complex)
    h = hermitianize(a)
    assert np.allclose(h, h.conj().T)


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
