import numpy as np
import pytest

from icshadows import (
    LocalPOVM,
    ProductPOVM,
    completeness_rank,
    outcome_probabilities,
    pauli6,
    pauli6_product,
)

from icshadows import povm as povm_module
from icshadows.algebra import hermitian_coords, hermitian_stack

from .conftest import random_density
from .oracles import group_effect, kron_stacks, same_bits


def test_pauli6_outcome_order_is_pinned():
    # order is part of the dataset format and may never change
    s = 1 / np.sqrt(2)
    kets = [
        np.array([1, 0]),
        np.array([0, 1]),
        np.array([s, s]),
        np.array([s, -s]),
        np.array([s, 1j * s]),
        np.array([s, -1j * s]),
    ]
    effects = pauli6().effects
    for m, ket in enumerate(kets):
        assert np.allclose(effects[m], np.outer(ket, ket.conj()) / 3, atol=1e-15)


def test_pauli6_completeness_and_rank():
    p = pauli6()
    assert np.allclose(p.effects.sum(axis=0), np.eye(2), atol=1e-14)
    assert completeness_rank(p.effects) == 4
    assert p.d == 6


def test_local_povm_rejects_non_psd():
    effects = np.stack([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]).astype(complex)
    with pytest.raises(ValueError, match="PSD"):
        LocalPOVM(effects)


def test_local_povm_rejects_incomplete_sum():
    effects = pauli6().effects.copy()
    effects[0] = effects[0] * 0.5
    with pytest.raises(ValueError, match="sum"):
        LocalPOVM(effects)


def test_local_povm_rejects_non_ic():
    # projective Z measurement spans only a 2-dim operator subspace
    effects = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    assert completeness_rank(effects) == 2
    with pytest.raises(ValueError, match="IC"):
        LocalPOVM(effects)


def test_product_povm_identifier():
    assert pauli6_product(3).identifier == "pauli6"


def test_group_effects_are_kron_products():
    povm = pauli6_product(3)
    assert povm.group_effects((0, 2)).shape == (36, 16)
    effects = hermitian_stack(povm.group_effects((0, 2)))
    e1 = povm.locals[0].effects
    idx = 0
    for m0 in range(6):
        for m2 in range(6):
            assert np.allclose(effects[idx], np.kron(e1[m0], e1[m2]))
            idx += 1
    # single lookup agrees with the stacked array
    assert np.allclose(group_effect(povm, (0, 2), (3, 5)), effects[3 * 6 + 5])


def test_group_effects_follow_listed_order():
    povm = pauli6_product(2)
    single = povm.locals[0].effects
    fwd = hermitian_stack(povm.group_effects((0, 1)))
    rev = hermitian_stack(povm.group_effects((1, 0)))
    # first listed qubit is the most significant digit and first kron factor
    assert np.allclose(fwd[2 * 6 + 1], np.kron(single[2], single[1]))
    assert np.allclose(rev[1 * 6 + 2], np.kron(single[1], single[2]))


def test_outcome_probabilities_born_rule():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 2)
    probs = outcome_probabilities(pauli6_product(1).group_effects((0,)), rho)
    assert probs.shape == (6,)
    assert np.isclose(probs.sum(), 1.0)
    want = [np.trace(e @ rho).real for e in pauli6().effects]
    assert np.allclose(probs, want)


def test_outcome_probabilities_reject_a_non_hermitian_rho():
    effects = pauli6_product(1).group_effects((0,))
    # read through its upper triangle, it would give one negative probability
    with pytest.raises(ValueError, match="not Hermitian"):
        outcome_probabilities(effects, np.array([[1, 1], [0, 0]], dtype=complex))
    # a NaN in an imaginary part alone is not read as Hermitian either
    nan_imag = np.full((2, 2), 0.5, dtype=complex)
    nan_imag[0, 1] = complex(0.5, np.nan)
    with pytest.raises(ValueError, match="not Hermitian"):
        outcome_probabilities(effects, nan_imag)
    # an asymmetry within the tolerance is read as it is, not symmetrized
    rho = np.array([[0.5, 0.5], [0.5 + 1e-12, 0.5]], dtype=complex)
    assert same_bits(outcome_probabilities(effects, rho), effects @ hermitian_coords(rho))


def test_group_effects_cache_returns_read_only_kron_stacks():
    povm = pauli6_product(4)
    locals_ = [povm.locals[q].effects for q in (0, 1, 2)]
    stack = povm.group_effects((0, 1, 2))
    # the coordinates of the Kronecker stack, which itself is not kept
    assert same_bits(stack, hermitian_coords(kron_stacks(locals_)))
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0] = 1.0
    # built once: any group over the same local POVM objects gets the same array
    assert povm.group_effects((1, 2, 3)) is stack
    assert pauli6_product(3).group_effects((0, 1, 2)) is stack


def test_group_effects_cache_keys_on_local_povm_identity():
    effects = pauli6().effects
    first = ProductPOVM((LocalPOVM(effects), LocalPOVM(effects)))
    second = ProductPOVM((LocalPOVM(effects), LocalPOVM(effects)))
    a = first.group_effects((0, 1))
    b = second.group_effects((0, 1))
    assert a is not b and np.array_equal(a, b)
    flipped = LocalPOVM(effects[::-1])
    mixed = ProductPOVM((first.locals[0], flipped))
    for group, stacks in (((0, 1), [effects, effects[::-1]]), ((1, 0), [effects[::-1], effects])):
        assert np.array_equal(mixed.group_effects(group), hermitian_coords(kron_stacks(stacks)))


def test_group_effects_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(povm_module, "_stacks", {})
    monkeypatch.setattr(povm_module, "_stacks_bytes", 0)
    monkeypatch.setattr(povm_module, "STACK_CACHE_BYTES", 36 * 16 * 8)
    povm = pauli6_product(3)
    pair = povm.group_effects((0, 1))
    assert povm.group_effects((1, 2)) is pair
    # a stack above the bound is returned but not kept
    triple = povm.group_effects((0, 1, 2))
    assert not triple.flags.writeable
    assert povm.group_effects((0, 1, 2)) is not triple
    assert povm.group_effects((0, 1)) is pair
    # a newer entry evicts the oldest one
    other = ProductPOVM((pauli6(), pauli6()))
    assert other.group_effects((0, 1)) is not pair
    assert povm.group_effects((0, 1)) is not pair
    kept = povm_module._stacks.values()
    assert povm_module._stacks_bytes == sum(coords.nbytes for _, coords in kept)
    assert povm_module._stacks_bytes <= povm_module.STACK_CACHE_BYTES


def test_group_effects_checks_each_kept_stack_once(monkeypatch):
    monkeypatch.setattr(povm_module, "_stacks", {})
    monkeypatch.setattr(povm_module, "_stacks_bytes", 0)
    checked = []
    asymmetry = povm_module.stack_asymmetry
    monkeypatch.setattr(
        povm_module, "stack_asymmetry", lambda s: checked.append(s.shape) or asymmetry(s)
    )
    pair = pauli6_product(2).group_effects((0, 1))
    assert pauli6_product(3).group_effects((1, 2)) is pair
    # each factor once, when the pair is built, and never the products
    assert checked == [(6, 2, 2), (6, 2, 2)]
    # effects that are not finite and Hermitian are refused when they are built
    for entry, value in (((0, 0, 0), np.nan), ((0, 0, 1), 1.0)):
        local = pauli6()
        bad = local.effects.copy()
        bad[entry] = value
        object.__setattr__(local, "effects", bad)  # past LocalPOVM's own checks
        with pytest.raises(ValueError, match="not finite and Hermitian"):
            ProductPOVM((pauli6(), local)).group_effects((0, 1))
